import io
import math
from dataclasses import asdict

import numpy as np
import pytest

from helpers import named_triples
from tagtopics import cli
from tagtopics.corpus import Corpus, read_corpus
from tagtopics.itm import train_itm
from tagtopics.modelio import load_model
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import planted_two_topic_spec, save_spec
from tagtopics.similarity import (TopicDistribution, rank_by_seed, rank_rows, read_ranking,
                                  write_ranking)
from tagtopics.training import MODEL_KINDS, TrainConfig


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("a\tu1\tx\na\tu2\tx\nb\tu1\ty\n")
    return path


def run(*argv):
    return cli.main([str(arg) for arg in argv])


class TestIngest:
    def test_stats_output(self, triple_file, tmp_path, capsys):
        out = tmp_path / "corpus.tsv"
        assert run("ingest", triple_file, out) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "resources\t2" in lines
        assert "users\t2" in lines
        assert "tags\t2" in lines
        assert "total_count\t3" in lines

    def test_roundtrip_preserves_stats(self, triple_file, tmp_path, capsys):
        first = tmp_path / "corpus1.tsv"
        second = tmp_path / "corpus2.tsv"
        assert run("ingest", triple_file, first) == 0
        stats_one = capsys.readouterr().out
        assert run("ingest", first, second) == 0
        stats_two = capsys.readouterr().out
        assert stats_one == stats_two
        assert named_triples(read_corpus(first)) == named_triples(read_corpus(second))

    def test_filter_flags(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("a\tu\tp\na\tu\tq\t5\nb\tu\ts\t12\n")
        out = tmp_path / "corpus.tsv"
        assert run("ingest", src, out, "--min-tag-freq", 2, "--max-tag-freq", 10) == 0
        assert named_triples(read_corpus(out)) == {("a", "u", "q"): 5}

    def test_missing_input_is_data_error(self, tmp_path):
        assert run("ingest", tmp_path / "nope.tsv", tmp_path / "out.tsv") == 2

    def test_malformed_line_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("a\tu\n")
        assert run("ingest", src, tmp_path / "out.tsv") == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["ingest"], ["train", "--model", "plsa"]])
    def test_count_above_int64_is_data_error(self, command, tmp_path, capsys):
        src = tmp_path / "big.tsv"
        src.write_text("a\tu\tx\t1\na\tu\ty\t99999999999999999999\n")
        assert run(command[0], src, tmp_path / "out", *command[1:]) == 2
        assert capsys.readouterr().err.strip().endswith(
            "line 2: count '99999999999999999999' exceeds 2**63 - 1")
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_single_topic_converges_fast(self, triple_file, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus)
        capsys.readouterr()
        model_path = tmp_path / "model.plsa"
        assert run("train", corpus, model_path, "--model", "plsa", "--topics", 1) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert len(rows) - 1 <= 2  # updates beyond the initial entry
        assert "# converged=True" in out

    def test_byte_identical_reruns(self, triple_file, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus)
        one = tmp_path / "one.itm"
        two = tmp_path / "two.itm"
        args = ["--model", "itm", "--topics", 2, "--interests", 2, "--seed", 7,
                "--max-iters", 20]
        assert run("train", corpus, one, *args) == 0
        assert run("train", corpus, two, *args) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bad_config_is_usage_error(self, triple_file, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus)
        assert run("train", corpus, tmp_path / "m", "--model", "plsa", "--topics", 0) == 1
        assert run("train", corpus, tmp_path / "m", "--model", "plsa", "--tol", 0) == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_usage_error(self, triple_file, tmp_path, capsys, tol):
        assert run("train", triple_file, tmp_path / "m", "--model", "plsa", "--tol", tol) == 1
        assert "tol must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_negative_seed_is_usage_error(self, triple_file, tmp_path, capsys):
        assert run("train", triple_file, tmp_path / "m", "--model", "plsa", "--seed", -1) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_table_budget_is_usage_error(self, triple_file, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus)
        assert run("train", corpus, tmp_path / "m", "--model", "plsa", "--topics", 2,
                   "--max-table-bytes", 10) == 1
        assert "plsa tables need" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.tsv", "triples.tsv"]

    def test_unknown_flag_is_usage_error(self, triple_file, tmp_path):
        assert run("train", triple_file, tmp_path / "m", "--model", "nope") == 1

    def test_non_finite_log_likelihood_is_degeneracy_error(self, triple_file, tmp_path,
                                                           monkeypatch, capsys):
        corpus = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus)
        # Only the log-likelihood pass after the last update calls the method.
        monkeypatch.setattr(PlsaModel, "log_likelihood", lambda self, corpus: float("-inf"))
        model_path = tmp_path / "model.plsa"
        assert run("train", corpus, model_path, "--model", "plsa", "--topics", 2,
                   "--tol", 1e-300, "--max-iters", 2) == 3
        assert "log-likelihood is -inf after iteration 2" in capsys.readouterr().err
        assert not model_path.exists()


    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_defaults_are_train_config_defaults(self, kind, monkeypatch):
        class Stop(Exception):
            pass

        def trainer(corpus, cfg):
            seen.append(cfg)
            raise Stop

        seen = []
        monkeypatch.setattr(cli, "read_corpus", lambda path: None)
        monkeypatch.setitem(cli._TRAINERS, kind, trainer)
        with pytest.raises(Stop):
            run("train", "corpus.tsv", "model.txt", "--model", kind)
        assert asdict(seen[0]) == asdict(TrainConfig(model=kind))


class TestRank:
    @pytest.fixture
    def trained(self, triple_file, tmp_path):
        corpus_path = tmp_path / "corpus.tsv"
        run("ingest", triple_file, corpus_path)
        model_path = tmp_path / "model.plsa"
        run("train", corpus_path, model_path, "--model", "plsa", "--topics", 2,
            "--seed", 3)
        return corpus_path, model_path

    def test_header_only_for_top_zero(self, trained, capsys):
        corpus_path, model_path = trained
        assert run("rank", model_path, corpus_path, "a", "--top", 0) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# model=plsa K=2 base=e seed=a")
        assert lines[1] == "rank\tresource\tdivergence"

    def test_matches_library_ranking(self, trained, tmp_path, capsys):
        corpus_path, model_path = trained
        out = tmp_path / "ranking.tsv"
        assert run("rank", model_path, corpus_path, "a", "--output", out) == 0
        corpus = read_corpus(corpus_path)
        model = load_model(model_path)
        dists = {r: model.topic_distribution(r) for r in range(len(corpus.resources))}
        ranked = rank_by_seed(dists, corpus.resources.id_of("a"))
        expected = io.StringIO()
        write_ranking(ranked, expected, limit=100, name_of=corpus.resources.name_of,
                      meta={"model": "plsa", "K": 2, "base": "e", "seed": "a"})
        assert out.read_text() == expected.getvalue()

    def test_builds_no_topic_distribution(self, trained, tmp_path, monkeypatch):
        corpus_path, model_path = trained
        out = tmp_path / "ranking.tsv"
        assert run("rank", model_path, corpus_path, "a", "--output", out) == 0
        expected = out.read_bytes()

        def built(self):
            raise AssertionError("cmd_rank built a TopicDistribution")

        monkeypatch.setattr(TopicDistribution, "__post_init__", built)
        assert run("rank", model_path, corpus_path, "a", "--output", out) == 0
        assert out.read_bytes() == expected

    def test_ranks_the_model_matrix_as_it_is(self, trained, tmp_path, monkeypatch):
        corpus_path, model_path = trained
        seen = []

        def recorded(probs, seed_row):
            seen.append(probs)
            return rank_rows(probs, seed_row)

        monkeypatch.setattr(cli, "rank_rows", recorded)
        assert run("rank", model_path, corpus_path, "a", "--output", tmp_path / "out") == 0
        model = load_model(model_path)
        assert len(seen) == 1 and type(seen[0]) is np.ndarray
        assert seen[0].tobytes() == model.topic_distributions().tobytes()

    def test_reads_no_corpus(self, trained, tmp_path, monkeypatch):
        corpus_path, model_path = trained
        out = tmp_path / "ranking.tsv"
        assert run("rank", model_path, corpus_path, "a", "--output", out) == 0
        expected = out.read_bytes()

        def built(self, *args):
            raise AssertionError("cmd_rank built a Corpus")

        monkeypatch.setattr(Corpus, "__init__", built)
        assert run("rank", model_path, corpus_path, "a", "--output", out) == 0
        assert out.read_bytes() == expected

    def test_every_seed_of_a_subnormal_row_ranks(self, trained, tmp_path):
        corpus_path, _ = trained
        model = PlsaModel(resource_probs=np.array([0.5, 0.5]),
                          tag_given_topic=np.array([[0.5, 0.5], [0.5, 0.5]]),
                          topic_given_resource=np.array([[5e-324, 1.0], [0.0, 1.0]]))
        model_path = tmp_path / "subnormal.plsa"
        model.save(model_path)
        assert load_model(model_path).topic_given_resource[0, 0] == 5e-324
        for seed in read_corpus(corpus_path).resources.entries:
            out = tmp_path / f"ranking-{seed}.tsv"
            assert run("rank", model_path, corpus_path, seed, "--output", out) == 0
            with open(out, encoding="utf-8") as stream:
                _, ranked = read_ranking(stream)
            assert [name for name, _ in ranked.entries] == [name for name in "ab" if name != seed]
            assert all(0.0 <= div <= math.log(2.0) for _, div in ranked.entries)

    def test_count_above_int64_is_data_error(self, trained, tmp_path, capsys):
        corpus_path, model_path = trained
        big = tmp_path / "big.tsv"
        big.write_text(corpus_path.read_text() + "a\tu1\tx\t9223372036854775808\n")
        assert run("rank", model_path, big, "a") == 2
        assert "count '9223372036854775808' exceeds 2**63 - 1" in capsys.readouterr().err
        big.write_text(corpus_path.read_text() + "a\tu1\tx\t9223372036854775807\n")
        assert run("rank", model_path, big, "a") == 0

    def test_unknown_seed_suggests_matches(self, trained, capsys):
        corpus_path, model_path = trained
        assert run("rank", model_path, corpus_path, "aa") == 2
        err = capsys.readouterr().err
        assert "unknown seed resource" in err
        assert "a" in err

    def test_no_support_resource_is_degeneracy_error(self, trained, tmp_path, capsys):
        corpus_path, _ = trained
        model = MwaModel(
            topic_probs=np.array([1.0]),
            resource_given_topic=np.array([[1.0, 0.0]]),
            user_given_topic=np.array([[0.5, 0.5]]),
            tag_given_topic=np.array([[0.5, 0.5]]),
        )
        model_path = tmp_path / "degenerate.mwa"
        model.save(model_path)
        assert run("rank", model_path, corpus_path, "a") == 3
        assert "no support" in capsys.readouterr().err


class TestEval:
    def test_report(self, tmp_path, capsys):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text(
            "# model=itm K=2 base=e seed=s\n"
            "rank\tresource\tdivergence\n"
            "1\ta\t0.0\n2\tb\t0.1\n3\tc\t0.2\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tsame\nc\tlink-to\n")
        assert run("eval", ranking, labels, "--k", 3, "--n", 2) == 0
        out = capsys.readouterr().out.splitlines()
        assert "itm\tsame@3\t1" in out
        assert "itm\tlink-to@3\t1" in out
        assert "itm\teffort@2\t3" in out

    def test_not_reached(self, tmp_path, capsys):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text("# model=plsa\nrank\tresource\tdivergence\n1\ta\t0.0\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tsame\n")
        assert run("eval", ranking, labels, "--n", 5) == 0
        assert "plsa\teffort@5\tnot_reached" in capsys.readouterr().out

    def test_bad_label_file_is_data_error(self, tmp_path):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text("# model=plsa\nrank\tresource\tdivergence\n1\ta\t0.0\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tsimilar\n")
        assert run("eval", ranking, labels) == 2

    def test_nan_divergence_is_data_error(self, tmp_path, capsys):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text("# model=plsa\nrank\tresource\tdivergence\n"
                           "1\ta\t0.5\n2\tb\tnan\n3\tc\t0.1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tsame\n")
        assert run("eval", ranking, labels) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_k_is_usage_error(self, tmp_path):
        ranking = tmp_path / "ranking.tsv"
        ranking.write_text("# model=plsa\nrank\tresource\tdivergence\n1\ta\t0.0\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tsame\n")
        assert run("eval", ranking, labels, "--k", 0) == 1


class TestSample:
    def test_sample_then_pipeline(self, tmp_path, capsys):
        spec_path = tmp_path / "planted.spec"
        save_spec(planted_two_topic_spec(), spec_path)
        corpus_path = tmp_path / "sampled.tsv"
        assert run("sample", spec_path, corpus_path) == 0
        stats = capsys.readouterr().out
        assert "resources\t20" in stats
        assert "total_count\t20000" in stats

        model_path = tmp_path / "model.itm"
        assert run("train", corpus_path, model_path, "--model", "itm", "--topics", 2,
                   "--interests", 2, "--seed", 0, "--tol", "1e-8",
                   "--max-iters", 150) == 0
        capsys.readouterr()
        assert run("rank", model_path, corpus_path, "r0", "--top", 9) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 9
        assert {name for _, name, _ in rows} <= {f"r{i}" for i in range(10)}

    def test_cli_matches_library_training(self, tmp_path):
        spec_path = tmp_path / "planted.spec"
        save_spec(planted_two_topic_spec(), spec_path)
        corpus_path = tmp_path / "sampled.tsv"
        run("sample", spec_path, corpus_path)
        model_path = tmp_path / "model.itm"
        run("train", corpus_path, model_path, "--model", "itm", "--topics", 2,
            "--interests", 2, "--seed", 4, "--max-iters", 10)
        corpus = read_corpus(corpus_path)
        expected, _ = train_itm(corpus, TrainConfig(model="itm", topics=2, interests=2,
                                                    seed=4, max_iters=10))
        loaded = load_model(model_path)
        assert np.array_equal(loaded.tag_given_interest_topic,
                              expected.tag_given_interest_topic)
        assert np.array_equal(loaded.topic_given_resource, expected.topic_given_resource)

    def test_missing_spec_is_data_error(self, tmp_path):
        assert run("sample", tmp_path / "nope.spec", tmp_path / "out.tsv") == 2
