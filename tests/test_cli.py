import argparse
import io
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from helpers import named_triples
from tagtopics import cli, training
from tagtopics.corpus import Corpus, read_corpus
from tagtopics.itm import train_itm
from tagtopics.modelio import load_model
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import MAX_SAMPLES, PlantedSpec, planted_two_topic_spec, save_spec
from tagtopics.similarity import (TopicDistribution, rank_by_seed, rank_rows, read_ranking,
                                  write_ranking)
from tagtopics.training import MODEL_KINDS, TrainConfig

DATA = Path(__file__).parent / "data"


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

    # Each file a command reads, in turn the one that is not UTF-8 ("bad").
    @pytest.mark.parametrize("argv", [
        pytest.param(["ingest", "bad", "out"], id="ingest"),
        pytest.param(["sample", "bad", "out"], id="sample"),
        pytest.param(["rank", "bad", "triples", "a"], id="rank-model"),
        pytest.param(["rank", DATA / "trained.plsa", "bad", "a"], id="rank-corpus"),
        pytest.param(["eval", "bad", "labels"], id="eval-ranking"),
        pytest.param(["eval", "ranking", "bad"], id="eval-labels"),
    ])
    def test_bytes_that_are_not_utf8_are_a_data_error(self, argv, triple_file, tmp_path,
                                                      capsys):
        bad, ranking, labels = tmp_path / "bad", tmp_path / "ranking", tmp_path / "labels"
        bad.write_bytes(b"a\tu\tx\n\xff\n")
        ranking.write_text("# model=plsa\nrank\tresource\tdivergence\n1\ta\t0.0\n")
        labels.write_text("a\tsame\n")
        files = {"bad": bad, "out": tmp_path / "out", "triples": triple_file,
                 "ranking": ranking, "labels": labels}
        assert run(*(files.get(arg, arg) for arg in argv)) == 2
        assert capsys.readouterr().err == (f"tagtopics: data error: {bad}: 'utf-8' codec "
                                           "can't decode byte 0xff in position 6: invalid "
                                           "start byte\n")

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

    @pytest.mark.parametrize("command", [["ingest"], ["train", "--model", "plsa"]])
    @pytest.mark.parametrize("lines, what", [
        (["a\tu\tx\t9223372036854775807"] * 3, "the merged count of id row (0, 0, 0)"),
        (["a\tu\tx\t4611686018427387904", "b\tu\tx\t4611686018427387904"],
         "the count of user 'u'"),
    ])
    def test_sum_above_int64_is_data_error(self, command, lines, what, tmp_path, capsys):
        src = tmp_path / "big.tsv"
        src.write_text("\n".join(lines) + "\n")
        assert run(command[0], src, tmp_path / "out", *command[1:]) == 2
        assert capsys.readouterr().err.strip().endswith(
            f"{what} overflows int64: it exceeds 2**63 - 1")
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
        walk = training.mapreduce_slices

        def minus_inf_when_not_fused(model, ids, counts, fused, *args):
            stats, ll = walk(model, ids, counts, fused, *args)
            return stats, ll if fused else float("-inf")

        # Only the log-likelihood pass after the last update is not fused.
        monkeypatch.setattr(training, "mapreduce_slices", minus_inf_when_not_fused)
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

    def test_every_config_field_but_model_has_a_flag_with_its_default(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {action.dest: action for action in commands.choices["train"]._actions}
        defaults = TrainConfig()
        for field in fields(TrainConfig):
            if field.name == "model":
                assert flags["model"].required and flags["model"].choices == MODEL_KINDS
                continue
            flag = flags[field.name]
            assert flag.option_strings == [f"--{field.name.replace('_', '-')}"]
            assert flag.default == getattr(defaults, field.name)
            assert flag.type is type(getattr(defaults, field.name))
        args = parser.parse_args(["train", "corpus.tsv", "model.txt", "--model", defaults.model])
        assert TrainConfig(**{field.name: getattr(args, field.name)
                              for field in fields(TrainConfig)}) == defaults


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

    def test_negative_top_is_usage_error(self, trained, capsys):
        corpus_path, model_path = trained
        assert run("rank", model_path, corpus_path, "a", "--top", -1) == 1
        assert capsys.readouterr().err == "tagtopics: usage error: --top must be >= 0\n"

    @pytest.mark.parametrize("size", [10**15, 10**20])
    def test_model_too_large_to_allocate_is_data_error(self, trained, tmp_path, capsys, size):
        corpus_path, _ = trained
        model_path = tmp_path / "huge.plsa"
        model_path.write_text(f"# tagtopics model format v1\nplsa 40 {size} 1500 1\n1.0\n")
        assert run("rank", model_path, corpus_path, "a") == 2
        assert capsys.readouterr().err == (
            f"tagtopics: data error: p(r): cannot allocate the declared shape ({size},)\n")

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
    @pytest.mark.parametrize("seed", ["my site", "a  b", "x=y"])
    def test_a_seed_name_with_spaces_or_equals_survives_rank(self, seed, tmp_path, capsys):
        """The ranking header ends in ``seed=<name>``: the whole name comes back,
        so a resource named after its first word may be ranked."""
        names = ["my site", "my", "a  b", "a", "b", "x=y", "x", "y"]
        triples = tmp_path / "triples.tsv"
        triples.write_text("".join(f"{name}\tu{i % 2}\tt{i % 3}\n" for i, name in enumerate(names)))
        corpus_path, model_path = tmp_path / "corpus.tsv", tmp_path / "model.plsa"
        assert run("ingest", triples, corpus_path) == 0
        assert run("train", corpus_path, model_path, "--model", "plsa", "--topics", 2) == 0
        ranking, labels = tmp_path / "ranking.tsv", tmp_path / "labels.tsv"
        assert run("rank", model_path, corpus_path, seed, "--output", ranking) == 0
        labels.write_text("".join(f"{name}\tsame\n" for name in names if name != seed))
        capsys.readouterr()
        assert run("eval", ranking, labels, "--k", 7, "--n", 7) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "plsa\tsame@7\t7", "plsa\tlink-to@7\t0", "plsa\teffort@7\t7"]
        with open(ranking, encoding="utf-8") as stream:
            meta, ranked = read_ranking(stream)
        assert meta == {"model": "plsa", "K": "2", "base": "e", "seed": seed}
        assert ranked.seed == seed
        assert sorted(name for name, _ in ranked.entries) == sorted(set(names) - {seed})

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

    def test_negative_spec_seed_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "planted.spec"
        save_spec(planted_two_topic_spec(), spec_path)
        spec_path.write_text(spec_path.read_text().replace("\nspec 20000 13 1\n",
                                                           "\nspec 20000 -1 1\n"))
        assert run("sample", spec_path, tmp_path / "out.tsv") == 1
        assert capsys.readouterr().err == "tagtopics: usage error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out.tsv").exists()

    def test_draw_count_over_the_limit_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "planted.spec"
        save_spec(planted_two_topic_spec(), spec_path)
        spec_path.write_text(spec_path.read_text().replace("\nspec 20000 13 1\n",
                                                           f"\nspec {10**14} 13 1\n"))
        assert run("sample", spec_path, tmp_path / "out.tsv") == 1
        assert capsys.readouterr().err == (
            f"tagtopics: usage error: n_samples is {10**14}, over the limit of {MAX_SAMPLES}\n")
        assert not (tmp_path / "out.tsv").exists()

    def test_plsa_user_count_over_the_limit_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "plsa.spec"
        model = PlsaModel(tag_given_topic=np.full((2, 4), 0.25),
                          topic_given_resource=np.full((3, 2), 0.5),
                          resource_probs=np.array([0.25, 0.25, 0.5]))
        save_spec(PlantedSpec(model, n_samples=100, seed=1, n_users=3), spec_path)
        spec_path.write_text(spec_path.read_text().replace("\nspec 100 1 3\n",
                                                           f"\nspec 100 1 {10**20}\n"))
        assert run("sample", spec_path, tmp_path / "out.tsv") == 1
        assert capsys.readouterr().err == (
            f"tagtopics: usage error: n_users must be 1 to {2**63 - 1} for plsa, got {10**20}\n")
        assert not (tmp_path / "out.tsv").exists()

    def test_missing_spec_is_data_error(self, tmp_path):
        assert run("sample", tmp_path / "nope.spec", tmp_path / "out.tsv") == 2
