import io
import math

import numpy as np
import pytest
from scipy.stats import chi2

import oracles
from helpers import named_triples, random_itm_spec
from tagtopics.corpus import write_corpus_tsv
from tagtopics.errors import ConfigError, DataError
from tagtopics.itm import ItmModel
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import (PlantedSpec, _draw_rows, load_spec,
                                planted_two_topic_spec, read_spec, sample_corpus,
                                write_spec)


def point_mass_plsa_spec(n_samples):
    model = PlsaModel(
        tag_given_topic=np.array([[1.0]]),
        topic_given_resource=np.array([[1.0]]),
        resource_probs=np.array([1.0]),
    )
    return PlantedSpec(model=model, n_samples=n_samples, seed=1, n_users=1)


class TestSampleCorpus:
    def test_point_mass_gives_single_repeated_triple(self):
        corpus = sample_corpus(point_mass_plsa_spec(250))
        assert corpus.num_triples == 1
        assert corpus.total == 250
        assert named_triples(corpus) == {("r0", "u0", "t0"): 250}

    def test_uniform_tags_concentrate_binomially(self):
        n_tags, n_samples = 8, 10_000
        model = ItmModel(
            tag_given_interest_topic=np.full((2, 2, n_tags), 1.0 / n_tags),
            interest_given_user=np.full((3, 2), 0.5),
            topic_given_resource=np.full((4, 2), 0.5),
            user_probs=np.full(3, 1 / 3),
            resource_probs=np.full(4, 0.25),
        )
        corpus = sample_corpus(PlantedSpec(model=model, n_samples=n_samples, seed=5))
        p = 1.0 / n_tags
        sigma = math.sqrt(n_samples * p * (1 - p))
        for t in range(n_tags):
            count = corpus.n_t[corpus.tags.id_of(f"t{t}")]
            assert abs(count - n_samples * p) < 5 * sigma

    def test_disjoint_topic_blocks_have_disjoint_supports(self):
        spec = planted_two_topic_spec()
        corpus = sample_corpus(spec)
        topic_a_tags = {f"t{j}" for j in range(8)}
        for (r_name, _, t_name) in named_triples(corpus):
            planted_topic = 0 if int(r_name[1:]) < 10 else 1
            assert (t_name in topic_a_tags) == (planted_topic == 0)

    def test_empirical_joint_matches_spec_by_chi_square(self):
        spec = random_itm_spec(17, n_resources=4, n_users=4, n_tags=8,
                               n_interests=2, n_topics=2, n_samples=100_000)
        corpus = sample_corpus(spec)
        model = spec.model
        observed = np.zeros((4, 4, 8))
        for (r_name, u_name, t_name), n in named_triples(corpus).items():
            observed[int(r_name[1:]), int(u_name[1:]), int(t_name[1:])] = n
        expected = np.empty_like(observed)
        for r in range(4):
            for u in range(4):
                for t in range(8):
                    expected[r, u, t] = spec.n_samples * oracles.itm_joint(model, r, u, t)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, observed.size - 1)

    def test_deterministic_byte_for_byte(self):
        spec = planted_two_topic_spec()
        first, second = io.StringIO(), io.StringIO()
        write_corpus_tsv(sample_corpus(spec), first)
        write_corpus_tsv(sample_corpus(spec), second)
        assert first.getvalue() == second.getvalue()

    def test_mwa_sampling_covers_all_dimensions(self):
        model = MwaModel(
            topic_probs=np.array([0.5, 0.5]),
            resource_given_topic=np.array([[0.9, 0.1], [0.1, 0.9]]),
            user_given_topic=np.array([[0.5, 0.5], [0.5, 0.5]]),
            tag_given_topic=np.array([[0.8, 0.2, 0.0], [0.0, 0.2, 0.8]]),
        )
        corpus = sample_corpus(PlantedSpec(model=model, n_samples=5000, seed=2))
        assert len(corpus.resources) == 2
        assert len(corpus.users) == 2
        assert len(corpus.tags) == 3

    def test_invalid_spec_rejected(self):
        spec = point_mass_plsa_spec(10)
        spec.model.resource_probs = np.array([0.5])  # no longer sums to 1
        with pytest.raises(DataError):
            sample_corpus(spec)
        with pytest.raises(ConfigError):
            sample_corpus(PlantedSpec(model=point_mass_plsa_spec(1).model,
                                      n_samples=0, seed=0))


class TestDraws:
    @staticmethod
    def sparse_table(rng, n_rows, n_cols):
        """Random rows with about half their entries zero, leading and
        trailing zeros included."""
        table = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.5)
        table[:, 0] = 0.0
        table[:, -1] = 0.0
        table[table.sum(axis=1) == 0.0, 1] = 1.0
        return table / table.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_row_draws_match_comparison_oracle(self, seed):
        rng = np.random.default_rng(seed)
        table = self.sparse_table(rng, 7, 12)
        rows = rng.integers(0, 7, 600)
        got = _draw_rows(np.random.default_rng(seed + 50), table, rows)
        uniforms = np.random.default_rng(seed + 50).random(len(rows))
        assert got.tolist() == oracles.draw_by_comparison(
            table.tolist(), rows.tolist(), uniforms.tolist())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_flat_draws_match_comparison_oracle(self, seed):
        probs = self.sparse_table(np.random.default_rng(seed), 1, 15)[0]
        got = _draw_rows(np.random.default_rng(seed + 50), probs[None],
                         np.zeros(600, dtype=np.int64))
        uniforms = np.random.default_rng(seed + 50).random(600)
        assert got.tolist() == oracles.draw_by_comparison(
            [probs.tolist()], [0] * 600, uniforms.tolist())


class TestSpecIo:
    def test_roundtrip(self):
        spec = planted_two_topic_spec()
        buffer = io.StringIO()
        write_spec(spec, buffer)
        buffer.seek(0)
        again = read_spec(buffer)
        assert (again.n_samples, again.seed, again.n_users) == \
            (spec.n_samples, spec.seed, spec.n_users)
        assert np.array_equal(again.model.tag_given_interest_topic,
                              spec.model.tag_given_interest_topic)
        assert np.array_equal(again.model.topic_given_resource,
                              spec.model.topic_given_resource)

    def test_sampling_from_roundtripped_spec_is_identical(self):
        spec = planted_two_topic_spec()
        buffer = io.StringIO()
        write_spec(spec, buffer)
        buffer.seek(0)
        again = read_spec(buffer)
        assert named_triples(sample_corpus(spec)) == named_triples(sample_corpus(again))

    def test_data_after_the_spec_rejected(self, tmp_path):
        import pathlib
        fixture = pathlib.Path(__file__).parent / "data" / "planted_itm_2x2.spec"
        path = tmp_path / "extra.spec"
        path.write_text(fixture.read_text() + "0.5 0.5\n")
        with pytest.raises(DataError, match="^itm model: data after the last table$"):
            load_spec(path)

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            read_spec(io.StringIO("species 10 1 1\n"))

    def test_checked_in_fixture_matches_generator(self, tmp_path):
        import pathlib
        fixture = pathlib.Path(__file__).parent / "data" / "planted_itm_2x2.spec"
        buffer = io.StringIO()
        write_spec(planted_two_topic_spec(), buffer)
        assert fixture.read_text() == buffer.getvalue()


class TestPlantedFixture:
    def test_shape_and_normalization(self):
        spec = planted_two_topic_spec()
        spec.validate()
        model = spec.model
        assert model.n_interests == 2 and model.n_topics == 2
        assert model.n_resources == 20 and model.n_tags == 16
        assert spec.n_samples == 20_000
        # 10 resources per topic, hard assignments, disjoint tag blocks
        assert (model.topic_given_resource[:10, 0] == 1.0).all()
        assert (model.topic_given_resource[10:, 1] == 1.0).all()
        assert (model.tag_given_interest_topic[:, 0, 8:] == 0.0).all()
        assert (model.tag_given_interest_topic[:, 1, :8] == 0.0).all()
