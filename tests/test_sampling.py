import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import oracles
from helpers import named_triples, random_itm_spec
from tagtopics.corpus import write_corpus_tsv
from tagtopics.errors import ConfigError, DataError
from tagtopics.itm import ItmModel
from tagtopics.modelio import MODEL_TYPES
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import (MAX_SAMPLES, PlantedSpec, _count_at_or_below, _draw_rows,
                                load_spec, planted_two_topic_spec, read_spec, sample_corpus,
                                write_spec)
from tagtopics.training import MODEL_KINDS


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


    @pytest.mark.parametrize("change, message", [
        ({"model": object()}, "^unsupported model type object$"),
        ({"n_samples": 0}, "^n_samples must be >= 1$"),
        ({"n_samples": MAX_SAMPLES + 1},
         f"^n_samples is {MAX_SAMPLES + 1}, over the limit of {MAX_SAMPLES}$"),
        ({"n_users": 0}, f"^n_users must be 1 to {2**63 - 1} for plsa, got 0$"),
        ({"n_users": 2**63},
         f"^n_users must be 1 to {2**63 - 1} for plsa, got {2**63}$"),
    ], ids=["model-type", "no-draws", "over-the-limit", "no-users", "too-many-users"])
    def test_spec_checks(self, change, message):
        spec = dataclasses.replace(point_mass_plsa_spec(10), **change)
        with pytest.raises(ConfigError, match=message):
            spec.validate()

    def test_n_users_is_read_only_without_a_user_table(self):
        dataclasses.replace(random_itm_spec(0), n_users=0).validate()

    def test_draw_count_is_checked_before_anything_is_allocated(self):
        point_mass_plsa_spec(MAX_SAMPLES).validate()
        spec = point_mass_plsa_spec(10**14)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^n_samples is {10**14}, over the limit"):
                sample_corpus(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def dirichlet_spec(kind, sizes, table_seed, n_samples, seed, n_users, tag_major):
    """A spec of ``kind`` whose every table row is a random Dirichlet draw; sizes
    are (topics, interests, resources, users, tags).  ``tag_major`` gives itm's
    p(t|i,z) as an [I, K, T] view of [T, I, K] memory."""
    size = dict(zip(("n_topics", "n_interests", "n_resources", "n_users", "n_tags"), sizes))
    rng = np.random.default_rng(table_seed)
    cls = MODEL_TYPES[kind]
    tables = {attr: rng.dirichlet(np.ones(size[dims[-1]]),
                                  size=tuple(size[dim] for dim in dims[:-1]) or None)
              for attr, _, dims in cls.TABLES}
    if kind == "itm" and tag_major:
        table = tables["tag_given_interest_topic"]
        tables["tag_given_interest_topic"] = np.moveaxis(
            np.ascontiguousarray(np.moveaxis(table, 2, 0)), 0, 2)
    return PlantedSpec(cls(**tables), n_samples, seed, n_users)


class TestAncestralDraws:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS), sizes=st.lists(st.integers(1, 5), min_size=5,
                                                              max_size=5),
           table_seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 5), tag_major=st.booleans())
    @example(kind="plsa", sizes=[3, 1, 4, 2, 5], table_seed=1, n_samples=300, seed=2,
             n_users=4, tag_major=False)
    def test_corpus_has_the_bytes_of_the_per_model_draws(self, kind, sizes, table_seed,
                                                         n_samples, seed, n_users, tag_major):
        """Drawing the tables in ``TABLES`` order gives the corpus of the three
        generative processes written out one by one."""
        spec = dirichlet_spec(kind, sizes, table_seed, n_samples, seed, n_users, tag_major)
        got, want = sample_corpus(spec), oracles.sample_corpus(spec)
        for vocab in ("resources", "users", "tags"):
            assert getattr(got, vocab).entries == getattr(want, vocab).entries
        for column in ("r_ids", "u_ids", "t_ids", "counts"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


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


class Uniforms:
    """Stands in for a generator whose one ``random(n)`` call gives ``values``."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        assert n == len(self.values)
        return self.values


@st.composite
def draw_tables(draw):
    """Probability tables of 1 to 50 columns whose rows hold runs of zeros
    (so tied running sums), some with ``k`` equal entries ``1/k`` whose
    running sum ends below 1 (ten entries of 0.1 end at 1 - 2**-53)."""
    width = draw(st.integers(1, 50))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            cells = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=width, max_size=width))
            row = np.array(cells) / max(sum(cells), 1.0)
        else:
            row = np.array(draw(st.lists(
                st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=width, max_size=width)))
            row = row / row.sum() if row.sum() > 0 else row
        if not row.any():
            row[draw(st.integers(0, width - 1))] = 1.0
        rows.append(row)
    return np.array(rows)


class TestDrawSearch:
    @settings(max_examples=200, deadline=None)
    @given(draw_tables(), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @example(np.array([[0.5, 0.5]]), 0, 0)  # no draws
    def test_draws_match_comparison_oracle(self, table, n, seed):
        rows = np.random.default_rng(seed).integers(0, len(table), n)
        got = _draw_rows(np.random.default_rng(seed), table, rows)
        assert got.dtype == np.int64 and got.shape == (n,)
        uniforms = np.random.default_rng(seed).random(n)
        assert got.tolist() == oracles.draw_by_comparison(
            table.tolist(), rows.tolist(), uniforms.tolist())

    @settings(max_examples=200, deadline=None)
    @given(draw_tables(), st.integers(0, 2**32 - 1))
    def test_uniforms_on_and_beside_running_sums(self, table, seed):
        # Every running sum, the floats either side of it, 0 and the largest
        # float below 1, which passes the sum of a row that rounds below it.
        cum = np.cumsum(table, axis=1)
        points = np.concatenate([cum.ravel(), np.nextafter(cum.ravel(), 0.0),
                                 np.nextafter(cum.ravel(), 1.0), [0.0, np.nextafter(1.0, 0.0)]])
        uniforms = np.clip(points, 0.0, np.nextafter(1.0, 0.0))
        rows = np.random.default_rng(seed).integers(0, len(table), len(uniforms))
        assert _count_at_or_below(cum, rows, uniforms).tolist() == [
            np.searchsorted(cum[row], u, side="right") for row, u in zip(rows, uniforms)]
        assert _draw_rows(Uniforms(uniforms), table, rows).tolist() == \
            oracles.draw_by_comparison(table.tolist(), rows.tolist(), uniforms.tolist())

    def test_row_summing_below_one_is_clamped_to_its_last_column(self):
        table = np.array([[0.1] * 10 + [0.0, 0.0]])
        cum = np.cumsum(table, axis=1)
        top = np.nextafter(1.0, 0.0)
        assert cum[0, -1] == top  # the row sums to 1 - 2**-53, so the largest u passes it
        uniforms = np.array([cum[0, 8], top, 0.0])
        rows = np.zeros(3, dtype=np.int64)
        assert _count_at_or_below(cum, rows, uniforms).tolist() == [9, 12, 0]
        assert _draw_rows(Uniforms(uniforms), table, rows).tolist() == [9, 11, 0]


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

    def test_negative_seed_rejected(self):
        buffer = io.StringIO()
        write_spec(planted_two_topic_spec(), buffer)
        text = buffer.getvalue().replace("\nspec 20000 13 1\n", "\nspec 20000 -1 1\n")
        assert text != buffer.getvalue()
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            read_spec(io.StringIO(text))
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            sample_corpus(dataclasses.replace(planted_two_topic_spec(), seed=-1))

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
