import contextlib
import dataclasses
import functools
import io
import operator
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import TRAINERS, make_corpus, random_corpus, traced_peak
from tagtopics import train_itm, train_mwa, train_plsa, training
from tagtopics._textio import write_model
from tagtopics.corpus import Corpus, Vocab, merge_rows
from tagtopics.errors import ConfigError, DataError, DegeneracyError
from tagtopics.itm import ItmModel
from tagtopics.modelio import MODEL_TYPES, load_model
from tagtopics.mwa import MwaModel
from tagtopics.sampling import PlantedSpec, planted_two_topic_spec, sample_corpus
from tagtopics.training import (_SLICES, MODEL_KINDS, TrainConfig, em_fit, mapreduce_slices,
                                noisy_uniform_rows, normalize_rows)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()
        TrainConfig(model="itm").validate()

    @pytest.mark.parametrize("kwargs", [
        {"model": "lda"},
        {"topics": 0},
        {"model": "itm", "interests": 0},
        {"tol": 0.0},
        {"tol": -1e-6},
        {"max_iters": 0},
        {"workers": 0},
        pytest.param({"max_table_bytes": 0}, id="max_table_bytes_zero"),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("name", ["topics", "interests", "max_iters", "seed", "workers",
                                      "max_table_bytes"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True, "3", None])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            TrainConfig(model="itm", **{name: value}).validate()

    @pytest.mark.parametrize("name", ["topics", "interests", "max_iters", "seed", "workers",
                                      "max_table_bytes"])
    def test_numpy_integers_accepted(self, name):
        TrainConfig(model="itm", **{name: np.int64(3)}).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(seed=-1).validate()
        TrainConfig(seed=0).validate()

    @pytest.mark.parametrize("tol", ["1e-6", True, float("inf"), float("nan"), None, 1j])
    def test_tol_must_be_a_finite_positive_real(self, tol):
        with pytest.raises(ConfigError, match="tol must be"):
            TrainConfig(tol=tol).validate()

    @pytest.mark.parametrize("tol", [1e-6, 1, np.float32(1e-3), np.float64(1e-8), np.int64(2)])
    def test_real_tol_accepted(self, tol):
        TrainConfig(tol=tol).validate()

    def test_interests_ignored_for_non_itm(self):
        TrainConfig(model="plsa", interests=0).validate()

    @pytest.mark.parametrize("trainer,model", [
        (train_plsa, "itm"), (train_mwa, "plsa"), (train_itm, "mwa")])
    def test_trainer_rejects_config_for_another_model(self, trainer, model, toy_corpus):
        with pytest.raises(ConfigError, match=f"config is for model '{model}'"):
            trainer(toy_corpus, TrainConfig(model=model, topics=2, interests=2, max_iters=1))


def test_noisy_uniform_rows_are_distributions():
    rng = np.random.default_rng(0)
    rows = noisy_uniform_rows(rng, 50, 7)
    assert (rows > 0).all()
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    # noise is small: every entry stays within 10% of uniform
    assert np.abs(rows - 1.0 / 7).max() < 0.1 / 7

    again = noisy_uniform_rows(np.random.default_rng(0), 50, 7)
    assert np.array_equal(rows, again)


def test_normalize_rows_gives_an_all_zero_row_the_uniform_distribution():
    counts = np.array([[1.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    rows = normalize_rows(counts)
    assert rows is counts  # divided in place
    assert rows.tolist() == [[0.25, 0.75, 0.0], [1 / 3, 1 / 3, 1 / 3]]


@pytest.mark.parametrize("counts, what", [
    (np.ones((2, 3), dtype=np.int64), "writeable int64"),
    (np.ones((2, 3), dtype=np.float32), "writeable float32"),
    (np.broadcast_to(np.ones(3), (2, 3)), "read-only float64"),
], ids=["int64", "float32", "read-only"])
def test_normalize_rows_rejects_an_array_it_cannot_divide_in_place(counts, what):
    before = counts.copy()
    with pytest.raises(ValueError, match=f"in place; got a {what} array$"):
        normalize_rows(counts)
    assert np.array_equal(counts, before)


class FakeModel:
    """A stand-in for :class:`training.Model` with only what ``mapreduce_slices`` calls.
    Its statistics are ``statistics``' zero arrays, the "r"-keyed one over its band alone,
    and each allocation is recorded; ``step(chunk, n, stats, lo, **plan)`` is its E-step,
    and ``log_terms`` gives back the totals that ``step`` returns."""

    band = "r"

    def __init__(self, chunk_rows, step, statistics=(("r", ()),), n_resources=12):
        self.chunk_rows, self.step, self.stats = chunk_rows, step, list(statistics)
        self.n_resources = n_resources  # the rows of the band statistic's total
        self.zeros, self.copies = [], {"tag_given_topic": np.ones((1, 1))}

    def statistics(self):
        return self.stats

    def zero_stats(self, lo, hi):
        self.zeros.append((lo, hi, [np.zeros(((hi - lo,) if col == "r" else ()) + latent)
                                    for col, latent in self.stats]))
        return self.zeros[-1][2]

    def transposed_tables(self):
        return self.copies

    def chunk_plan(self, ids):
        # One plan entry per row: the pass looks up each chunk's by its first row.
        return {"logs": "once per pass"}, {a: {"first": a} for a in range(len(ids["r"]))}

    def e_step(self, chunk, n, stats, lo, **kwargs):
        assert kwargs.pop("tag_given_topic") is self.copies["tag_given_topic"]
        return self.step(chunk, n, stats, lo, **kwargs)

    def log_terms(self, totals, chunk, logs):
        assert logs == "once per pass"
        return totals


@pytest.mark.parametrize("n, chunk_rows, edges", [
    # Every slice spans several chunks; 2 divides none of the 5- and 6-row slices.
    (43, 2, [0, 5, 10, 16, 21, 26, 32, 37, 43]),
    # n < _SLICES: the empty slices are dropped, not walked.
    (5, 3, [0, 1, 2, 3, 4, 5]),
], ids=["several_chunks_per_slice", "fewer_rows_than_slices"])
def test_mapreduce_slices_walks_each_slice_in_chunks(n, chunk_rows, edges):
    assert _SLICES == 8
    rows = np.arange(n)
    chunks = []

    def step(chunk, counts, stats, lo, first):
        assert chunk.keys() == {"r", "t"}
        assert chunk["r"].tolist() == chunk["t"].tolist() == counts.tolist()
        assert first == counts[0]  # the chunk's part of the plan, by its first row
        chunks.append((int(counts[0]), int(counts[-1]) + 1))
        if stats is None:  # an L-only pass sums no band
            assert lo == 0
        else:
            assert lo == edges[sum(e <= first for e in edges) - 1]  # its slice's least key
            stats[0][chunk["r"] - lo] += counts
        return np.ones(len(counts))

    model = FakeModel(chunk_rows, step, n_resources=n)
    stats, ll = mapreduce_slices(model, {"r": rows, "t": rows.copy()}, rows, fused=True)
    assert chunks == [(a, min(a + chunk_rows, hi))
                      for lo, hi in zip(edges, edges[1:]) for a in range(lo, hi, chunk_rows)]
    # One zero_stats() for the total, then one per slice walked, over the slice's band.
    assert [(lo, hi) for lo, hi, _ in model.zeros] == [(0, n), *zip(edges, edges[1:])]
    assert stats[0] is model.zeros[0][2][0]  # added into the total
    assert stats[0].tolist() == rows.tolist() and ll.tolist() == rows.sum()
    walked, chunks[:], model.zeros[:] = chunks[:], [], []
    assert mapreduce_slices(model, {"r": rows, "t": rows.copy()}, rows, fused=False) == ([], ll)
    assert chunks == walked and not model.zeros  # the same chunks, and no statistics


# One value per slice; their float sum depends on the order of addition.
ORDER_SENSITIVE = [1.0, 1e16, 1.0, -1e16, 1.0, 1.0, 1e16, -1e16]


@pytest.mark.parametrize("threads", [None, 2, 3, 9])
def test_mapreduce_slices_adds_in_slice_order(threads):
    values = ORDER_SENSITIVE
    fold = functools.reduce(operator.add, values)
    assert fold != functools.reduce(operator.add, values[::-1])  # 2.0 against 5.0

    def step(chunk, counts, stats, lo, first):
        row = int(chunk["r"][0])
        time.sleep(0.002 * (len(values) - row))  # later slices finish first
        stats[0][0] += values[row]
        stats[1] += [-values[row], 2.0 * values[row]]
        return np.array([values[row]])

    assert len(values) == _SLICES
    rows = np.arange(len(values))
    model = FakeModel(1, step, [("r", ()), (None, (2,))])
    with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
        stats, ll = mapreduce_slices(model, {"r": rows}, np.ones(len(rows)), True, pool)
    assert ll.tolist() == fold
    assert stats[0].tolist() == [*values, *[0.0] * 4]  # one row per key
    assert stats[1].tolist() == [functools.reduce(operator.add, [-v for v in values]),
                                 functools.reduce(operator.add, [2.0 * v for v in values])]


@pytest.mark.parametrize("threads", [None, 2, 3])
def test_mapreduce_slices_adds_each_band_at_its_offset(threads):
    # 16 rows, two per slice; the keys are not sorted, so a slice's first and last
    # keys are not its band.  Keys 3 and 5 recur across slices, so their bands
    # overlap, and 11 (of a 12-row table) and 0 have no rows.
    keys = np.array([4, 3, 3, 6, 5, 2, 3, 5, 9, 1, 5, 3, 8, 10, 7, 5])
    values = np.array([1.0, 1e16, 1.0, 2.0, -1e16, 3.0, 1.0, 1.0, 4.0, 5.0, 1e16, -1e16,
                       6.0, 7.0, -1e16, 8.0])

    def step(chunk, counts, stats, lo, first):
        row = int(chunk["i"][0])
        time.sleep(0.002 * (len(keys) - row))  # later slices finish first
        stats[0][keys[row] - lo] += [values[row], -values[row]]
        return np.array([values[row]])

    rows = np.arange(len(keys))
    model = FakeModel(1, step, [("r", (2,))])
    with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
        (stat,), ll = mapreduce_slices(model, {"i": rows, "r": keys}, np.ones(len(rows)),
                                       True, pool)
    pairs = keys.reshape(_SLICES, 2)
    bands = [(lo, hi) for lo, hi, _ in model.zeros]
    assert bands[0] == (0, 12)  # the total
    assert sorted(bands[1:]) == sorted((int(p.min()), int(p.max()) + 1) for p in pairs)
    # Whole 12-row slice sums, added in slice order, as before bands.
    whole = []
    for pair, vals in zip(pairs, values.reshape(_SLICES, 2)):
        part = np.zeros((12, 2))
        for key, value in zip(pair, vals):
            part[key] += [value, -value]
        whole.append(part)
    expected = functools.reduce(operator.add, whole)
    assert stat.tobytes() == expected.tobytes()
    assert not stat[[0, 11]].any()
    assert ll.tobytes() == np.array(functools.reduce(
        operator.add, [v0 + v1 for v0, v1 in values.reshape(_SLICES, 2)])).tobytes()


class TestAddRows:
    """Even widths on 16-byte aligned views are added as complex128 pairs, the rest as
    float64 values; both paths give the bits of ``np.add.at``."""

    @staticmethod
    def draw(seed, rows, n, width):
        """A non-zero start, as a slice's later chunks see it; repeated, unsorted ids;
        values over 16 decades, so any other summation order changes the bits."""
        rng = np.random.default_rng(seed)
        start = rng.standard_normal((rows, width)) * 1e3
        ids = rng.integers(0, rows, n)
        values = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
        return start, ids, values

    @staticmethod
    def misaligned(array):
        """A copy of ``array`` whose data starts 8 bytes past a 16-byte boundary."""
        buffer = np.empty(array.size + 2)
        offset = 1 if buffer.ctypes.data % 16 == 0 else 2
        copy = buffer[offset:offset + array.size].reshape(array.shape)
        copy[...] = array
        assert copy.ctypes.data % 16 == 8 and copy.flags.c_contiguous
        return copy

    @pytest.mark.parametrize("width", [1, 3, 10, 40])
    @pytest.mark.parametrize("n", [0, 1, 700])
    def test_has_the_bits_of_np_add_at(self, width, n):
        start, ids, values = self.draw(1000 * width + n, 50, n, width)
        expected, table = start.copy(), start.copy()
        np.add.at(expected, ids, values)
        training.add_rows(table, ids, values)
        assert np.array_equal(table.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("lo", [1, 7])
    def test_a_band_sliced_at_an_odd_row_of_an_odd_width_has_the_bits_of_np_add_at(self, lo):
        start, ids, values = self.draw(lo, 60, 500, 3)
        expected, big = start.copy(), start.copy()
        table = big[lo:lo + 40]  # 24 bytes a row: the band starts 8 bytes off a boundary
        assert table.ctypes.data % 16 == 8 and table.flags.c_contiguous
        ids %= 40
        np.add.at(expected[lo:lo + 40], ids, values)
        training.add_rows(table, ids, values)
        assert np.array_equal(big.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("width", [2, 40])
    @pytest.mark.parametrize("copy", ["table", "values", "both"])
    def test_aligned_and_misaligned_views_give_the_same_bytes(self, width, copy):
        """The same sums through the complex128 path and, with the table, the values or
        both copied to an address 8 bytes off a 16-byte boundary, the float64 path."""
        start, ids, values = self.draw(width, 50, 700, width)
        aligned = start.copy()
        assert aligned.ctypes.data % 16 == 0 and values.ctypes.data % 16 == 0
        training.add_rows(aligned, ids, values)
        table = self.misaligned(start) if copy != "values" else start.copy()
        training.add_rows(table, ids, self.misaligned(values) if copy != "table" else values)
        assert table.tobytes() == aligned.tobytes()
        expected = start.copy()
        np.add.at(expected, ids, values)
        assert aligned.tobytes() == expected.tobytes()

    def test_non_contiguous_table_raises(self):
        table = np.zeros((40, 7)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            training.add_rows(table, np.array([0, 3, 0]), np.ones((3, 40)))


def walked_log_likelihood(model, corpus, chunk_rows, slices=_SLICES, chunk_totals=None):
    """sum of n log p(row) by plain loops: ``slices`` slices, each summed from
    zero in ``chunk_rows`` chunks, the slice sums added in slice order.  A
    chunk's mixture totals come from ``chunk_totals(chunk)``, by default the
    sums of its ``mixture``."""
    ids, counts = model.rows(corpus)
    edges = [len(counts) * i // slices for i in range(slices + 1)]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part = 0.0
        for a in range(lo, hi, chunk_rows):
            b = min(a + chunk_rows, hi)
            chunk = {name: col[a:b] for name, col in ids.items()}
            mix = (chunk_totals(chunk) if chunk_totals else
                   model.mixture(*chunk.values()).sum(axis=1))
            part += float((counts[a:b] * model.log_terms(mix, chunk)).sum())
        total += part
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3, st.integers(1, 9)), max_size=30)
       .map(lambda extra: [(0, 0, 0, 1), (0, 1, 0, 2), *extra]), st.randoms())
def test_rows_are_the_rows_each_class_spelled_out(records, random):
    """The first two records give one (r, t) pair two users; tags tie across resources."""
    random.shuffle(records)
    corpus = make_corpus(f"r{r}\tu{u}\tt{t}\t{n}" for r, u, t, n in records)
    for kind, cls in MODEL_TYPES.items():
        ids, counts = cls.rows(corpus)
        want_ids, want_counts = oracles.ROWS[kind](corpus)
        assert list(ids) == list(want_ids)
        got, want = [*ids.values(), counts], [*want_ids.values(), want_counts]
        assert [(col.dtype, col.tobytes()) for col in got] == \
            [(col.dtype, col.tobytes()) for col in want]
        if cls.band == "r":  # already in order: the rows are the corpus's own arrays
            assert all(col is old for col, old in zip(got, want))


@pytest.mark.parametrize("n_tags, key", [(256, np.uint8), (257, np.uint16),
                                          (65536, np.uint16), (65537, np.uint32)])
def test_rows_sorted_on_the_least_key_type_are_the_int64_stable_sort(n_tags, key):
    """``Model.rows`` sorts by tag ids cast to the least type that holds them, which
    numpy sorts by radix up to 16 bits: at each edge of the key types, the rows of a
    stable int64 argsort.  Every tag has a row, and 3,000 more rows hold the 40 least
    and the 40 greatest ids, so that many rows tie."""
    assert np.min_scalar_type(n_tags - 1) == key
    rng = np.random.default_rng(n_tags)
    extra = 3000
    (r, u, t), counts = merge_rows(
        (np.r_[np.arange(n_tags) % 7, rng.integers(0, 7, extra)],
         np.r_[np.arange(n_tags) % 5, rng.integers(0, 5, extra)],
         np.r_[rng.permutation(n_tags), rng.integers(n_tags - 40, n_tags, extra // 2),
               rng.integers(0, 40, extra - extra // 2)]),
        rng.integers(1, 9, n_tags + extra))
    corpus = Corpus(Vocab(map(str, range(7))), Vocab(map(str, range(5))),
                    Vocab(map(str, range(n_tags))), r, u, t, counts)
    ids, got_counts = ItmModel.rows(corpus)
    want_ids, want_counts = oracles.ROWS["itm"](corpus)
    assert [(col.dtype, col.tobytes()) for col in (*ids.values(), got_counts)] == \
        [(col.dtype, col.tobytes()) for col in (*want_ids.values(), want_counts)]


def order_sensitive_corpus(rng):
    r, u, t = np.unravel_index(rng.choice(20 * 10 * 5, size=600, replace=False), (20, 10, 5))
    vocab = [Vocab(map(str, range(n))) for n in (20, 10, 5)]
    return Corpus(*vocab, r, u, t, rng.integers(1, 1000, size=600))


class SmallChunkMwa(MwaModel):
    chunk_rows = 16


def test_log_likelihood_sums_the_e_steps_chunks_and_slices():
    # A seed whose sums depend on the order: the last two asserts check that.
    rng = np.random.default_rng(3)
    corpus = order_sensitive_corpus(rng)
    model = SmallChunkMwa(topic_probs=rng.dirichlet(np.ones(128)),
                          resource_given_topic=rng.dirichlet(np.ones(20), size=128),
                          user_given_topic=rng.dirichlet(np.ones(10), size=128),
                          tag_given_topic=rng.dirichlet(np.ones(5), size=128))
    assert model.chunk_rows == 16  # about 5 chunks per 75-row slice
    got = model.log_likelihood(corpus)
    assert got.hex() == walked_log_likelihood(model, corpus, 16).hex()
    # The order matters: one chunk per slice, or chunks without slices, differ.
    assert got.hex() != walked_log_likelihood(model, corpus, 600).hex()
    assert got.hex() != walked_log_likelihood(model, corpus, 16, slices=1).hex()


def tag_run_totals(model):
    """A chunk's itm mixture totals by a plain loop over its runs of equal
    tags: per run, rows p(i|u) (p(z|r) p(t|i,z)^T) summed over i."""
    tag_rows = np.moveaxis(model.tag_given_interest_topic, 2, 0)

    def totals(chunk):
        parts = []
        tt = chunk["t"].tolist()
        lo = 0
        for hi in range(1, len(tt) + 1):
            if hi == len(tt) or tt[hi] != tt[lo]:
                a = model.interest_given_user[chunk["u"][lo:hi]]
                b = model.topic_given_resource[chunk["r"][lo:hi]]
                parts.append((a * (b @ np.ascontiguousarray(tag_rows[tt[lo]]).T)).sum(axis=1))
                lo = hi
        return np.concatenate(parts)
    return totals


def test_itm_log_likelihood_sums_tag_runs_in_chunks_and_slices():
    rng = np.random.default_rng(2)
    corpus = order_sensitive_corpus(rng)
    model = ItmModel(user_probs=corpus.n_u / corpus.total,
                     resource_probs=corpus.n_r / corpus.total,
                     interest_given_user=rng.dirichlet(np.ones(128), size=10),
                     topic_given_resource=rng.dirichlet(np.ones(128), size=20),
                     tag_given_interest_topic=rng.dirichlet(np.ones(5), size=(128, 128)))
    assert model.chunk_rows == 16  # about 5 chunks per 75-row slice
    ids, _ = model.rows(corpus)
    assert np.lexsort((ids["u"], ids["r"], ids["t"])).tolist() == list(range(600))
    totals = tag_run_totals(model)
    got = model.log_likelihood(corpus)
    assert got.hex() == walked_log_likelihood(model, corpus, 16, chunk_totals=totals).hex()
    # The order matters: one chunk per slice, or chunks without slices, differ.
    assert got.hex() != walked_log_likelihood(model, corpus, 600, chunk_totals=totals).hex()
    assert got.hex() != walked_log_likelihood(model, corpus, 16, slices=1,
                                              chunk_totals=totals).hex()


POSTERIOR_IDS = {"hand_plsa_model": ("resource", "tag"),
                 "hand_mwa_model": ("resource", "user", "tag"),
                 "hand_itm_model": ("resource", "user", "tag")}


@pytest.mark.parametrize("fixture", POSTERIOR_IDS)
def test_posterior_rejects_ids_outside_the_vocabulary(fixture, request):
    model = request.getfixturevalue(fixture)
    names = POSTERIOR_IDS[fixture]
    assert model.posterior(*[0] * len(names)).sum() == pytest.approx(1.0)
    for position, name in enumerate(names):
        n = getattr(model, f"n_{name}s")
        for bad in (-1, n):
            ids = [0] * len(names)
            ids[position] = bad
            with pytest.raises(DataError, match=rf"unknown {name} id {bad}; expected 0 to {n - 1}$"):
                model.posterior(*ids)
    n = model.n_resources
    assert model.topic_distribution(n - 1).probs.sum() == pytest.approx(1.0)
    for bad in (-1, n):
        with pytest.raises(DataError, match=rf"^unknown resource id {bad}; expected 0 to {n - 1}$"):
            model.topic_distribution(bad)
    # Ids must be integers: a float, a bool or a digit string is no id.
    for bad in (1.5, True, "1"):
        for position, name in enumerate(names):
            ids = [0] * len(names)
            ids[position] = bad
            with pytest.raises(DataError, match=rf"^{name} id must be an integer, got {bad!r}$"):
                model.posterior(*ids)
        with pytest.raises(DataError, match=rf"^resource id must be an integer, got {bad!r}$"):
            model.topic_distribution(bad)
    # numpy integers are ids.
    assert model.posterior(*[np.int64(0)] * len(names)).tobytes() == \
        model.posterior(*[0] * len(names)).tobytes()
    assert model.topic_distribution(np.int32(n - 1)).probs.tobytes() == \
        model.topic_distribution(n - 1).probs.tobytes()


@pytest.mark.parametrize("fixture", POSTERIOR_IDS)
def test_posterior_takes_exactly_the_models_ids(fixture, request):
    """A wrong number of ids raises, where ``zip`` would drop an extra one."""
    model = request.getfixturevalue(fixture)
    names = POSTERIOR_IDS[fixture]
    cols = ", ".join(name[0] for name in names)
    for count in (0, len(names) - 1, len(names) + 1):
        with pytest.raises(TypeError,
                           match=rf"\.posterior takes the ids \({cols}\), got {count} ids$"):
            model.posterior(*[0] * count)


@pytest.mark.parametrize("kind", TRAINERS)
def test_topic_distributions_rows_are_topic_distribution_bytes(kind):
    """K=17 sums past the 8-wide unrolled pairwise block, as at ranking scale."""
    corpus = random_corpus(5, n_resources=12, n_tags=20)
    model, _ = TRAINERS[kind](corpus, TrainConfig(model=kind, topics=17, interests=2,
                                                  max_iters=3, seed=2))
    matrix = model.topic_distributions()
    assert matrix.shape == (model.n_resources, model.n_topics)
    assert matrix.flags.c_contiguous
    for r in range(model.n_resources):
        assert matrix[r].tobytes() == model.topic_distribution(r).probs.tobytes()


def test_mwa_inversion_keeps_the_bits_of_one_vector_at_a_time():
    rng = np.random.default_rng(8)
    topic_probs, resource_given_topic = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(30), 40)
    model = MwaModel(topic_probs=topic_probs, resource_given_topic=resource_given_topic,
                     user_given_topic=np.ones((40, 1)), tag_given_topic=np.ones((40, 1)))
    matrix = model.topic_distributions()
    for r in range(30):
        weights = topic_probs * resource_given_topic[:, r]
        assert matrix[r].tobytes() == (weights / weights.sum()).tobytes()


def test_mwa_topic_distributions_name_the_first_resource_without_support():
    model = MwaModel(topic_probs=np.array([1.0]),
                     resource_given_topic=np.array([[1.0, 0.0, 0.0]]),
                     user_given_topic=np.array([[1.0]]), tag_given_topic=np.array([[1.0]]))
    with pytest.raises(DegeneracyError, match="^resource 1 has no support$"):
        model.topic_distributions()
    with pytest.raises(DegeneracyError, match="^resource 2 has no support$"):
        model.topic_distribution(2)
    assert model.topic_distribution(0).probs.tolist() == [1.0]


class ScriptedEM:
    """A model stand-in for ``em_fit`` whose data passes replay a list of
    log-likelihoods through a patched ``training.mapreduce_slices``: ``passes``
    holds each fused pass's statistics (a fresh object), ``updates`` what
    ``m_step`` received, and ``ll_calls`` counts the log-likelihood-only passes."""

    def __init__(self, lls, monkeypatch):
        self.lls = iter(lls)
        self.passes, self.updates, self.ll_calls = [], [], 0
        self.rows, self.plan = ({"r": np.arange(3)}, np.ones(3)), object()
        monkeypatch.setattr(training, "mapreduce_slices", self.mapreduce_slices)

    def mapreduce_slices(self, model, ids, counts, fused, executor=None, plan=None):
        assert model is self and plan is self.plan
        assert ids is self.rows[0] and counts is self.rows[1]
        if not fused:
            self.ll_calls += 1
            return [], next(self.lls)
        self.passes.append(object())
        return self.passes[-1], next(self.lls)

    def m_step(self, stats):
        self.updates.append(stats)

    def fit(self, hook=None, **cfg):
        return em_fit(self, *self.rows, self.plan, TrainConfig(**cfg), hook=hook)


def test_em_fit_stops_on_plateau(monkeypatch):
    em = ScriptedEM([-10.0, -5.0, -5.0], monkeypatch)
    seen = []
    log = em.fit(hook=lambda model, i, ll: seen.append((model, i, ll)), tol=1e-6, max_iters=50)
    assert log.log_likelihoods == [-10.0, -5.0, -5.0]
    assert log.converged
    assert log.iterations == 2
    assert seen == [(em, 1, -5.0), (em, 2, -5.0)]


def test_em_fit_respects_max_iters(monkeypatch):
    em = ScriptedEM([-100.0 + i for i in range(100)], monkeypatch)
    seen = []
    log = em.fit(hook=lambda model, i, ll: seen.append((model, i, ll)), tol=1e-12, max_iters=5)
    assert not log.converged
    assert log.iterations == 5
    assert log.log_likelihoods == [-100.0, -99.0, -98.0, -97.0, -96.0, -95.0]
    assert seen == [(em, i, -100.0 + i) for i in range(1, 6)]


@pytest.mark.parametrize("max_iters", [1, 2, 5])
def test_em_fit_to_max_iters_makes_k_passes_and_one_ll_pass(max_iters, monkeypatch):
    em = ScriptedEM([-100.0 + i for i in range(100)], monkeypatch)
    em.fit(tol=1e-12, max_iters=max_iters)
    assert len(em.passes) == max_iters
    assert em.ll_calls == 1
    assert len(em.updates) == max_iters


@pytest.mark.parametrize("converge_at", [1, 2, 4])
def test_em_fit_converging_at_j_makes_j_plus_one_passes_and_no_ll_pass(converge_at,
                                                                       monkeypatch):
    lls = [-100.0 + i for i in range(converge_at)] + [-100.0 + converge_at - 1]
    em = ScriptedEM(lls, monkeypatch)
    log = em.fit(tol=1e-6, max_iters=50)
    assert log.converged and log.iterations == converge_at
    assert len(em.passes) == converge_at + 1
    assert em.ll_calls == 0
    assert len(em.updates) == converge_at  # the last pass's statistics are dropped


def test_em_fit_updates_with_the_statistics_of_the_pass_before(monkeypatch):
    em = ScriptedEM([-100.0 + i for i in range(100)], monkeypatch)
    em.fit(tol=1e-12, max_iters=4)
    assert len(em.updates) == len(em.passes) == 4
    assert all(got is made for got, made in zip(em.updates, em.passes))


@pytest.mark.parametrize("lls, max_iters, message", [
    ([float("nan")], 5, "log-likelihood is nan after iteration 0"),
    ([float("-inf")], 5, "log-likelihood is -inf after iteration 0"),
    ([-10.0, -9.0, -8.0, float("-inf")], 3, "log-likelihood is -inf after iteration 3"),
], ids=["nan_first", "minus_inf_first", "minus_inf_last"])
def test_em_fit_rejects_a_non_finite_log_likelihood(lls, max_iters, message, monkeypatch):
    em = ScriptedEM(lls, monkeypatch)
    with pytest.raises(DegeneracyError, match=f"^{message}$"):
        em.fit(tol=1e-12, max_iters=max_iters)
    assert len(em.updates) == len(lls) - 1  # no update from a non-finite pass


def test_shared_map_yields_in_order_and_the_caller_computes_what_no_thread_began():
    items, calls, caller = list(range(_SLICES)), [], threading.get_ident()

    def fn(item):
        time.sleep(0.002 * (len(items) - item))  # later items finish first
        calls.append((item, threading.get_ident()))
        return -item

    with ThreadPoolExecutor(1) as pool:
        assert list(training.shared_map(pool, fn, items)) == [-item for item in items]
    assert sorted(item for item, _ in calls) == items  # each item once
    assert len({thread for _, thread in calls}) == 2  # the pool's one thread and the caller
    assert any(thread == caller for _, thread in calls)


def test_shared_map_begins_no_item_after_an_error():
    release, calls, caller = threading.Event(), [], threading.get_ident()

    def fn(item):
        if threading.get_ident() == caller:
            raise DegeneracyError(f"item {item}")
        release.wait()  # the pool's one thread holds its first item until the error is out
        calls.append(item)

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(DegeneracyError, match="^item [01]$"):
            list(training.shared_map(pool, fn, list(range(_SLICES))))
        release.set()
    assert len(calls) <= 1  # the item the thread had begun, if any


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_em_run_to_max_iters_walks_the_data_max_iters_plus_one_times(
        kind, workers, toy_corpus, monkeypatch):
    """Every pass walks train's one plan, and its one pool if it makes one: of
    ``workers - 1`` threads, as the caller computes too, and none for itm."""
    cls, plans, pools, passes = MODEL_TYPES[kind], [], [], []
    chunk_plan = cls.chunk_plan

    def planning(model, ids):
        plans.append(chunk_plan(model, ids))
        return plans[-1]

    class Pool(ThreadPoolExecutor):
        def __init__(self, threads):
            super().__init__(threads)
            self.threads = threads
            pools.append(self)

    def counting(model, ids, counts, fused, executor=None, plan=None):
        passes.append((fused, plan, executor))
        return mapreduce_slices(model, ids, counts, fused, executor, plan)

    def log_likelihood(model, corpus):
        raise AssertionError("train walks its last pass itself")

    monkeypatch.setattr(cls, "chunk_plan", planning)
    monkeypatch.setattr(training, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(training, "mapreduce_slices", counting)
    monkeypatch.setattr(training, "log_likelihood", log_likelihood)
    cfg = TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=4,
                      workers=workers)
    _, log = TRAINERS[kind](toy_corpus, cfg)
    assert log.iterations == 4 and not log.converged
    assert len(plans) == 1
    assert [pool.threads for pool in pools] == ([workers - 1] if workers > 1 and kind != "itm"
                                                else [])
    pool = pools[0] if pools else None
    # k fused passes, then one LL-only pass, all on train's one plan and pool
    assert [fused for fused, _, _ in passes] == [True] * cfg.max_iters + [False]
    assert all(plan is plans[0] and executor is pool for _, plan, executor in passes)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_iteration_hook_sees_the_parameters_its_log_likelihood_belongs_to(
        kind, workers, toy_corpus):
    seen = []

    def hook(model, iteration, ll):
        seen.append(iteration)
        assert model.log_likelihood(toy_corpus).hex() == ll.hex()

    cfg = TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=4,
                      workers=workers)
    _, log = TRAINERS[kind](toy_corpus, cfg, iteration_hook=hook)
    assert seen == [1, 2, 3, 4]
    assert log.iterations == 4


@functools.cache
def scaling_corpus():
    """About 3,400 distinct triples: every kind's rows fill all the slices, and itm's
    chunks hold many tag runs."""
    return random_corpus(41, n_resources=60, n_users=25, n_tags=40, n_topics=4,
                         n_samples=4000)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_counts_times_a_power_of_two_train_the_same_tables_and_scale_each_ll(kind, workers):
    """Every count times 2**k scales every statistic and log-likelihood term by 2**k
    exactly, and normalisation cancels it: the same table bytes, and each LL entry
    exactly 2**k times as large.  This holds under any BLAS kernel, so it guards the
    EM arithmetic (itm's dgemm products among it) where the pins cannot."""
    corpus = scaling_corpus()
    cfg = TrainConfig(model=kind, topics=4, interests=3, tol=1e-12, max_iters=12, seed=5,
                      workers=workers)
    model, log = TRAINERS[kind](corpus, cfg)
    for k in (1, 3):
        scaled = Corpus(corpus.resources, corpus.users, corpus.tags, corpus.r_ids,
                        corpus.u_ids, corpus.t_ids, corpus.counts * 2**k)
        again, again_log = TRAINERS[kind](scaled, cfg)
        assert [ll.hex() for ll in again_log.log_likelihoods] == \
            [(2**k * ll).hex() for ll in log.log_likelihoods]
        assert [getattr(again, attr).tobytes() for attr, _, _ in again.TABLES] == \
            [getattr(model, attr).tobytes() for attr, _, _ in model.TABLES]


def initial_model(kind, corpus):
    """The seeded start of ``kind`` at K=3 topics and I=2 interests."""
    cfg = TrainConfig(model=kind, topics=3, interests=2)
    return MODEL_TYPES[kind].initial(corpus, cfg, np.random.default_rng(0))


@functools.cache
def start_corpus(seed):
    return random_corpus(seed, n_resources=7, n_users=4, n_tags=9)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(MODEL_KINDS), topics=st.integers(1, 5), interests=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), corpus_seed=st.integers(0, 2))
def test_initial_has_the_bytes_of_each_models_own_start(kind, topics, interests, seed,
                                                        corpus_seed):
    """``Model.initial``, derived from ``TABLES``, gives every table the bytes of the
    per-model start it replaced, C-contiguous."""
    corpus = start_corpus(corpus_seed)
    cfg = TrainConfig(model=kind, topics=topics, interests=interests, seed=seed)
    cls = MODEL_TYPES[kind]
    got = cls.initial(corpus, cfg, np.random.default_rng(seed))
    want = oracles.INITIAL[kind](cls, corpus, cfg, np.random.default_rng(seed))
    assert got.seed == want.seed == seed
    for attr, _, _ in cls.TABLES:
        table, expected = getattr(got, attr), getattr(want, attr)
        assert table.shape == expected.shape
        assert table.flags.c_contiguous
        assert table.tobytes() == expected.tobytes()


class TestLayout:
    """Every table of every model is a C-contiguous float64 array, and no layout or
    integer dtype of the arrays a model is built from or assigned changes a bit of its
    results."""

    @staticmethod
    def saved(model):
        buffer = io.StringIO()
        write_model(model, buffer)
        return buffer.getvalue()

    @staticmethod
    def tables(model):
        return {attr: getattr(model, attr) for attr, _, _ in model.TABLES}

    @staticmethod
    def view(table):
        """``table`` as int64 if its values are whole numbers, else as a strided view."""
        if (table == np.round(table)).all():
            return table.astype(np.int64)
        return np.stack([table, table], axis=-1)[..., 0]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_table_is_c_contiguous_float64_whatever_it_was_built_from(self, kind,
                                                                             tmp_path):
        corpus = random_corpus(4, n_resources=30, n_users=12, n_tags=40, n_samples=3000)
        # At one topic and one interest p(z|r), p(z) and p(i|u) hold only ones.
        for topics, interests in ((5, 3), (1, 1)):
            config = TrainConfig(model=kind, topics=topics, interests=interests, max_iters=4,
                                 seed=2)
            start = MODEL_TYPES[kind].initial(corpus, config, np.random.default_rng(2))
            model, log = TRAINERS[kind](corpus, config)
            model.save(tmp_path / "model")
            loaded = load_model(tmp_path / "model")
            for built in (start, model, loaded):
                for table in self.tables(built).values():
                    assert table.dtype == np.float64 and table.flags.c_contiguous
            for attr, table in self.tables(model).items():
                assert np.array_equal(getattr(loaded, attr), table)
            assert loaded.log_likelihood(corpus) == model.log_likelihood(corpus)
            assert model.log_likelihood(corpus) == log.final_log_likelihood

            same = type(model)(**self.tables(model), seed=model.seed)
            assert all(getattr(same, attr) is table for attr, table in self.tables(model).items())
            views = {attr: self.view(table) for attr, table in self.tables(model).items()}
            assert any(view.dtype == np.int64 for view in views.values()) == (topics == 1)
            assert not any(view.flags.c_contiguous for view in views.values()
                           if view.dtype == np.float64)
            rebuilt = type(model)(**views, seed=model.seed)
            for attr, view in views.items():  # assigned, each table is converted too
                setattr(same, attr, view)
            for built in (rebuilt, same):
                for attr, table in self.tables(built).items():
                    assert table.dtype == np.float64 and table.flags.c_contiguous
                    assert table.tobytes() == getattr(model, attr).tobytes()
            ids, _ = model.rows(corpus)
            assert model.mixture(*ids.values()).tobytes() == \
                rebuilt.mixture(*ids.values()).tobytes()
            for row in list(zip(*ids.values()))[::97]:
                assert model.posterior(*row).tobytes() == rebuilt.posterior(*row).tobytes()
            assert rebuilt.log_likelihood(corpus) == model.log_likelihood(corpus)
            assert self.saved(rebuilt) == self.saved(model)
            drawn, again = (sample_corpus(PlantedSpec(model=m, n_samples=2000, seed=8,
                                                      n_users=5))
                            for m in (model, rebuilt))
            for attr in ("r_ids", "u_ids", "t_ids", "counts"):
                assert np.array_equal(getattr(drawn, attr), getattr(again, attr))
            for attr in ("resources", "users", "tags"):
                assert getattr(drawn, attr).entries == getattr(again, attr).entries


@pytest.mark.parametrize("kind, band, statistics", [
    ("plsa", "r", [("t", (3,)), ("r", (3,))]),
    ("mwa", "r", [(None, (3,)), ("r", (3,)), ("u", (3,)), ("t", (3,))]),
    ("itm", "t", [("u", (2,)), ("r", (3,)), ("t", (2, 3))]),
])
def test_statistics_are_one_per_table_with_a_latent_axis(kind, band, statistics):
    model = initial_model(kind, random_corpus(5))
    assert model.band == band
    assert model.statistics() == statistics


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_zero_stats_give_the_band_statistic_its_ids_alone(kind):
    corpus = random_corpus(5)
    n_r, n_u, n_t = len(corpus.resources), len(corpus.users), len(corpus.tags)
    model = initial_model(kind, corpus)
    lo, hi = 2, 5
    stats = model.zero_stats(lo, hi)
    assert [s.shape for s in stats] == {
        "plsa": [(n_t, 3), (hi - lo, 3)],
        "mwa": [(3,), (hi - lo, 3), (n_u, 3), (n_t, 3)],
        "itm": [(n_u, 2), (n_r, 3), (hi - lo, 2, 3)]}[kind]
    assert not any(s.any() for s in stats)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_memory_budget_guard(kind, toy_corpus):
    """``max_table_bytes`` bounds every table of each model at 8 bytes a value."""
    cfg = TrainConfig(model=kind, topics=2, interests=3, max_iters=1)
    with pytest.raises(ConfigError, match=f"^{kind} tables need .* over the budget of 10;"):
        TRAINERS[kind](toy_corpus, dataclasses.replace(cfg, max_table_bytes=10))
    model, _ = TRAINERS[kind](toy_corpus, cfg)
    need = 8 * sum(getattr(model, attr).size for attr, _, _ in model.TABLES)
    TRAINERS[kind](toy_corpus, dataclasses.replace(cfg, max_table_bytes=need))
    with pytest.raises(ConfigError, match=f" need {need} bytes, over the budget of {need - 1};"):
        TRAINERS[kind](toy_corpus, dataclasses.replace(cfg, max_table_bytes=need - 1))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_m_step_allocates_no_table(kind):
    """Each M-step writes its tables in place: a statistic in table layout becomes its
    table, and a transposed one is copied into the table it replaces.  What it
    allocates meanwhile, the row sums and the ufunc buffer of the in-place division
    (up to ``np.getbufsize()`` values, 64 KiB), stays under a tenth of the model's
    largest table (1.5 MB or more here)."""
    corpus = random_corpus(3, n_resources=500, n_users=100, n_tags=3000, n_samples=5000)
    cfg = TrainConfig(model=kind, topics=64, interests=3, max_iters=2)
    model, _ = TRAINERS[kind](corpus, cfg)
    stats, _ = mapreduce_slices(model, *model.rows(corpus), fused=True)
    largest = max(getattr(model, attr).nbytes for attr, _, _ in model.TABLES)
    _, peak = traced_peak(lambda: model.m_step(stats))
    assert peak < largest / 10, (peak, largest)
    model.validate()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_table_a_hook_keeps_is_the_live_table(kind, toy_corpus):
    """The M-step writes a table that a transposed statistic updates in place, so a
    hook that keeps such a table without a copy sees it change on every update."""
    attr = {"plsa": "tag_given_topic", "mwa": "resource_given_topic",
            "itm": "tag_given_interest_topic"}[kind]
    kept, copies = [], []

    def hook(model, iteration, ll):
        kept.append(getattr(model, attr))
        copies.append(kept[-1].copy())

    cfg = TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=4)
    model, _ = TRAINERS[kind](toy_corpus, cfg, iteration_hook=hook)
    assert len(kept) == 4 and all(table is getattr(model, attr) for table in kept)
    assert np.array_equal(copies[-1], getattr(model, attr))
    assert not np.array_equal(copies[0], getattr(model, attr))


@functools.cache
def planted_corpus():
    return sample_corpus(planted_two_topic_spec())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("topics", [5, 6])
@pytest.mark.parametrize("kind", ["plsa", "mwa"])
def test_mixture_rows_have_the_bytes_of_the_column_gather(kind, topics, workers):
    """Each chunk's mixture, gathered by rows from the pass's row-major copies, has the
    bytes of the column gather (``oracles.MIXTURE_V1``) and is C-ordered, on chunks cut
    at every slice edge; so has the mixture of the chunk's ids alone.  The copies are
    made once per pass: every chunk gets the same arrays."""
    corpus = planted_corpus()
    model, _ = TRAINERS[kind](corpus, TrainConfig(model=kind, topics=topics, max_iters=3,
                                                  seed=4, workers=workers))
    seen = []

    class Recording(type(model)):
        chunk_rows = 37

        def mixture(self, *ids, **transposed):
            mix = super().mixture(*ids, **transposed)
            seen.append((ids, transposed, mix.copy(order="K")))  # e_step scales it in place
            return mix

    recording = Recording(**{attr: getattr(model, attr) for attr, _, _ in model.TABLES})
    ids, counts = model.rows(corpus)
    edges = [len(counts) * i // _SLICES for i in range(_SLICES + 1)]
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as executor:
        mapreduce_slices(recording, ids, counts, True, executor)
    assert len(seen) == sum(-(-(b - a) // 37) for a, b in zip(edges, edges[1:]))
    copies = seen[0][1]
    assert sorted(copies) == sorted(attr for attr, _, dims in model.TABLES
                                    if dims[:1] == ("n_topics",) and len(dims) == 2)
    for attr, rows in copies.items():
        assert rows.flags.c_contiguous
        assert rows.tobytes() == getattr(model, attr).T.tobytes()
    for chunk, transposed, mix in seen:
        assert transposed.keys() == copies.keys()
        assert all(transposed[attr] is rows for attr, rows in copies.items())
        want = oracles.MIXTURE_V1[kind](model, *chunk).tobytes()
        alone = model.mixture(*chunk)
        assert mix.flags.c_contiguous and alone.flags.c_contiguous
        assert mix.tobytes() == alone.tobytes() == want


@pytest.mark.parametrize("kind", ["plsa", "mwa"])
def test_posterior_has_the_bytes_of_the_column_gather_and_copies_no_table(kind):
    """``posterior`` gathers its one row from transposed views: the bytes of the column
    gather, and less traced memory than a tenth of the smallest table it gathers from."""
    corpus = random_corpus(3, n_resources=500, n_users=1000, n_tags=3000, n_samples=5000)
    model, _ = TRAINERS[kind](corpus, TrainConfig(model=kind, topics=64, max_iters=2))
    smallest = min(table.nbytes for table in model.transposed_tables(copy=False).values())
    ids, _ = model.rows(corpus)
    for row in list(zip(*ids.values()))[::397]:
        post, peak = traced_peak(lambda: model.posterior(*row))
        mix = oracles.MIXTURE_V1[kind](model, *([i] for i in row))
        assert post.tobytes() == (mix[0] / mix.sum(axis=1)[0]).tobytes()
        assert peak < smallest / 10, (peak, smallest)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_trained_model_holds_its_tables_and_seed_alone(kind, workers, toy_corpus):
    """No per-pass copy is left on the model, whose attributes are what the model files
    and the benchmark's round-trip check read."""
    cfg = TrainConfig(model=kind, topics=2, interests=2, max_iters=3, workers=workers)
    model, _ = TRAINERS[kind](toy_corpus, cfg)
    assert sorted(vars(model)) == sorted([attr for attr, _, _ in model.TABLES] + ["seed"])
