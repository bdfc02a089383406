import contextlib
import functools
import operator
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tagtopics import train_itm, train_mwa, train_plsa
from tagtopics.corpus import Corpus, Vocab
from tagtopics.errors import ConfigError, DataError
from tagtopics.itm import ItmModel
from tagtopics.training import (_SLICES, TrainConfig, em_fit, mapreduce_slices,
                                noisy_uniform_rows, scatter_add)


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


@pytest.mark.parametrize("n, chunk_rows, edges", [
    # Every slice spans several chunks; 2 divides none of the 5- and 6-row slices.
    (43, 2, [0, 5, 10, 16, 21, 26, 32, 37, 43]),
    # n < _SLICES: the empty slices are dropped, not walked.
    (5, 3, [0, 1, 2, 3, 4, 5]),
], ids=["several_chunks_per_slice", "fewer_rows_than_slices"])
def test_mapreduce_slices_walks_each_slice_in_chunks(n, chunk_rows, edges):
    assert _SLICES == 8
    rows = np.arange(n)
    chunks, zeros = [], []

    def zero():
        zeros.append(np.zeros(1))
        return [zeros[-1]]

    def add_chunk(sums, chunk, counts):
        assert chunk.keys() == {"r", "t"}
        assert chunk["r"].tolist() == chunk["t"].tolist() == counts.tolist()
        chunks.append((int(counts[0]), int(counts[-1]) + 1))
        sums[0] += counts.sum()

    sums = mapreduce_slices({"r": rows, "t": rows.copy()}, rows, chunk_rows, add_chunk, zero)
    assert chunks == [(a, min(a + chunk_rows, hi))
                      for lo, hi in zip(edges, edges[1:]) for a in range(lo, hi, chunk_rows)]
    assert len(zeros) == len(edges) - 1  # one zero() per slice walked
    assert sums[0] is zeros[0] and sums[0].tolist() == [rows.sum()]  # added into the first


# One value per slice; their float sum depends on the order of addition.
ORDER_SENSITIVE = [1.0, 1e16, 1.0, -1e16, 1.0, 1.0, 1e16, -1e16]


@pytest.mark.parametrize("threads", [None, 2, 3, 9])
def test_mapreduce_slices_adds_in_slice_order(threads):
    values = ORDER_SENSITIVE
    fold = functools.reduce(operator.add, values)
    assert fold != functools.reduce(operator.add, values[::-1])  # 2.0 against 5.0

    def add_chunk(sums, chunk, counts):
        lo = int(chunk["i"][0])
        time.sleep(0.002 * (len(values) - lo))  # later slices finish first
        sums[0] += values[lo]
        sums[1] += [-values[lo], 2.0 * values[lo]]

    assert len(values) == _SLICES
    rows = np.arange(len(values))
    with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
        sums = mapreduce_slices({"i": rows}, rows, 1, add_chunk,
                                lambda: [np.zeros(1), np.zeros(2)], pool)
    assert sums[0].tolist() == [fold]
    assert sums[1].tolist() == [functools.reduce(operator.add, [-v for v in values]),
                                functools.reduce(operator.add, [2.0 * v for v in values])]


def walked_log_likelihood(model, corpus, chunk_rows, slices=_SLICES):
    """sum of n log p(row) by plain loops: ``slices`` slices, each summed from
    zero in ``chunk_rows`` chunks, the slice sums added in slice order."""
    ids, counts = model.rows(corpus)
    edges = [len(counts) * i // slices for i in range(slices + 1)]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part = 0.0
        for a in range(lo, hi, chunk_rows):
            b = min(a + chunk_rows, hi)
            chunk = {name: col[a:b] for name, col in ids.items()}
            mix = model.mixture(*chunk.values()).sum(axis=(1, 2))
            part += float((counts[a:b] * model.log_terms(mix, chunk)).sum())
        total += part
    return total


def test_log_likelihood_sums_the_e_steps_chunks_and_slices():
    # A seed whose sums depend on the order: the last two asserts check that.
    rng = np.random.default_rng(2)
    r, u, t = np.unravel_index(rng.choice(20 * 10 * 5, size=600, replace=False), (20, 10, 5))
    vocab = [Vocab(map(str, range(n))) for n in (20, 10, 5)]
    corpus = Corpus(*vocab, r, u, t, rng.integers(1, 1000, size=600))
    model = ItmModel(user_probs=corpus.n_u / corpus.total,
                     resource_probs=corpus.n_r / corpus.total,
                     interest_given_user=rng.dirichlet(np.ones(128), size=10),
                     topic_given_resource=rng.dirichlet(np.ones(128), size=20),
                     tag_given_interest_topic=rng.dirichlet(np.ones(5), size=(128, 128)))
    assert model.chunk_rows == 16  # about 5 chunks per 75-row slice
    got = model.log_likelihood(corpus)
    assert got.hex() == walked_log_likelihood(model, corpus, 16).hex()
    # The order matters: one chunk per slice, or chunks without slices, differ.
    assert got.hex() != walked_log_likelihood(model, corpus, 600).hex()
    assert got.hex() != walked_log_likelihood(model, corpus, 16, slices=1).hex()


def add_at(table, idx, values):
    """``np.add.at`` on a copy of ``table`` and ``scatter_add`` on another."""
    expected, got = table.copy(), table.copy()
    np.add.at(expected, idx, values)
    scatter_add(got, idx, values)
    return expected, got


@st.composite
def scatter_cases(draw):
    """A table, ids with repeats and values, 1-D to 3-D, whose sums depend
    on the order of addition."""
    tail = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n_ids = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    idx = draw(arrays(np.int64, n, elements=st.integers(0, n_ids - 1)))
    magnitudes = st.sampled_from(ORDER_SENSITIVE + [-1.0, 0.5, 3.0])
    values = draw(arrays(np.float64, (n, *tail), elements=magnitudes))
    table = draw(arrays(np.float64, (n_ids, *tail), elements=magnitudes))
    return table, idx, values


@settings(max_examples=300, deadline=None)
@given(scatter_cases())
def test_scatter_add_matches_add_at_bit_for_bit(case):
    expected, got = add_at(*case)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
def test_scatter_add_adds_each_ids_rows_in_row_order(tail):
    values = np.array(ORDER_SENSITIVE * 4).reshape(-1, *(1,) * len(tail)) * np.ones(tail)
    idx = np.repeat([2, 0, 1, 0], 8)
    rng = np.random.default_rng(5)
    rng.shuffle(idx)
    table = np.zeros((3, *tail))
    expected, got = add_at(table, idx, values)
    assert got.tobytes() == expected.tobytes()
    # The sums do depend on the order: a reversed walk gives other bits.
    reversed_ = table.copy()
    np.add.at(reversed_, idx[::-1], values[::-1])
    assert reversed_.tobytes() != expected.tobytes()


def test_scatter_add_long_index_with_few_ids():
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 10, size=5000)
    values = rng.choice(ORDER_SENSITIVE, size=(5000, 4))
    expected, got = add_at(rng.random((10, 4)), idx, values)
    assert got.tobytes() == expected.tobytes()


def test_scatter_add_empty_index_leaves_table():
    table = np.arange(6.0).reshape(3, 2)
    expected, got = add_at(table, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert got.tobytes() == expected.tobytes() == table.tobytes()


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


def test_em_fit_stops_on_plateau():
    values = iter([-10.0, -5.0, -5.0])
    seen = []
    log = em_fit(step_fn=lambda: None, ll_fn=lambda: next(values),
                 cfg=TrainConfig(tol=1e-6, max_iters=50),
                 hook=lambda i, ll: seen.append((i, ll)))
    assert log.log_likelihoods == [-10.0, -5.0, -5.0]
    assert log.converged
    assert log.iterations == 2
    assert seen == [(1, -5.0), (2, -5.0)]


def test_em_fit_respects_max_iters():
    counter = iter(range(100))
    log = em_fit(step_fn=lambda: None, ll_fn=lambda: -100.0 + next(counter),
                 cfg=TrainConfig(tol=1e-12, max_iters=5))
    assert not log.converged
    assert log.iterations == 5
