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
from tagtopics.errors import ConfigError, DataError
from tagtopics.training import (_SLICES, TrainConfig, em_fit, mapreduce_slices,
                                noisy_uniform_rows, scatter_add, slice_bounds)


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


def test_slice_bounds_cover_range():
    assert slice_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
    assert slice_bounds(2, 5) == [(0, 1), (1, 2)]
    assert slice_bounds(0, 4) == []


# One value per slice; their float sum depends on the order of addition.
ORDER_SENSITIVE = [1.0, 1e16, 1.0, -1e16, 1.0, 1.0, 1e16, -1e16]


@pytest.mark.parametrize("threads", [None, 2, 3, 9])
def test_mapreduce_slices_adds_in_slice_order(threads):
    values = ORDER_SENSITIVE
    fold = functools.reduce(operator.add, values)
    assert fold != functools.reduce(operator.add, values[::-1])  # 2.0 against 5.0

    def pass_fn(lo, hi):
        time.sleep(0.002 * (len(values) - lo))  # later slices finish first
        return np.array([values[lo]]), np.array([-values[lo], 2.0 * values[lo]])

    assert len(values) == _SLICES
    with ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool:
        sums = mapreduce_slices(pass_fn, len(values), _SLICES, pool)
    assert sums[0].tolist() == [fold]
    assert sums[1].tolist() == [functools.reduce(operator.add, [-v for v in values]),
                                functools.reduce(operator.add, [2.0 * v for v in values])]


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
