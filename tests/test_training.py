import contextlib
import functools
import operator
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tagtopics import train_itm, train_mwa, train_plsa
from tagtopics.errors import ConfigError
from tagtopics.training import (_SLICES, TrainConfig, em_fit, mapreduce_slices,
                                noisy_uniform_rows, slice_bounds)


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
