"""The one M-step, ``training.Model.m_step``, against the per-model M-steps it replaced.

This module imports no ``normalize_rows``, so a model class defined here makes
``Model.m_step`` fall back to ``training.normalize_rows``.
"""

import copy
import sys

import numpy as np
import pytest

import oracles
from helpers import random_corpus
from tagtopics import training
from tagtopics.modelio import MODEL_TYPES
from tagtopics.training import MODEL_KINDS, TrainConfig


def table_bytes(model) -> dict:
    return {attr: (getattr(model, attr).shape, getattr(model, attr).tobytes())
            for attr, _, _ in model.TABLES}


def random_stats(model, rng) -> list:
    """Seeded random statistics of ``model``'s shapes, the band one for every id.  Each one
    with an id axis gets an all-zero id row, and each one whose table has its id axis last
    an all-zero first latent column, which makes a dead row of that table."""
    stats = model.zero_stats(0, getattr(model, training._ID_COLUMNS[model.band][1]))
    id_last = [dims[-1] not in training._LATENT for _, _, dims in model.TABLES
               if not set(dims).isdisjoint(training._LATENT)]
    for stat, (col, _), last in zip(stats, model.statistics(), id_last):
        stat[...] = rng.random(stat.shape)
        if col is not None:
            stat[rng.integers(len(stat))] = 0.0
        if last:
            stat.reshape(len(stat), -1)[:, 0] = 0.0
    return stats


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_model_classes_have_no_m_step_of_their_own(kind):
    assert "m_step" not in vars(MODEL_TYPES[kind])
    assert MODEL_TYPES[kind].m_step is training.Model.m_step


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_m_step_has_the_bytes_of_the_model_classes_own(kind, seed):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(model=kind, topics=int(rng.integers(1, 6)), interests=int(rng.integers(1, 4)))
    model = MODEL_TYPES[kind].initial(random_corpus(seed, n_samples=300), cfg, rng)
    stats = random_stats(model, rng)
    ours, theirs = copy.deepcopy(model), copy.deepcopy(model)
    ours.m_step([stat.copy() for stat in stats])
    oracles.M_STEP_V1[kind](theirs, [stat.copy() for stat in stats])
    assert table_bytes(ours) == table_bytes(theirs)
    ours.validate()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_subclass_elsewhere_trains_as_its_base(kind, workers, monkeypatch):
    """A model class whose module holds no ``normalize_rows`` gets ``training``'s, and
    trains to the bytes and log-likelihood history of its base class; the base class's
    M-step calls its own module's ``normalize_rows``, which the tracer patches."""
    assert not hasattr(sys.modules[__name__], "normalize_rows")
    base = MODEL_TYPES[kind]
    sub = type(f"Local{base.__name__}", (base,), {})
    assert sub.__module__ == __name__
    calls, normalize = [], training.normalize_rows

    def counted(counts):
        calls.append(counts.shape)
        return normalize(counts)

    monkeypatch.setattr(training, "normalize_rows", counted)
    corpus = random_corpus(7, n_samples=400)
    cfg = TrainConfig(model=kind, topics=3, interests=2, tol=1e-12, max_iters=4, seed=5,
                      workers=workers)
    model, log = training.train(base, corpus, cfg)
    assert calls == []
    ours, our_log = training.train(sub, corpus, cfg)
    n_latent = len(model.statistics())
    assert len(calls) == n_latent * cfg.max_iters
    assert type(ours) is sub
    assert table_bytes(ours) == table_bytes(model)
    assert [ll.hex() for ll in our_log.log_likelihoods] == [ll.hex() for ll in log.log_likelihoods]
