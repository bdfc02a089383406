"""One EM trainer for the three models.

:func:`train` fits any model class by the same protocol: seeded
near-uniform initialization, alternating E/M passes over the data, and a
log-likelihood history recorded after every parameter update; it stops when
the relative log-likelihood improvement drops below ``tol``.  The trainer
owns the config checks, the worker pool, the chunked E-step, the map-reduce
of the statistics and the log-likelihood pass.  A model class supplies only
its own math: ``kind``/``DIMS``/``TABLES`` (its tables and file schema,
see ``_textio.Tables``); ``initial(corpus, cfg, rng)``, the seeded start;
``rows(corpus)``, the data rows as ``({id name: ids}, counts)``;
``chunk_rows``, rows per chunk, which fixes the summation order;
``mixture(*ids)``, the unnormalised joint per row as [n, latent...];
``zero_stats()``, ``scatter(stats, ids, post)`` and ``m_step(stats)``, the
sufficient statistics from weighted posteriors and the in-place update; and
``log_terms(mix, ids)``, log p(row) from the mixture summed per row.

Both passes walk the rows only through :func:`mapreduce_slices`, which holds
their summation order (``_SLICES`` fixed slices summed from zero in
``chunk_rows`` chunks, then in slice order): any worker count, same bits.
"""

from __future__ import annotations

import contextlib
import logging
import math
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegeneracyError

logger = logging.getLogger(__name__)

MODEL_KINDS = ("plsa", "mwa", "itm")
_ROW_NAMES = {2: "pair", 3: "triple"}
_ID_NAMES = {"r": "resource", "u": "user", "t": "tag"}

# Relative amplitude of the seeded init noise; large enough to break topic
# symmetry, small enough that every table starts close to uniform.
_INIT_NOISE = 0.1

_SLICES = 8  # row slices per data pass; fixed, since they fix the summation order


@dataclass
class TrainConfig:
    """Knobs shared by every trainer.

    ``interests`` only matters for the interest-topic model; ``workers``
    changes the speed, never the result.  ``max_table_bytes`` bounds the
    size of the dense parameter tables a trainer may allocate.
    """

    model: str = "plsa"
    topics: int = 100
    interests: int = 20
    tol: float = 1e-6
    max_iters: int = 200
    seed: int = 0
    workers: int = 1
    max_table_bytes: int = 2**31

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODEL_KINDS}")
        if self.topics < 1:
            raise ConfigError("topics must be >= 1")
        if self.model == "itm" and self.interests < 1:
            raise ConfigError("interests must be >= 1 for the itm model")
        if not self.tol > 0:
            raise ConfigError("tol must be > 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_table_bytes < 1:
            raise ConfigError("max_table_bytes must be >= 1")


@dataclass
class TrainLog:
    """Per-iteration log-likelihood history.

    ``log_likelihoods[0]`` is the likelihood of the initial parameters;
    every further entry is recorded after one full E/M update.
    """

    log_likelihoods: list[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods) - 1

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]


def noisy_uniform_rows(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """Rows near the uniform distribution with seeded positive noise."""
    rows = 1.0 + _INIT_NOISE * rng.random((n_rows, n_cols))
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Row-normalize expected counts; all-zero rows fall back to uniform."""
    sums = counts.sum(axis=1, keepdims=True)
    dead = sums[:, 0] == 0.0
    if dead.any():
        counts[dead] = 1.0
        sums = counts.sum(axis=1, keepdims=True)
    return counts / sums


def mapreduce_slices(ids: dict, counts, chunk_rows: int, add_chunk, zero, executor=None):
    """Sum the data rows: each of ``_SLICES`` fixed slices starts from ``zero()``, a
    sequence of arrays, and calls ``add_chunk(sums, {name: col[a:b]}, counts[a:b])`` per
    ``chunk_rows`` chunk in row order, on ``executor``'s threads (in turn if it is
    ``None``); the slice sums are added in slice order into the first one, in place."""
    edges = sorted({len(counts) * i // _SLICES for i in range(_SLICES + 1)})  # no empty slice

    def walk(lo: int, hi: int):
        sums = zero()
        for a in range(lo, hi, chunk_rows):
            b = min(a + chunk_rows, hi)
            add_chunk(sums, {name: col[a:b] for name, col in ids.items()}, counts[a:b])
        return sums

    parts = (executor.map if executor else map)(walk, edges[:-1], edges[1:])
    acc = next(parts)
    for part in parts:
        for total, value in zip(acc, part):
            total += value
        del part, value  # hold only the sum while the next partial is computed
    return acc


def scatter_add(table: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(table, idx, values)``, same bits: round k adds each id's k-th
    row, so rows still add in row order; fast while ids repeat only a few times."""
    order = np.argsort(idx, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(idx[order]) != 0])
    rank = np.arange(len(idx)) - np.repeat(starts, np.diff(np.r_[starts, len(idx)]))
    for k in range(rank.max(initial=-1) + 1):
        rows = order[rank == k]
        table[idx[rows]] += values[rows]


def em_fit(
    step_fn: Callable[[], None],
    ll_fn: Callable[[], float],
    cfg: TrainConfig,
    hook: Callable[[int, float], None] | None = None,
) -> TrainLog:
    """Drive EM updates until the log-likelihood stops improving.

    ``step_fn`` performs one in-place E/M update; ``ll_fn`` evaluates the
    log-likelihood of the current parameters.  ``hook`` (if given) is called
    after every update with ``(iteration, log_likelihood)``.
    """
    history = [float(ll_fn())]
    converged = False
    for iteration in range(1, cfg.max_iters + 1):
        step_fn()
        ll = float(ll_fn())
        previous = history[-1]
        history.append(ll)
        if hook is not None:
            hook(iteration, ll)
        if math.isfinite(ll) and abs(ll - previous) <= cfg.tol * abs(previous):
            converged = True
            break
    return TrainLog(history, converged)


def triples(corpus):
    """The corpus triples as data rows: ``({"r", "u", "t"} ids, counts)``."""
    return {"r": corpus.r_ids, "u": corpus.u_ids, "t": corpus.t_ids}, corpus.counts


def _supported_mixture(model, ids: dict):
    """``model.mixture`` of the data rows ``ids`` and its totals over the
    latent axes; raises :class:`DegeneracyError` naming a row without support."""
    mix = model.mixture(*ids.values())
    totals = mix.sum(axis=tuple(range(1, mix.ndim)))
    dead = totals <= 0.0
    if dead.any():
        bad = int(np.argmax(dead))
        where = ", ".join(f"{name}={col[bad]}" for name, col in ids.items())
        raise DegeneracyError(f"degenerate posterior for {_ROW_NAMES[len(ids)]} ({where})")
    return mix, totals


def check_ids(model, **ids) -> None:
    """Raise :class:`DataError` for an id outside its vocabulary, e.g. ``r=7``."""
    for name, i in ids.items():
        n = getattr(model, f"n_{_ID_NAMES[name]}s")
        if not 0 <= i < n:
            raise DataError(f"unknown {_ID_NAMES[name]} id {i}; expected 0 to {n - 1}")


def posterior(model, **ids) -> np.ndarray:
    """E-step posterior of one observed row, e.g. ``posterior(model, r=0, t=2)``."""
    check_ids(model, **ids)
    mix, totals = _supported_mixture(model, {name: [i] for name, i in ids.items()})
    return mix[0] / totals[0]


def check_corpus(model, corpus) -> None:
    """Raise :class:`DataError` unless the model's vocabulary sizes (those
    of its ``DIMS``) match the corpus."""
    vocabs = {"n_resources": corpus.resources, "n_users": corpus.users, "n_tags": corpus.tags}
    dims = [dim for dim in model.DIMS if dim in vocabs]
    shape = tuple(getattr(model, dim) for dim in dims)
    expected = tuple(len(vocabs[dim]) for dim in dims)
    if shape != expected:
        raise DataError(f"model dimensions {shape} do not match corpus {expected} "
                        f"({', '.join(dims)})")


def log_likelihood(model, corpus) -> float:
    """sum over data rows of n log p(row), in the E-step's slices and chunks;
    -inf (with a warning) if an observed row has zero probability."""
    model.check_corpus(corpus)
    ids, counts = model.rows(corpus)

    def add_chunk(sums, chunk, n) -> None:
        mix = model.mixture(*chunk.values())
        mix = mix.sum(axis=tuple(range(1, mix.ndim)))
        with np.errstate(divide="ignore"):
            sums[0] += (n * model.log_terms(mix, chunk)).sum()

    total = float(mapreduce_slices(ids, counts, model.chunk_rows, add_chunk,
                                   lambda: [np.zeros(())])[0])
    if not math.isfinite(total):
        logger.warning(f"observed {_ROW_NAMES[len(ids)]} has zero probability; "
                       "log-likelihood is degenerate (-inf)")
    return total


def train(cls, corpus, cfg: TrainConfig, iteration_hook=None):
    """Fit model class ``cls`` to ``corpus`` by EM; returns ``(model, TrainLog)``.

    The result depends on ``cfg.seed`` only, not on ``cfg.workers``.  The
    optional ``iteration_hook(model, iteration, ll)`` is called after every update."""
    cfg.validate()
    if cfg.model != cls.kind:
        raise ConfigError(f"config is for model {cfg.model!r}, but this trainer fits {cls.kind!r}")
    if cfg.topics > len(corpus.tags):
        warnings.warn(f"topics={cfg.topics} exceeds the tag vocabulary size {len(corpus.tags)}")
    model = cls.initial(corpus, cfg, np.random.default_rng(cfg.seed))
    ids, counts = model.rows(corpus)
    executor = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None

    def add_chunk(stats, chunk, n) -> None:
        post, totals = _supported_mixture(model, chunk)
        post *= (n / totals).reshape((-1,) + (1,) * (post.ndim - 1))
        model.scatter(stats, chunk, post)

    def step() -> None:
        model.m_step(mapreduce_slices(ids, counts, model.chunk_rows, add_chunk,
                                      model.zero_stats, executor))

    hook = None if iteration_hook is None else (
        lambda iteration, ll: iteration_hook(model, iteration, ll))
    with executor or contextlib.nullcontext():
        log = em_fit(step, lambda: model.log_likelihood(corpus), cfg, hook=hook)
    return model, log
