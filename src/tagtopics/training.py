"""Shared training machinery for the three EM models.

All trainers follow the same protocol: seeded near-uniform initialization,
alternating E/M passes over the data, and a log-likelihood history that is
recorded after every parameter update.  Convergence is declared when the
relative log-likelihood improvement drops below ``tol``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneracyError

MODEL_KINDS = ("plsa", "mwa", "itm")

# Relative amplitude of the seeded init noise; large enough to break topic
# symmetry, small enough that every table starts close to uniform.
_INIT_NOISE = 0.1


@dataclass
class TrainConfig:
    """Knobs shared by every trainer.

    ``interests`` only matters for the interest-topic model.
    ``max_table_bytes`` bounds the size of the dense parameter tables a
    trainer may allocate.
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


def check_support(totals: np.ndarray, what: str, **ids) -> None:
    """Raise :class:`DegeneracyError` naming the first data row whose mixture
    total is not positive; ``ids`` maps each id name to its per-row ids."""
    dead = totals <= 0.0
    if dead.any():
        bad = int(np.argmax(dead))
        where = ", ".join(f"{name}={row_ids[bad]}" for name, row_ids in ids.items())
        raise DegeneracyError(f"degenerate posterior for {what} ({where})")


def slice_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    edges = [n * i // parts for i in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def mapreduce_slices(pass_fn, n: int, workers: int, executor):
    """Run ``pass_fn(lo, hi)`` over contiguous slices and sum the partial
    statistics in slice order.

    The reduction order is fixed by the slice layout, so results are
    bit-reproducible for a fixed worker count.
    """
    if executor is None or workers <= 1:
        return pass_fn(0, n)
    parts = list(executor.map(lambda bounds: pass_fn(*bounds), slice_bounds(n, workers)))
    acc = list(parts[0])
    for part in parts[1:]:
        for i, value in enumerate(part):
            acc[i] = acc[i] + value
    return tuple(acc)


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
