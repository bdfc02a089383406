"""Topic-distribution comparison and seed-relative ranking.

Resources are described by their topic distributions p(z|r); dissimilarity is
the Jensen-Shannon divergence in natural log, so values live in [0, ln 2].
The log base only rescales divergences and never reorders a ranking.

The divergence terms come from scipy's ``rel_entr``.  scipy is imported on
the first divergence, not with the package, so that commands which never
rank (ingest, train, eval, sample) do not pay for loading it.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _textio
from .errors import DataError
from .training import check_index

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class TopicDistribution:
    """A probability vector over topics; validated on construction."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _vector(self.probs)
        object.__setattr__(self, "probs", probs)
        if not np.isfinite(probs).all() or (probs < 0).any():
            raise ValueError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > _textio.ROW_SUM_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def __len__(self) -> int:
        return self.probs.size


def _vector(p) -> np.ndarray:
    """The probabilities of a :class:`TopicDistribution`, or ``p`` as floats, a
    ``ValueError`` unless it is a non-empty 1-D vector."""
    if isinstance(p, TopicDistribution):
        return p.probs
    if (probs := np.asarray(p, dtype=float)).ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a non-empty 1-D vector")
    return probs


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence: 0.5*KL(p||m) + 0.5*KL(q||m), m = (p+q)/2.

    Natural log, 0*log(0) = 0.  Symmetric, bounded by ln 2; clamped to
    [0, ln 2] against rounding.  Computed as the one row of :func:`rank_rows`.
    """
    p = _vector(p)
    q = _vector(q)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    from scipy.special import rel_entr

    row, value = p.reshape(1, -1), np.empty(1)
    _divergences(rel_entr, row, q.reshape(-1), np.empty_like(row), np.empty_like(row), value)
    return min(max(float(value[0]), 0.0), LN2)


@dataclass
class RankedList:
    """Resources ordered by ascending divergence from a seed resource."""

    seed: object
    entries: list[tuple[object, float]]

    def __post_init__(self):
        divergences = [d for _, d in self.entries]
        if not np.isfinite(divergences).all():  # first, as nan defeats every order check
            raise DataError("ranking divergences must be finite")
        if divergences != sorted(divergences):
            raise DataError("ranking divergences must be non-decreasing")
        keys = {rid for rid, _ in self.entries}
        if len(keys) != len(self.entries):
            raise DataError("ranking contains duplicate resources")
        if self.seed in keys:
            raise DataError("seed resource may not appear in its own ranking")

    def top(self, k: int) -> list[tuple[object, float]]:
        return self.entries[: max(k, 0)]

    def __len__(self) -> int:
        return len(self.entries)


# Fewest rows a block of a split ranking may get.  At K = 40 on two cores, a
# split into 1,024-row blocks cut the divergence pass from 6.4 to 4.1 ms,
# while one into 512-row blocks saved under 1 ms and one into 256-row blocks
# 0.3 ms, less than a query's spread on a busy host; so a matrix of fewer
# than twice this many rows is ranked on the calling thread, with no pool.
MIN_BLOCK_ROWS = 1024

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_held = threading.local()  # each calling thread's scratch pair and its shape


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """In a forked child the parent's pool threads do not exist: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere no process forks
    os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool() -> ThreadPoolExecutor:
    """The module's thread pool, one thread per core, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cores(), thread_name_prefix="tagtopics-rank")
        return _pool


def _divergences(rel_entr, probs, seed, s, work, out) -> None:
    """JS divergence of each row p of ``probs`` to q = ``seed`` into ``out``, each
    summed on its own, as (KL(2p || S) + KL(2q || S)) / 4 with S = p + q, finite
    where m = S / 2 underflows (p = 5e-324, q = 0).  ``rel_entr`` is scipy's, passed
    in so that no pool thread imports it; ``s`` and ``work`` are scratch of the shape
    of ``probs``, held by the caller, so that no pool thread's heap grows by them."""
    np.add(probs, seed, out=s)
    rel_entr(np.multiply(probs, 2, out=work), s, out=work).sum(axis=1, out=out)
    out += rel_entr(2 * seed, s, out=work).sum(axis=1)
    out *= 0.25


def rank_rows(probs: np.ndarray, seed_row: int, keys=None) -> RankedList:
    """Rank every row of the [R, K] matrix ``probs`` but ``seed_row`` by ascending
    JS divergence to it, as ``(row, divergence)`` entries, in one pass of the
    kernel that :func:`js_divergence` runs on one row, so with its bits.  Ties go
    to the lower row.  With ``keys``, row ``i`` (the seed included) is keyed ``keys[i]``.

    The rows are cut into one contiguous block per core, each of at least
    :data:`MIN_BLOCK_ROWS` rows; two or more run on a shared thread pool, one on
    the calling thread.  No row's sum depends on the cut, nor any result bit.  The
    two [R, K] scratch arrays are the calling thread's, kept for its next call."""
    from scipy.special import rel_entr  # here, on the calling thread, not in the pool

    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or not probs.shape[1]:
        raise ValueError(f"probs must be an [R, K] matrix with K >= 1, got shape {probs.shape}")
    check_index("seed row", seed_row, len(probs))
    seed = probs[seed_row]
    if getattr(_held, "shape", None) != probs.shape:  # the pair goes when the shape changes
        _held.pair, _held.shape = (np.empty_like(probs), np.empty_like(probs)), probs.shape
    (s, work), div = _held.pair, np.empty(len(probs))
    blocks = max(min(len(probs) // MIN_BLOCK_ROWS, _cores()), 1)
    edges = [len(probs) * i // blocks for i in range(blocks + 1)]
    list((_shared_pool().map if blocks > 1 else map)(
        lambda lo, hi: _divergences(rel_entr, probs[lo:hi], seed, s[lo:hi], work[lo:hi],
                                    div[lo:hi]),
        edges[:-1], edges[1:]))
    order = np.argsort(np.clip(div, 0.0, LN2, out=div), kind="stable")
    order = order[order != seed_row]
    rows = order.tolist()
    if keys is not None:
        rows, seed_row = [keys[row] for row in rows], keys[seed_row]
    return RankedList(seed_row, list(zip(rows, div[order].tolist())))


def rank_by_seed(dists: Mapping, seed) -> RankedList:
    """:func:`rank_rows` over the vectors, all of the seed's shape, in id order."""
    if seed not in dists:
        raise DataError(f"seed {seed!r} has no topic distribution")
    ids = sorted(dists)
    vectors, seed_row = list(map(_vector, map(dists.__getitem__, ids))), ids.index(seed)
    try:
        probs = np.array(vectors)
    except ValueError:  # shapes differ: name the first vector not of the seed's
        odd = next(i for i, v in enumerate(vectors) if v.shape != vectors[seed_row].shape)
        raise ValueError(f"length mismatch: {ids[odd]!r} has shape {vectors[odd].shape}, "
                         f"the seed {seed!r} has {vectors[seed_row].shape}") from None
    return rank_rows(probs, seed_row, ids)


_RANKING_COLUMNS = "rank\tresource\tdivergence"


def write_ranking(ranked: RankedList, stream, *, limit: int | None = None,
                  name_of=None, meta: Mapping | None = None) -> None:
    """Write ``rank<TAB>resource<TAB>divergence`` rows with a metadata header."""
    resolve = name_of if name_of is not None else str
    pairs = " ".join(f"{key}={value}" for key, value in dict(meta or {}).items())
    stream.write(f"# {pairs}\n" if pairs else "#\n")
    stream.write(_RANKING_COLUMNS + "\n")
    entries = ranked.entries if limit is None else ranked.top(limit)
    for position, (rid, divergence) in enumerate(entries, start=1):
        stream.write(f"{position}\t{resolve(rid)}\t{divergence!r}\n")


def read_ranking(stream) -> tuple[dict, RankedList]:
    """Parse a ranking TSV back into its metadata and a name-keyed RankedList.
    ``seed=``, which :func:`write_ranking` writes last, runs to the end of its line."""
    meta: dict[str, str] = {}
    saw_columns = False
    entries: list[tuple[str, float]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if _textio.skipped(line):
            if line[:1] == "#" and not saw_columns and not meta:
                head, has_seed, seed = f" {line[1:]}".partition(" seed=")  # the last key
                meta = dict(token.split("=", 1) for token in head.split() if "=" in token)
                if has_seed:
                    meta["seed"] = seed
            continue
        if not saw_columns:
            if line != _RANKING_COLUMNS:
                raise DataError(f"line {lineno}: expected ranking column header")
            saw_columns = True
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"line {lineno}: expected 3 tab-separated fields")
        try:
            entries.append((fields[1], float(fields[2])))
        except ValueError:
            raise DataError(f"line {lineno}: bad divergence {fields[2]!r}") from None
    if not saw_columns:
        raise DataError("not a ranking file (missing column header)")
    return meta, RankedList(seed=meta.get("seed", ""), entries=entries)
