"""Topic-distribution comparison and seed-relative ranking.

Resources are described by their topic distributions p(z|r); dissimilarity is
the Jensen-Shannon divergence in natural log, so values live in [0, ln 2].
The log base only rescales divergences and never reorders a ranking.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from . import _textio
from .errors import DataError

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class TopicDistribution:
    """A probability vector over topics; validated on construction."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D vector")
        if not np.isfinite(probs).all() or (probs < 0).any():
            raise ValueError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def __len__(self) -> int:
        return self.probs.size


def _vector(p) -> np.ndarray:
    return p.probs if isinstance(p, TopicDistribution) else np.asarray(p, dtype=float)


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence: 0.5*KL(p||m) + 0.5*KL(q||m), m = (p+q)/2.

    Natural log, 0*log(0) = 0.  Symmetric, bounded by ln 2; clamped at 0
    against rounding.
    """
    p = _vector(p)
    q = _vector(q)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    s = p + q  # twice m: m itself underflows to 0 for p = 5e-324, q = 0
    value = 0.25 * float(rel_entr(2 * p, s).sum() + rel_entr(2 * q, s).sum())
    return max(value, 0.0)


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


def rank_rows(probs: np.ndarray, seed_row: int, keys=None) -> RankedList:
    """Rank every row of the [R, K] matrix ``probs`` but ``seed_row`` by ascending
    JS divergence to it, as ``(row, divergence)`` entries, in one pass (each row
    summed as in :func:`js_divergence`, so with its bits).  Ties go to the lower
    row.  With ``keys``, row ``i`` (the seed included) is keyed ``keys[i]``."""
    seed = probs[seed_row]
    s = probs + seed
    div = 0.25 * (rel_entr(2 * probs, s).sum(axis=1) + rel_entr(2 * seed, s).sum(axis=1))
    order = np.argsort(np.maximum(div, 0.0, out=div), kind="stable")
    order = order[order != seed_row]
    rows = order.tolist()
    if keys is not None:
        rows, seed_row = [keys[row] for row in rows], keys[seed_row]
    return RankedList(seed_row, list(zip(rows, div[order].tolist())))


def rank_by_seed(dists: Mapping, seed) -> RankedList:
    """:func:`rank_rows` over the vectors in id order, keyed by id."""
    if seed not in dists:
        raise DataError(f"seed {seed!r} has no topic distribution")
    ids = sorted(dists)
    return rank_rows(np.array([_vector(dists[rid]) for rid in ids]), ids.index(seed), ids)


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
    """Parse a ranking TSV back into its metadata and a name-keyed RankedList."""
    meta: dict[str, str] = {}
    saw_columns = False
    entries: list[tuple[str, float]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if _textio.skipped(line):
            if line[:1] == "#" and not saw_columns and not meta:
                for token in line[1:].split():
                    if "=" in token:
                        key, value = token.split("=", 1)
                        meta[key] = value
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
