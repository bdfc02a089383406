"""A fixed reference kernel that reads the speed of the host, and the scaling
of measured wall times to one host speed.

The benchmark runs on shared machines whose speed drifts by up to 1.8x for
minutes at a time (see README.md).  The kernel does not call tagtopics and
is made of the kinds of work the workloads do: a Python parse-and-count
loop, a numpy row gather with an np.add.at scatter, and an itm-like strided
column gather, axis move and scatter.  The benchmark takes a *reading*
(PASSES passes, untimed) before and after each timed piece of work, and
scales the piece's wall time by the readings on both sides of it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The host speed that scaled times refer to: the median time of one pass over
# the runs this constant was taken from, on the host of the README.md
# baseline.  The host drifts, so later runs there read 40-75 ms a pass.
REFERENCE_S = 0.0405
PASSES = 3

_LINES = [f"r{k % 997}\tu{k % 131}\tt{k % 313}" for k in range(8_000)]
_ROWS = np.linspace(0.1, 1.0, 1200 * 400).reshape(1200, 400)
_ROW_IDX = (np.arange(2_000, dtype=np.int64) * 613) % 1200
_CUBE = np.linspace(0.1, 1.0, 10 * 40 * 1200).reshape(10, 40, 1200)
_COL_IDX = (np.arange(1_500, dtype=np.int64) * 613) % 1200


def pass_s() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    counts: dict = {}
    for line in _LINES:
        r, _, t = line.split("\t")
        counts[r, t] = counts.get((r, t), 0) + 1
    rows = np.zeros_like(_ROWS)
    for _ in range(2):
        np.add.at(rows, _ROW_IDX, _ROWS[_ROW_IDX] * 1.0001)
    post = np.moveaxis(_CUBE[:, :, _COL_IDX], 2, 0).copy()
    post *= 1.0001
    np.add.at(np.zeros((1200, 10, 40)), _COL_IDX, post)
    return time.perf_counter() - start


def reading() -> list[float]:
    return [pass_s() for _ in range(PASSES)]


def scaled(walls, readings: list[list[float]]) -> list[float]:
    """Each wall time at the reference host speed: REFERENCE_S x wall / the
    mean of the median passes of the readings just before and just after
    it (``readings`` has one more entry than ``walls``)."""
    speed = [statistics.median(r) for r in readings]
    return [REFERENCE_S * wall / ((before + after) / 2.0)
            for wall, before, after in zip(walls, speed, speed[1:])]
