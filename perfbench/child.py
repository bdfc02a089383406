"""One process started by ``run.py``: a set-up, or the measured phase.

    child.py setup   WORKLOAD SEED DIR TRACE RESULT_JSON
    child.py measure WORKLOAD SEED DIR SECONDS TRACE RESULT_JSON

The measured phase runs in a fresh process that only reads the files a
set-up wrote, so the sampler's memory peak stays out of its ``ru_maxrss``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tagtopics
import reference
import workloads
from tracing import Tracer, summarize

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "tagtopics": tagtopics.__file__,
            "platform": platform.platform(),
            "thread_caps": {key: os.environ.get(key) for key in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_setup(name: str, seed: int, out: Path, tracer: Tracer) -> dict:
    info = workloads.setup(name, seed, out)
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.iterdir())}
    return {"info": info, "hashes": hashes,
            "spans": summarize(tracer.spans, 1) if tracer.enabled else None}


def run_measure(name: str, seed: int, inputs: Path, seconds: float, tracer: Tracer) -> dict:
    checks = workloads.Checks()
    tracer.phase = "load"
    workload = workloads.MEASURED[name](workloads.WORKLOADS[name], seed, inputs, tracer)
    tracer.phase = "round"
    rounds: list[dict] = []
    readings = [reference.reading()]
    deadline = time.perf_counter() + seconds
    while len(rounds) < workloads.MIN_ROUNDS or time.perf_counter() < deadline:
        try:
            rounds.append(workload.round(checks))
            readings.append(reference.reading())
        except Exception:  # a raising operation is a failed operation; stop the loop
            checks.expect(False, traceback.format_exc(limit=4))
            break
    return {"rounds": rounds, "readings": readings, "attempted": checks.attempted,
            "failed": checks.failed, "failures": checks.failures[:20],
            "spans": summarize(tracer.spans, max(len(rounds), 1)) if tracer.enabled else None}


def main(argv: list[str]) -> int:
    mode, name, seed, directory = argv[0], argv[1], int(argv[2]), Path(argv[3])
    trace, result_path = argv[-2] == "1", Path(argv[-1])
    tracer = Tracer(trace)
    if mode == "setup":
        result = run_setup(name, seed, directory, tracer)
    else:
        result = run_measure(name, seed, directory, float(argv[4]), tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    result["environment"] = environment()
    result_path.write_text(json.dumps(result))
    if trace:
        result_path.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
