"""The benchmark's tracer patches named hook points of the package; it must
still find every one of them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_instruments_the_package():
    # A subprocess keeps the tracer's patches out of this test process.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", "import tracing; tracing.Tracer(True)"],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
