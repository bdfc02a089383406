"""The benchmark's tracer patches named hook points of the package; it must
still find every one of them, and training must still call them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAIN_EACH_KIND = """
import tagtopics, tracing
tracer = tracing.Tracer(True)
corpus = tagtopics.ingest_triples(["a\\tu1\\tx", "a\\tu2\\ty", "b\\tu1\\ty"])
for kind in ("plsa", "mwa", "itm"):
    cfg = tagtopics.TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=2)
    getattr(tagtopics, f"train_{kind}")(corpus, cfg)
print("\\n".join(sorted({span["name"] for span in tracer.spans})))
"""


def test_tracer_instruments_the_package():
    # A subprocess keeps the tracer's patches out of this test process.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", TRAIN_EACH_KIND],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    assert "training.normalize_rows" in names
    for kind in ("plsa", "mwa", "itm"):
        assert f"{kind}.train_{kind}" in names
        assert f"{kind}.{kind.capitalize()}Model.log_likelihood" in names
