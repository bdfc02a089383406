"""The benchmark's tracer patches named hook points of the package; it must
still find every one of them, and the calls the benchmark makes must still reach
them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRAIN_EACH_KIND = """
import sys, tagtopics, tracing
tracer = tracing.Tracer(True)
corpus = tagtopics.ingest_triples(["a\\tu1\\tx", "a\\tu2\\ty", "b\\tu1\\ty"])
for kind in ("plsa", "mwa", "itm"):
    cfg = tagtopics.TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=2)
    model, _ = getattr(tagtopics, f"train_{kind}")(corpus, cfg)
    model.log_likelihood(corpus)  # as perfbench/workloads.py times ll_s
    path = f"{sys.argv[1]}/model.{kind}"
    model.save(path)
    tagtopics.load_model(path).topic_distribution(0)
print("\\n".join(sorted({span["name"] for span in tracer.spans})))
"""


def test_tracer_instruments_the_package(tmp_path):
    # A subprocess keeps the tracer's patches out of this test process.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", TRAIN_EACH_KIND, str(tmp_path)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    assert "training.normalize_rows" in names
    # The spans that perfbench/run.py's per-layer modelio and similarity metrics sum.
    assert "modelio.load_model" in names
    for kind in ("plsa", "mwa", "itm"):
        assert f"{kind}.train_{kind}" in names
        assert f"{kind}.{kind.capitalize()}Model.log_likelihood" in names
        assert f"{kind}.{kind.capitalize()}Model.save" in names
        assert f"{kind}.{kind.capitalize()}Model.topic_distribution" in names
