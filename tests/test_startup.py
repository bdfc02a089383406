"""Start-up cost: scipy is imported on the first divergence, not with the
package, and the first divergence may come from a pool thread's block."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WITHOUT_RANKING = """
import sys
import tagtopics, tagtopics.cli
from tagtopics import cli
from tagtopics.sampling import PlantedSpec, planted_two_topic_spec, save_spec

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def run(*argv):
    assert cli.main([str(arg) for arg in argv]) == 0, argv

assert not scipy_loaded(), scipy_loaded()
with open("triples.tsv", "w") as stream:
    stream.write("a\\tu1\\tx\\na\\tu2\\tx\\nb\\tu1\\ty\\nb\\tu2\\tz\\t2\\n")
run("ingest", "triples.tsv", "corpus.tsv")
run("train", "corpus.tsv", "model.plsa", "--model", "plsa", "--topics", 2, "--max-iters", 3)
with open("ranking.tsv", "w") as stream:
    stream.write("# model=plsa K=2 base=e seed=a\\nrank\\tresource\\tdivergence\\n1\\tb\\t0.5\\n")
with open("labels.tsv", "w") as stream:
    stream.write("b\\tsame\\n")
run("eval", "ranking.tsv", "labels.tsv", "--k", 1, "--n", 1)
spec = planted_two_topic_spec()
save_spec(PlantedSpec(spec.model, n_samples=200, seed=spec.seed), "planted.spec")
run("sample", "planted.spec", "sampled.tsv")
assert not scipy_loaded(), scipy_loaded()
run("rank", "model.plsa", "corpus.tsv", "a", "--output", "ranked.tsv")
assert "scipy.special" in sys.modules
print("ok")
"""

POOLED_FIRST = """
import sys, threading
import numpy as np
from tagtopics import similarity

importers = []
def audit(event, args):
    if event == "import" and args[0] == "scipy.special":
        importers.append(threading.current_thread() is threading.main_thread())
sys.addaudithook(audit)

similarity._cores = lambda: 2  # two blocks of 1,024 rows or more, on any host
probs = np.random.default_rng(7).dirichlet(np.full(8, 0.3), size=2 * similarity.MIN_BLOCK_ROWS + 5)
assert "scipy" not in sys.modules
pooled = similarity.rank_rows(probs, 3)
assert similarity._pool is not None, "the matrix was not split"
assert importers == [True], importers  # imported once, on the calling thread
similarity.MIN_BLOCK_ROWS = len(probs) + 1  # now one block, on the calling thread
single = similarity.rank_rows(probs, 3)
assert similarity._pool is not None and pooled.entries == single.entries
assert [d.hex() for _, d in pooled.entries] == [d.hex() for _, d in single.entries]
print("ok")
"""


def run_fresh(script, cwd):
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "ok"


def test_only_rank_imports_scipy(tmp_path):
    run_fresh(WITHOUT_RANKING, tmp_path)


def test_first_divergence_from_a_split_ranking_has_single_block_bits(tmp_path):
    run_fresh(POOLED_FIRST, tmp_path)
