"""Training output pinned byte for byte, at every tested worker count.

``tests/data/trained.<kind>`` holds the model file and
``tests/data/trained.ll`` the ``float.hex`` log-likelihood history per kind
that training on ``toy_corpus`` produced when they were written.
``tests/data/trained.sliced`` holds, per kind, the model file's SHA-256 and
the ``float.hex`` history of training on ``sliced_corpus``, where every
slice of the E-step spans several itm chunks and itm tag runs cross chunk
and slice edges.  Any change to the trainers' arithmetic or summation order
shows up here, and so does any dependence of the result on the worker count.

Rewrite the files (only after a deliberate numeric change) with
``PYTHONPATH=src python tests/test_golden_training.py``; it writes nothing
unless every tested worker count gives the same output.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import TRAINERS
from tagtopics import load_model
from tagtopics.itm import ItmModel
from tagtopics.sampling import PlantedSpec, sample_corpus
from tagtopics.training import TrainConfig

DATA = Path(__file__).parent / "data"
WORKERS = (1, 2, 3)
CASES = [(kind, workers) for kind in TRAINERS for workers in WORKERS]
TOY = {"topics": 2, "interests": 2, "tol": 1e-12, "max_iters": 25, "seed": 3}
# I*K = 4096, so an itm chunk holds 64 rows (a few tag runs).
SLICED = {"topics": 64, "interests": 64, "tol": 1e-12, "max_iters": 2, "seed": 4}


def sliced_corpus():
    """1,936 distinct triples over 100 tags sampled from a seeded random itm
    spec.  In itm's (t, r, u) row order each of the trainer's 8 slices of
    242 rows spans four 64-row chunks; 23 tag runs cross a chunk edge and 7
    cross a slice edge."""
    rng = np.random.default_rng(21)
    model = ItmModel(user_probs=rng.dirichlet(np.ones(30)),
                     resource_probs=rng.dirichlet(np.ones(40)),
                     interest_given_user=rng.dirichlet(np.ones(3), size=30),
                     topic_given_resource=rng.dirichlet(np.ones(4), size=40),
                     tag_given_interest_topic=rng.dirichlet(np.ones(100), size=(3, 4)))
    return sample_corpus(PlantedSpec(model=model, n_samples=2000, seed=22))


def train(corpus, kind, workers, path, knobs):
    """The saved model file's bytes and the ``kind ll...`` history line."""
    model, log = TRAINERS[kind](corpus, TrainConfig(model=kind, workers=workers, **knobs))
    model.save(path)
    return path.read_bytes(), " ".join([kind] + [ll.hex() for ll in log.log_likelihoods])


def sliced_line(model_bytes, history):
    """``kind sha256 ll...``: the history line with the model file's digest."""
    kind, lls = history.split(" ", 1)
    return f"{kind} {hashlib.sha256(model_bytes).hexdigest()} {lls}"


@pytest.fixture(scope="module")
def sliced():
    return sliced_corpus()


@pytest.mark.parametrize("kind,workers", CASES)
def test_training_reproduces_golden_output(kind, workers, toy_corpus, tmp_path):
    model, history = train(toy_corpus, kind, workers, tmp_path / "model", TOY)
    load_model(tmp_path / "model")  # validates every table
    assert model == (DATA / f"trained.{kind}").read_bytes()
    assert history in (DATA / "trained.ll").read_text().splitlines()


@pytest.mark.parametrize("kind,workers", CASES)
def test_multi_slice_training_reproduces_golden_output(kind, workers, sliced, tmp_path):
    line = sliced_line(*train(sliced, kind, workers, tmp_path / "model", SLICED))
    assert line in (DATA / "trained.sliced").read_text().splitlines()


def agreed(corpus, kind, path, knobs):
    """The one output of every tested worker count; exits if they differ."""
    outputs = {train(corpus, kind, workers, path, knobs) for workers in WORKERS}
    if len(outputs) != 1:
        raise SystemExit(f"{kind}: workers {WORKERS} disagree; no file written")
    return outputs.pop()


if __name__ == "__main__":
    from conftest import toy_corpus

    toy, sliced_ = toy_corpus.__wrapped__(), sliced_corpus()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model"
        toy_out = {kind: agreed(toy, kind, path, TOY) for kind in TRAINERS}
        sliced_out = {kind: agreed(sliced_, kind, path, SLICED) for kind in TRAINERS}
    for kind, (model, _) in toy_out.items():
        (DATA / f"trained.{kind}").write_bytes(model)
    (DATA / "trained.ll").write_text("".join(f"{history}\n" for _, history in toy_out.values()))
    (DATA / "trained.sliced").write_text(
        "".join(f"{sliced_line(*out)}\n" for out in sliced_out.values()))
