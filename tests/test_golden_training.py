"""Training output pinned byte for byte.

``tests/data/trained.<kind>.w<workers>`` holds the model file and
``tests/data/trained.ll`` the ``float.hex`` log-likelihood histories that
training on ``toy_corpus`` produced when they were written.  Any change to
the trainers' arithmetic or summation order shows up here.

Rewrite the files (only after a deliberate numeric change) with
``PYTHONPATH=src python tests/test_golden_training.py``.
"""

from pathlib import Path

import pytest

from tagtopics import train_itm, train_mwa, train_plsa
from tagtopics.training import TrainConfig

DATA = Path(__file__).parent / "data"
TRAINERS = {"plsa": train_plsa, "mwa": train_mwa, "itm": train_itm}
CASES = [(kind, workers) for kind in TRAINERS for workers in (1, 2)]


def train(corpus, kind, workers, path):
    cfg = TrainConfig(model=kind, topics=2, interests=2, tol=1e-12, max_iters=25,
                      seed=3, workers=workers)
    model, log = TRAINERS[kind](corpus, cfg)
    model.save(path)
    return " ".join([kind, str(workers)] + [ll.hex() for ll in log.log_likelihoods])


@pytest.mark.parametrize("kind,workers", CASES)
def test_training_reproduces_golden_output(kind, workers, toy_corpus, tmp_path):
    history = train(toy_corpus, kind, workers, tmp_path / "model")
    golden = DATA / f"trained.{kind}.w{workers}"
    assert (tmp_path / "model").read_bytes() == golden.read_bytes()
    assert history in (DATA / "trained.ll").read_text().splitlines()


if __name__ == "__main__":
    from conftest import toy_corpus

    corpus = toy_corpus.__wrapped__()
    lines = [train(corpus, kind, workers, DATA / f"trained.{kind}.w{workers}")
             for kind, workers in CASES]
    (DATA / "trained.ll").write_text("\n".join(lines) + "\n")
