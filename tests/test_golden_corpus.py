"""Sampled and ingested corpora pinned byte for byte.

``tests/data/corpus.<case>.tsv`` holds the ``write_corpus_tsv`` output and
``tests/data/corpus.<case>.rt`` the ``rt_arrays()`` pairs (``r t n`` per
line) that each case produced when the files were written.  Any change to
the sampler's draws, the merge of repeated keys or the id assignment shows
up here.

Rewrite the files (only after a deliberate change) with
``PYTHONPATH=src python tests/test_golden_corpus.py``.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from tagtopics.corpus import ingest_triples, write_corpus_tsv
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import PlantedSpec, planted_two_topic_spec, sample_corpus

DATA = Path(__file__).parent / "data"

INGEST_LINES = [
    "# repeated keys, out of order, with and without counts",
    "r1\tu0\tt2",
    "r0\tu1\tt0\t3",
    "r1\tu0\tt2\t4",
    "",
    "r2\tu2\tt1",
    "r0\tu1\tt0",
    "r0\tu0\tt1\t2",
    "r2\tu2\tt1\t5",
    "r1\tu1\tt0",
    "r0\tu1\tt0\t2",
    "r2\tu0\tt2",
    "r1\tu0\tt2",
]


def random_plsa_spec():
    rng = np.random.default_rng(5)
    model = PlsaModel(tag_given_topic=rng.dirichlet(np.ones(9), size=3),
                      topic_given_resource=rng.dirichlet(np.ones(3), size=7),
                      resource_probs=rng.dirichlet(np.ones(7)))
    return PlantedSpec(model=model, n_samples=600, seed=6, n_users=4)


def random_mwa_spec():
    rng = np.random.default_rng(7)
    model = MwaModel(topic_probs=rng.dirichlet(np.ones(3)),
                     resource_given_topic=rng.dirichlet(np.ones(6), size=3),
                     user_given_topic=rng.dirichlet(np.ones(5), size=3),
                     tag_given_topic=rng.dirichlet(np.ones(8), size=3))
    return PlantedSpec(model=model, n_samples=600, seed=8)


CASES = {
    "planted": lambda: sample_corpus(planted_two_topic_spec()),
    "plsa": lambda: sample_corpus(random_plsa_spec()),
    "mwa": lambda: sample_corpus(random_mwa_spec()),
    "ingest": lambda: ingest_triples(INGEST_LINES),
}


def render(corpus) -> tuple[str, str]:
    tsv = io.StringIO()
    write_corpus_tsv(corpus, tsv)
    rt = "".join(f"{r} {t} {n}\n" for r, t, n in zip(*corpus.rt_arrays()))
    return tsv.getvalue(), rt


@pytest.mark.parametrize("case", CASES)
def test_corpus_reproduces_golden_output(case):
    tsv, rt = render(CASES[case]())
    assert tsv == (DATA / f"corpus.{case}.tsv").read_text(encoding="utf-8")
    assert rt == (DATA / f"corpus.{case}.rt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for case, build in CASES.items():
        tsv, rt = render(build())
        (DATA / f"corpus.{case}.tsv").write_text(tsv, encoding="utf-8")
        (DATA / f"corpus.{case}.rt").write_text(rt, encoding="utf-8")
