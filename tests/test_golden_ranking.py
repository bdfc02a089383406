"""Ranking output pinned byte for byte.

``tests/data/ranking.<kind>`` holds, one after another, the full ``tagtopics
rank`` output (``--top`` covering every resource) of the model
``tests/data/trained.<kind>`` over ``toy_corpus`` for each seed resource.
``tests/data/ranking.hand`` holds the ``write_ranking`` output of
``rank_by_seed`` over ``hand_distributions()`` for each of its seeds: exact
ties, zero probabilities, int ids inserted out of order and 40-topic rows.
Any change to the divergence arithmetic or to the tie order shows up here.

Rewrite the files (only after a deliberate numeric change) with
``PYTHONPATH=src python tests/test_golden_ranking.py``.
"""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tagtopics import cli
from tagtopics.corpus import save_corpus
from tagtopics.similarity import TopicDistribution, rank_by_seed, write_ranking

DATA = Path(__file__).parent / "data"
KINDS = ("plsa", "mwa", "itm")


def hand_distributions():
    """Hand-written 4-topic rows with ties and zeros under unsorted ids, then
    seeded 40-topic rows, a quarter of their entries zeroed, two of them equal."""
    rows = {
        7: [0.5, 0.5, 0.0, 0.0],
        2: [0.5, 0.5, 0.0, 0.0],
        11: [0.0, 0.0, 1.0, 0.0],
        0: [0.25, 0.25, 0.25, 0.25],
        5: [0.25, 0.25, 0.25, 0.25],
        3: [1.0, 0.0, 0.0, 0.0],
        9: [0.1, 0.2, 0.3, 0.4],
        4: [0.4, 0.3, 0.2, 0.1],
    }
    sets = [{rid: TopicDistribution(np.array(row)) for rid, row in rows.items()}]
    rng = np.random.default_rng(31)
    raw = rng.dirichlet(np.ones(40), size=30)
    raw[rng.random(raw.shape) < 0.25] = 0.0
    raw[17] = raw[4]
    wide = {}
    for rid, row in zip(rng.permutation(30) * 3 + 100, raw):
        wide[int(rid)] = TopicDistribution(row / row.sum())
    sets.append(wide)
    return sets


def hand_rankings() -> str:
    buffer = io.StringIO()
    for dists in hand_distributions():
        for seed in sorted(dists):
            write_ranking(rank_by_seed(dists, seed), buffer, meta={"seed": seed})
    return buffer.getvalue()


def cli_rankings(corpus, kind: str, scratch: Path) -> bytes:
    corpus_path, out = scratch / "corpus.tsv", scratch / "ranking.tsv"
    save_corpus(corpus, corpus_path)
    chunks = []
    for name in corpus.resources.entries:
        code = cli.main(["rank", str(DATA / f"trained.{kind}"), str(corpus_path), name,
                         "--top", str(len(corpus.resources)), "--output", str(out)])
        assert code == 0
        chunks.append(out.read_bytes())
    return b"".join(chunks)


@pytest.mark.parametrize("kind", KINDS)
def test_cli_rank_reproduces_golden_output(kind, toy_corpus, tmp_path):
    assert cli_rankings(toy_corpus, kind, tmp_path) == (DATA / f"ranking.{kind}").read_bytes()


def test_rank_by_seed_reproduces_golden_output():
    assert hand_rankings().encode() == (DATA / "ranking.hand").read_bytes()


if __name__ == "__main__":
    from conftest import toy_corpus

    toy = toy_corpus.__wrapped__()
    with tempfile.TemporaryDirectory() as scratch:
        outputs = {kind: cli_rankings(toy, kind, Path(scratch)) for kind in KINDS}
    for kind, output in outputs.items():
        (DATA / f"ranking.{kind}").write_bytes(output)
    (DATA / "ranking.hand").write_bytes(hand_rankings().encode())
