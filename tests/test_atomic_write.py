"""Output files are replaced whole or not at all.

Every writer of the package (model ``save``, ``save_corpus``, ``save_spec``
and ``rank --output``) goes through ``_textio.atomic_write``: a writer that
raises halfway leaves the old file byte for byte and no temporary file.
Model ``save`` and ``save_spec`` refuse what their readers would reject
before they write at all.
"""

import os

import numpy as np
import pytest

from tagtopics import _textio, cli, corpus, sampling
from tagtopics._textio import atomic_write
from tagtopics.corpus import save_corpus
from tagtopics.errors import DataError
from tagtopics.sampling import PlantedSpec, planted_two_topic_spec, save_spec


class Halfway(OSError):
    """Raised by the test writers after writing part of their output."""


def half_then_raise(*args):
    args[-1].write("partial output\n")
    raise Halfway("writer failed halfway")


def assert_untouched(path, old: bytes):
    assert path.read_bytes() == old
    assert os.listdir(path.parent) == [path.name]


def test_block_that_raises_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(Halfway):
        with atomic_write(path) as stream:
            half_then_raise(stream)
    assert_untouched(path, b"old\n")


def test_block_that_ends_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with atomic_write(path) as stream:
        stream.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_new_file_gets_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    with atomic_write(tmp_path / "atomic.txt") as stream:
        stream.write("x")
    assert (tmp_path / "atomic.txt").stat().st_mode == plain.stat().st_mode


def test_missing_directory_raises_and_leaves_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_write(tmp_path / "absent" / "out.txt") as stream:
            stream.write("x")
    assert os.listdir(tmp_path) == []


def test_model_save_failing_halfway(tmp_path, monkeypatch, hand_itm_model):
    path = tmp_path / "model.itm"
    hand_itm_model.save(path)
    old = path.read_bytes()
    monkeypatch.setattr(_textio, "write_model", half_then_raise)
    with pytest.raises(Halfway):
        hand_itm_model.save(path)
    assert_untouched(path, old)


def nan_entry(table):
    table[0, 0] = np.nan


def row_sum_of_1_2(table):
    table[0] *= 1.2


INVALID = pytest.mark.parametrize("spoil, message", [
    (nan_entry, r"^p\(t\|z\) has non-finite entries$"),
    (row_sum_of_1_2, r"^p\(t\|z\) rows do not sum to 1$"),
], ids=["nan", "row-sum-1.2"])


@INVALID
def test_model_save_refuses_an_invalid_model(tmp_path, hand_plsa_model, spoil, message):
    path = tmp_path / "model.plsa"
    hand_plsa_model.save(path)
    old = path.read_bytes()
    spoil(hand_plsa_model.tag_given_topic)
    with pytest.raises(DataError, match=message):
        hand_plsa_model.save(path)
    assert_untouched(path, old)


@INVALID
def test_save_spec_refuses_an_invalid_spec(tmp_path, hand_plsa_model, spoil, message):
    path = tmp_path / "planted.spec"
    spec = PlantedSpec(model=hand_plsa_model, n_samples=10, seed=1, n_users=2)
    save_spec(spec, path)
    old = path.read_bytes()
    spoil(hand_plsa_model.tag_given_topic)
    with pytest.raises(DataError, match=message):
        save_spec(spec, path)
    assert_untouched(path, old)


def test_save_corpus_failing_halfway(tmp_path, monkeypatch, toy_corpus):
    path = tmp_path / "corpus.tsv"
    save_corpus(toy_corpus, path)
    old = path.read_bytes()
    monkeypatch.setattr(corpus, "write_corpus_tsv", half_then_raise)
    with pytest.raises(Halfway):
        save_corpus(toy_corpus, path)
    assert_untouched(path, old)


def test_save_spec_failing_halfway(tmp_path, monkeypatch):
    path = tmp_path / "planted.spec"
    save_spec(planted_two_topic_spec(), path)
    old = path.read_bytes()
    monkeypatch.setattr(sampling, "write_spec", half_then_raise)
    with pytest.raises(Halfway):
        save_spec(planted_two_topic_spec(), path)
    assert_untouched(path, old)


def test_rank_output_failing_halfway(tmp_path, monkeypatch, toy_corpus):
    data = tmp_path / "data"
    data.mkdir()
    save_corpus(toy_corpus, data / "corpus.tsv")
    cfg = ["--model", "plsa", "--topics", "2", "--max-iters", "3"]
    assert cli.main(["train", str(data / "corpus.tsv"), str(data / "model"), *cfg]) == 0
    out = tmp_path / "out" / "ranking.tsv"
    out.parent.mkdir()
    rank = ["rank", str(data / "model"), str(data / "corpus.tsv"), "r0", "--output", str(out)]
    assert cli.main(rank) == 0
    old = out.read_bytes()

    def write_ranking(ranked, stream, **kwargs):
        half_then_raise(stream)

    monkeypatch.setattr(cli, "write_ranking", write_ranking)
    assert cli.main(rank) == 2
    assert_untouched(out, old)
