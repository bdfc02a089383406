"""The line rules shared by the text readers: the TSV readers of triples and
relevance labels, and the comment rule of every reader."""

import io

import numpy as np
import pytest

from tagtopics import PlsaModel, RankedList, planted_two_topic_spec
from tagtopics._textio import write_model
from tagtopics.corpus import ingest_triples
from tagtopics.errors import DataError
from tagtopics.metrics import LabelSet
from tagtopics.modelio import read_model
from tagtopics.sampling import read_spec, write_spec
from tagtopics.similarity import read_ranking, write_ranking


def triples(lines):
    corpus = ingest_triples(lines)
    vocabs = (corpus.resources, corpus.users, corpus.tags)
    return [vocab.entries for vocab in vocabs], corpus.counts.tolist()


def labels(lines):
    return LabelSet.from_tsv(lines).labels


# Each reader with two good records and one line it rejects.
READERS = [
    pytest.param(triples, ["a\tu\tx", "b\tv\ty\t2"], "a\tu", id="ingest_triples"),
    pytest.param(labels, ["a\tsame", "b\tlink-to"], "a same", id="LabelSet.from_tsv"),
]


@pytest.mark.parametrize("read, records, broken", READERS)
class TestReaders:
    def test_crlf_line_endings(self, read, records, broken):
        assert read([f"{line}\r\n" for line in records]) == read(records)

    def test_blank_and_comment_lines_skipped(self, read, records, broken):
        lines = ["# header", "", "   ", "\t", " \t \r\n", records[0], "#\tnot\ta record",
                 "\n", records[1], "# trailing"]
        assert read(lines) == read(records)

    def test_error_line_counts_skipped_lines(self, read, records, broken):
        lines = ["# header\r\n", "\n", "  \n", f"{records[0]}\n", f"{broken}\n"]
        with pytest.raises(DataError, match=r"^line 5: "):
            read(lines)


def written(write, obj) -> list[str]:
    stream = io.StringIO()
    write(obj, stream)
    return stream.getvalue().splitlines(keepends=True)


def model_text(model) -> str:
    return "".join(written(write_model, model))


def spec_text(spec) -> str:
    return "".join(written(write_spec, spec))


MODEL = PlsaModel(tag_given_topic=np.array([[0.25, 0.75, 0.0], [0.5, 0.125, 0.375]]),
                  topic_given_resource=np.array([[0.5, 0.5], [1.0, 0.0]]),
                  resource_probs=np.array([0.25, 0.75]), seed=4)
RANKING = RankedList(seed="a", entries=[(1, 0.0), (2, 0.5)])

# Each text reader: the lines of a good file and a reading to compare.
TEXT_READERS = [
    pytest.param(lambda lines: model_text(read_model(iter(lines))),
                 written(write_model, MODEL), id="model"),
    pytest.param(lambda lines: spec_text(read_spec(iter(lines))),
                 written(write_spec, planted_two_topic_spec()), id="spec"),
    pytest.param(triples, ["a\tu\tx\n", "b\tv\ty\t2\n"], id="triples"),
    pytest.param(labels, ["a\tsame\n", "b\tlink-to\n"], id="labels"),
    pytest.param(lambda lines: read_ranking(iter(lines)),
                 written(lambda ranked, stream: write_ranking(ranked, stream, meta={"seed": "a"}),
                         RANKING), id="ranking"),
]


@pytest.mark.parametrize("read, lines", TEXT_READERS)
def test_a_comment_is_a_hash_in_the_first_column(read, lines):
    """``#`` first, blank and whitespace-only lines are skipped anywhere; an indented
    ``#`` line is data, so it is rejected wherever it stands."""
    expected = read(lines)
    for k in sorted({0, 1, 2, len(lines) // 2, len(lines)}):
        assert read([*lines[:k], "# note\n", "\n", " \t \r\n", *lines[k:]]) == expected
        with pytest.raises(DataError):
            read([*lines[:k], "  # note\n", *lines[k:]])
