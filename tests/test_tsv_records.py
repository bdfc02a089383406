"""The line rules shared by the two TSV readers: triples and relevance labels."""

import pytest

from tagtopics.corpus import ingest_triples
from tagtopics.errors import DataError
from tagtopics.metrics import LabelSet


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
