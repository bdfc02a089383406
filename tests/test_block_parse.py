"""The block-wise triples parse held to the per-line parse it replaced,
``oracles.ingest_triples``: the same vocabularies, ids and counts, the same
error at the same line, and no more memory."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import MALFORMED, RESERVED, traced_peak
from tagtopics import corpus
from tagtopics.corpus import BLOCK_LINES, ingest_triples, read_corpus, read_vocabularies
from tagtopics.errors import DataError

DATA = Path(__file__).parent / "data"

# Line numbers that sit on block edges: the first line, the last line of
# block 1, the first line of block 2, and a line past block 3.
POSITIONS = [1, BLOCK_LINES, BLOCK_LINES + 1, 3 * BLOCK_LINES + 7]

# tracemalloc peak of read_corpus on memory_test_lines() under the per-line
# parse that the block parse replaced (Python 3.11, numpy 2.4), measured once:
# a fixed bound, never to be raised.
PER_LINE_PEAK_BYTES = 8_040_436


# A well-formed record (or a comment, when its resource starts with "#"),
# and a line of any tokens, mostly malformed.
RECORD = st.builds(lambda names, count: "\t".join(names + count),
                   st.lists(st.sampled_from(["a", "b", "u", " ", "#c"]), min_size=3, max_size=3),
                   st.lists(st.sampled_from(["1", "2", "10"]), max_size=1))
ANY_LINE = st.builds("\t".join, st.lists(
    st.sampled_from(["a", "b", "", " ", "#c", "1", "0", "-1", "+3", "\u0663", "a\rb"]), max_size=5))


def good_lines(count, start=0):
    """``count`` well-formed records, with and without a count field."""
    return [f"r{i % 97}\tu{i % 31}\tt{i % 53}" + (f"\t{i % 4 + 1}" if i % 3 else "")
            for i in range(start, start + count)]


def varied_lines(rng, count):
    """Records of 3 and 4 fields ending in LF or CRLF, with comments (tabs
    in them too), blank and whitespace-only lines, names that start with an
    indented ``#`` (data, not comments), and no newline after the last line."""
    lines = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.03:
            line = "# comment\twith\ttabs"
        elif kind < 0.06:
            line = rng.choice(["", "   ", "\t\t", " \t \t "])
        else:
            line = (f"{rng.choice(['r', ' #r', 'r#'])}{rng.randrange(400)}"
                    f"\tu{rng.randrange(90)}\tt{rng.randrange(150)}")
            if rng.random() < 0.5:
                line += f"\t{rng.randrange(1, 12)}"
        lines.append(line + rng.choice(["\n", "\r\n"]))
    lines[-1] = lines[-1].rstrip("\r\n")
    return lines


def entries(vocabs):
    return [vocabs.resources.entries, vocabs.users.entries, vocabs.tags.entries]


def assert_same_corpus(got, want):
    assert entries(got) == entries(want)
    for name in ("r_ids", "u_ids", "t_ids", "counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def error_of(parse, source) -> str:
    with pytest.raises(DataError) as info:
        parse(source)
    return str(info.value)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestSameAsPerLine:
    @pytest.mark.parametrize("path", sorted(DATA.glob("corpus.*.tsv")), ids=lambda path: path.name)
    def test_pinned_corpora(self, path):
        with open(path, encoding="utf-8") as stream:
            want = oracles.ingest_triples(stream)
        assert_same_corpus(read_corpus(path), want)
        assert entries(read_vocabularies(path)) == entries(want)

    @pytest.mark.parametrize("seed, count", [(0, 4 * BLOCK_LINES + 123), (1, 3 * BLOCK_LINES + 1),
                                             (2, BLOCK_LINES), (3, 5)])
    def test_generated_lines(self, seed, count, tmp_path):
        lines = varied_lines(random.Random(seed), count)
        want = oracles.ingest_triples(lines)
        assert_same_corpus(ingest_triples(lines), want)
        path = tmp_path / "triples.tsv"
        path.write_text("".join(lines), encoding="utf-8", newline="")  # CRLF kept on disk
        assert_same_corpus(read_corpus(path), want)
        assert entries(read_vocabularies(path)) == entries(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(str.__add__, st.one_of(RECORD, RECORD, ANY_LINE),
                              st.sampled_from(["", "\n", "\r\n"])),
                    max_size=12),
           st.integers(1, 4))
    def test_any_lines_at_any_block_size(self, lines, block_lines):
        def outcome(parse):
            try:
                parsed = parse(lines)
            except DataError as exc:
                return str(exc)
            return (entries(parsed), parsed.r_ids.tolist(), parsed.u_ids.tolist(),
                    parsed.t_ids.tolist(), parsed.counts.tolist())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "BLOCK_LINES", block_lines)
            assert outcome(ingest_triples) == outcome(oracles.ingest_triples)


class TestErrorsWhereTheyAre:
    @pytest.mark.parametrize("lineno", POSITIONS)
    @pytest.mark.parametrize("bad", [line for line, _ in MALFORMED])
    def test_malformed_line(self, bad, lineno, tmp_path):
        lines = good_lines(lineno - 1) + [bad] + good_lines(5, lineno) + ["broken"]
        message = error_of(ingest_triples, lines)
        assert message == error_of(oracles.ingest_triples, lines)
        assert message.startswith(f"line {lineno}: ")
        path = write_lines(tmp_path / "triples.tsv", lines)
        assert error_of(read_corpus, path) == message
        assert error_of(read_vocabularies, path) == message

    @pytest.mark.parametrize("lineno", POSITIONS)
    @pytest.mark.parametrize("bad", RESERVED)
    def test_reserved_character(self, bad, lineno):
        lines = good_lines(lineno - 1) + [bad] + good_lines(5, lineno)
        message = error_of(ingest_triples, lines)
        assert message == error_of(oracles.ingest_triples, lines)
        assert message.endswith("contains reserved characters")

    def test_malformed_line_after_a_reserved_character(self):
        lines = [RESERVED[0]] + good_lines(3 * BLOCK_LINES) + ["broken"]
        message = error_of(ingest_triples, lines)
        assert message == error_of(oracles.ingest_triples, lines)
        assert message == f"line {3 * BLOCK_LINES + 2}: expected 3 or 4 tab-separated fields, got 1"

    @pytest.mark.parametrize("count", [0, *POSITIONS])
    def test_no_record(self, count, tmp_path):
        lines = [("# note", "", "   ", "\t\t")[i % 4] for i in range(count)]
        assert error_of(ingest_triples, lines) == error_of(oracles.ingest_triples, lines)
        assert error_of(ingest_triples, lines) == "empty corpus"
        assert error_of(read_vocabularies, write_lines(tmp_path / "triples.tsv", lines)) == "empty corpus"


def memory_test_lines() -> str:
    """60k seeded records of 4 fields, one of them a repeat."""
    rng = np.random.default_rng(60_000)
    n = 60_000
    columns = (rng.integers(0, 3000, n), rng.integers(0, 1200, n), rng.integers(0, 2000, n),
               rng.integers(1, 6, n))
    return "".join(f"r{r}\tu{u}\tt{t}\t{c}\n" for r, u, t, c in zip(*(col.tolist() for col in columns)))


def test_read_corpus_peak_memory(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text(memory_test_lines(), encoding="utf-8")
    parsed, peak = traced_peak(lambda: read_corpus(path))
    assert parsed.num_triples == 59_999
    assert peak <= PER_LINE_PEAK_BYTES
    assert entries(read_vocabularies(path)) == entries(parsed)
