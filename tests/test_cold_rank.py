"""``tagtopics rank`` parses only the tables that its model's p(z|r) reads.

``modelio.load_ranked`` parses the ``RANKED`` tables of the model class and
steps over the rows of every other table, so a value there that is not a
number, or that breaks a row sum, does not stop a ranking.  Every check of
the file's layout still holds: a row with the wrong number of fields, a
missing row, data after the last table and a shape too large to allocate
fail as ``load_model`` fails on them, with its message and exit code 2.
"""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from tagtopics import _textio, cli
from tagtopics.corpus import save_corpus
from tagtopics.errors import DataError
from tagtopics.modelio import MODEL_TYPES, load_model, load_ranked

DATA = Path(__file__).parent / "data"  # trained.<kind> and golden.<kind> model files
KINDS = tuple(MODEL_TYPES)

# The tables that rank steps over, by model kind.
SKIPPED = {"plsa": ["p(r)", "p(t|z)"], "mwa": ["p(u|z)", "p(t|z)"],
           "itm": ["p(u)", "p(r)", "p(i|u)", "p(t|i,z)"]}


def layout(text: str, cls):
    """The lines of model file ``text`` and the indices of each table's rows, by label."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not _textio.skipped(line)]
    size = dict(zip(cls.DIMS, map(int, lines[data[0]].split()[1:-1])))
    rows, at = {}, 1
    for _, label, dims in cls.TABLES:
        n_rows = math.prod(size[dim] for dim in dims[:-1])
        rows[label], at = data[at:at + n_rows], at + n_rows
    return lines, rows


def respaced(line: str, drop: int = 0) -> str:
    """``line``'s values less the last ``drop``, between double spaces and tabs."""
    values = line.split()
    values = values[:len(values) - drop]
    return "".join(value + ("  " if i % 2 else "\t") for i, value in enumerate(values)) + "\n"


# Each edit of one row of a table: (name, new text of the row from the old).
ROW_EDITS = [
    ("non-numeric", lambda line: "bogus " + line.split(" ", 1)[1]),
    ("short", lambda line: " ".join(line.split()[:-1]) + "\n"),
    ("long", lambda line: line.rstrip("\n") + " 0.5\n"),
    ("spaced", respaced),
    ("spaced-short", lambda line: respaced(line, drop=1)),
    ("missing", lambda line: ""),
    ("doubled", lambda line: line + line),
    ("negative", lambda line: "-" + line),
    ("scaled", lambda line: " ".join(repr(2 * float(v)) for v in line.split()) + "\n"),
]


@pytest.fixture
def corpus_path(toy_corpus, tmp_path):
    path = tmp_path / "corpus.tsv"
    save_corpus(toy_corpus, path)
    return path


def outcome(model_path, corpus_path, out, capsys):
    """``(exit code, ranking bytes or stderr)`` of ``tagtopics rank`` for seed r0."""
    code = cli.main(["rank", str(model_path), str(corpus_path), "r0", "--output", str(out)])
    return code, out.read_bytes() if code == 0 else capsys.readouterr().err


PREFIX = "tagtopics: data error: "
# The errors of load_model that rank does not raise in a table it steps over.
UNCHECKED = ("non-numeric value", "has negative entries", "rows do not sum to 1")


def expected(model_path, ranked: bytes):
    """``(exit code, output)`` of ``rank`` on a model file that a full load either
    reads, when it has the model's ``ranked`` bytes, or rejects with its error."""
    try:
        load_model(model_path)
    except DataError as exc:
        return 2, f"{PREFIX}{exc}\n"
    return 0, ranked


def test_skipped_tables_are_those_the_ranking_does_not_read():
    for kind, cls in MODEL_TYPES.items():
        assert [label for attr, label, _ in cls.TABLES if attr not in cls.RANKED] == SKIPPED[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_rank_parses_only_the_ranked_tables(kind, corpus_path, tmp_path, monkeypatch):
    parsed = []
    read_table = _textio.read_table

    def recorded(lines, shape, what, parse=True):
        parsed.extend([what] * parse)
        return read_table(lines, shape, what, parse)

    monkeypatch.setattr(_textio, "read_table", recorded)
    out = tmp_path / "ranking.tsv"
    assert cli.main(["rank", str(DATA / f"trained.{kind}"), str(corpus_path), "r0",
                     "--output", str(out)]) == 0
    cls = MODEL_TYPES[kind]
    assert parsed == [label for attr, label, _ in cls.TABLES if attr in cls.RANKED]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("edit", [name for name, _ in ROW_EDITS])
def test_an_edited_row_fails_as_a_full_load_does(kind, edit, corpus_path, tmp_path, capsys):
    """An edit of the first and of the last row of each table: ``rank`` fails
    with ``load_model``'s message unless the error lies in a value's text or a
    row sum of a table it steps over; those leave the ranking's bytes."""
    cls, change = MODEL_TYPES[kind], dict(ROW_EDITS)[edit]
    lines, rows = layout((DATA / f"trained.{kind}").read_text(), cls)
    out, model_path = tmp_path / "ranking.tsv", tmp_path / f"edited.{kind}"
    ranked = outcome(DATA / f"trained.{kind}", corpus_path, out, capsys)[1]
    for label, indices in rows.items():
        for index in {indices[0], indices[-1]}:
            edited = lines[:index] + [change(lines[index])] + lines[index + 1:]
            model_path.write_text("".join(edited))
            code, want = expected(model_path, ranked)
            if code and label in SKIPPED[kind] and want.startswith(f"{PREFIX}{label}") and any(
                    error in want for error in UNCHECKED):
                code, want = 0, ranked
            assert outcome(model_path, corpus_path, out, capsys) == (code, want), (label, index)


@pytest.mark.parametrize("kind", KINDS)
def test_a_non_numeric_token_in_each_skipped_table_still_ranks(kind, corpus_path, tmp_path,
                                                               capsys):
    cls = MODEL_TYPES[kind]
    lines, rows = layout((DATA / f"trained.{kind}").read_text(), cls)
    out, model_path = tmp_path / "ranking.tsv", tmp_path / f"edited.{kind}"
    ranked = outcome(DATA / f"trained.{kind}", corpus_path, out, capsys)[1]
    for label in SKIPPED[kind]:
        index = rows[label][0]
        lines[index] = "bogus " + lines[index].split(" ", 1)[1]
    model_path.write_text("".join(lines))
    with pytest.raises(DataError, match="non-numeric value"):
        load_model(model_path)
    assert outcome(model_path, corpus_path, out, capsys) == (0, ranked)


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_data_fails_as_a_full_load_does(kind, corpus_path, tmp_path, capsys):
    model_path, out = tmp_path / f"trailing.{kind}", tmp_path / "ranking.tsv"
    model_path.write_text((DATA / f"trained.{kind}").read_text() + "0.5\n")
    assert outcome(model_path, corpus_path, out, capsys) == (
        2, f"tagtopics: data error: {kind} model: data after the last table\n")


# A size of each kind that only a table that rank steps over has, made too large to allocate.
HUGE = [("plsa", "n_tags", "p(t|z): cannot allocate the declared shape (2, 1000000000000000)"),
        ("mwa", "n_users", "p(u|z): cannot allocate the declared shape (2, 1000000000000000)"),
        ("itm", "n_users", "p(u): cannot allocate the declared shape (1000000000000000,)")]


@pytest.mark.parametrize("kind, dim, message", HUGE)
def test_a_skipped_table_too_large_to_allocate_fails(kind, dim, message, corpus_path, tmp_path,
                                                     capsys):
    cls = MODEL_TYPES[kind]
    lines, _ = layout((DATA / f"trained.{kind}").read_text(), cls)
    header = lines[1].split()
    header[1 + cls.DIMS.index(dim)] = str(10**15)
    lines[1] = " ".join(header) + "\n"
    model_path, out = tmp_path / f"huge.{kind}", tmp_path / "ranking.tsv"
    model_path.write_text("".join(lines))
    with pytest.raises(DataError) as full:
        load_model(model_path)
    assert str(full.value) == message
    assert outcome(model_path, corpus_path, out, capsys) == (2, f"tagtopics: data error: {message}\n")


@pytest.mark.parametrize("path", [*(DATA / f"trained.{kind}" for kind in KINDS),
                                  *(DATA / f"golden.{kind}" for kind in KINDS)],
                         ids=lambda path: path.name)
def test_cold_p_z_given_r_has_the_bits_of_a_full_load(path):
    cls, size, tables = load_ranked(path)
    model = load_model(path)
    assert cls is type(model)
    assert size == model.size
    assert sorted(tables) == sorted(cls.RANKED)
    want = model.topic_distributions()
    got = cls.topic_distributions_of(tables)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for attr in cls.RANKED:
        assert np.array_equal(tables[attr], getattr(model, attr))


# Rows of a few and of many values (above ``_textio._COUNT_ROW_CHARS``), plain and with one
# separator replaced by other whitespace, or with a leading or trailing space: the
# step-over must count each as ``split`` does.
VALUES = {"short": "0.5 0.25 0.25", "long": " ".join(["0.000123456789"] * 600)}
EDITS = {
    "plain": lambda row: row,
    "tab": lambda row: row.replace(" ", "\t", 1),
    "two spaces": lambda row: row.replace(" ", "  ", 1),
    "leading space": lambda row: " " + row,
    "trailing space": lambda row: row + " ",
    "vertical tab": lambda row: row.replace(" ", "\x0b", 1),
    "no-break space": lambda row: row.replace(" ", "\xa0", 1),
    "em space": lambda row: row.replace(" ", "\u2003", 1),
    "carriage return": lambda row: row + "\r",
    "file separator": lambda row: row.replace(" ", "\x1c", 1),
    "nul": lambda row: row.replace(" ", "\x00", 1),  # a control character, not whitespace
    "non-numeric": lambda row: "nan " + row,
}


def step_error(row: str, n_cols: int, parse: bool):
    """The message of ``parse_matrix``'s error on the one-row ``row``, or None."""
    try:
        _textio.parse_matrix(io.StringIO(row), 1, n_cols, "p(t|z)", parse=parse)
    except DataError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("size", VALUES)
@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("newline", ["\n", ""], ids=["newline", "last-line"])
def test_a_stepped_over_row_has_the_field_count_and_errors_of_a_split(size, edit, newline):
    row = EDITS[edit](VALUES[size]) + newline
    width = len(row.split())
    assert _textio.field_count(row) == width
    assert step_error(row, width, parse=False) is None
    for n_cols in (width - 1, width + 1):
        want = f"p(t|z) row 0: expected {n_cols} values, got {width}"
        assert step_error(row, n_cols, parse=False) == step_error(row, n_cols, parse=True) == want
