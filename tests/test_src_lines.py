"""``tools/src_lines.py`` counts the raw and code-only lines that ROADMAP aim 2
tracks; its ``count_lines`` is checked here on a source whose lines are marked."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# (line, is it code?): docstrings, comments and blank lines count in raw only.
LINES = [
    ('"""A module docstring', False),
    ('over two lines."""', False),
    ("", False),
    ("# a comment-only line", False),
    ("import os", True),
    ("", False),
    ("", False),
    ("class Thing:", True),
    ('    """A class docstring."""', False),
    ("", False),
    ("    def method(self):", True),
    ('        """A function docstring', False),
    ('        over two lines."""', False),
    ('        text = """a string that is not a docstring', True),
    ('spans two lines"""  # and ends in a comment', True),
    ("        return os.path.join(  # a call over four lines", True),
    ("            text,", True),
    ('            "x",', True),
    ("        )", True),
]


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_counts_docstrings_comments_and_blanks_in_raw_only():
    source = "".join(line + "\n" for line, _ in LINES)
    compile(source, "<marked>", "exec")  # the marked source is valid Python
    raw, code = load_tool().count_lines(source)
    assert (raw, code) == (len(LINES), sum(is_code for _, is_code in LINES))
    assert (raw, code) == (19, 9)


@pytest.mark.parametrize("source, counts", [
    ('"""A module docstring\nover two lines."""\n', (2, 0)),
    ("# a comment\n\n", (2, 0)),
    ('class A:\n    """A class docstring."""\n', (2, 1)),
    ('def f():\n    """A function\n    docstring."""\n', (3, 1)),
    ('x = 1\n"""A string after the first statement is code,\nnot a docstring."""\n', (3, 3)),
    ('text = """a string\nover two lines"""\n', (2, 2)),
    ("print(\n    1,\n)\n", (3, 3)),
], ids=["module_docstring", "comment_and_blank", "class_docstring", "function_docstring",
        "string_not_first", "multi_line_string", "multi_line_call"])
def test_count_lines_counts_each_construct(source, counts):
    assert load_tool().count_lines(source) == counts
