"""Raw and code-only line counts per module of a package (``src/tagtopics`` by default).

A code-only line holds at least one token that is not a comment and not part of a
docstring (a string that opens a module, class or function body); blank lines count
in the raw total only.  Standard library only::

    python3 tools/src_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set:
    """The ``(line, column)`` where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """``(raw, code-only)`` line counts of a module's ``source``."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "tagtopics"
    counts = {path.name: count_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for name, (raw, code) in counts.items():
        print(f"{name:<16} {raw:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
