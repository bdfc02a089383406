"""Line-oriented text helpers and the schema-driven model file format.

A model file is laid out by its class schema (see ``training.Model``):
``kind``, ``DIMS`` (its size names in header order) and ``TABLES``
(``(attribute, label, dims)`` triples in file order).  Model file format v1::

    # tagtopics model format v1
    <kind> <size for each name in DIMS> <seed>
    <the rows of each table in TABLES order, one row per line>

A table of shape ``(a, ..., b)`` is written as its ``a * ...`` rows of ``b``
values in C order; a vector is one row.  Probabilities are written with
``repr`` (shortest round-trip form), so a write/read cycle reproduces the
exact float64 values.  Blank lines and ``#`` comments (``#`` as the first
character, see :func:`skipped`) are skipped on read; any other line after the
last table is an error.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .errors import DataError


def skipped(line: str) -> bool:
    """Whether every text reader skips ``line``: a comment, whose first character
    is ``#``, or a blank or whitespace-only line.  An indented ``#`` is data."""
    return not line or line[0] == "#" or line.isspace()


def tsv_records(lines):
    """``(lineno, fields)`` for each line that is not :func:`skipped`: the line
    less its trailing CR and LF characters, split on tabs.  Lines are numbered
    from 1, the skipped ones included."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not skipped(line):
            yield lineno, line.split("\t")


def next_fields(stream, what: str = "data") -> list[str]:
    """Whitespace-split fields of the next line that is not :func:`skipped`."""
    for line in stream:
        if not skipped(line):
            return line.split()
    raise DataError(f"unexpected end of file while reading {what}")


def parse_ints(fields: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in fields]
    except ValueError:
        raise DataError(f"{what}: expected integers, got {fields!r}") from None


def parse_matrix(stream, n_rows: int, n_cols: int, what: str) -> np.ndarray:
    rows = []
    for i in range(n_rows):
        fields = next_fields(stream, f"{what} row {i}")
        if len(fields) != n_cols:
            raise DataError(f"{what} row {i}: expected {n_cols} values, got {len(fields)}")
        try:
            rows.append(np.array(fields, dtype=np.float64))
        except ValueError:
            raise DataError(f"{what} row {i}: non-numeric value") from None
    return np.array(rows)


def write_model(model, stream) -> None:
    """Write ``model`` in format v1, laid out by its class schema."""
    sizes = " ".join(str(getattr(model, dim)) for dim in model.DIMS)
    stream.write(f"# tagtopics model format v1\n{model.kind} {sizes} {model.seed}\n")
    for attr, _, _ in model.TABLES:
        table = getattr(model, attr)
        for row in table.reshape(-1, table.shape[-1]):
            stream.write(" ".join(map(repr, row.tolist())) + "\n")


@contextlib.contextmanager
def atomic_write(path):
    """Text stream to a new file beside ``path`` that replaces it when the block ends."""
    temp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(temp, "x", encoding="utf-8") as stream:
            yield stream
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def save(model, path) -> None:
    with atomic_write(path) as stream:
        write_model(model, stream)


def read_tables(cls, header: list[str], stream):
    """Read the tables that follow the already-split ``header`` line and
    return the validated ``cls`` instance."""
    if header[0] != cls.kind or len(header) != len(cls.DIMS) + 2:
        raise DataError(f"bad {cls.kind} header: {' '.join(header)!r}")
    *sizes, seed = parse_ints(header[1:], f"{cls.kind} header")
    size = dict(zip(cls.DIMS, sizes))
    tables = {}
    for attr, label, dims in cls.TABLES:
        shape = tuple(size[dim] for dim in dims)
        if min(shape) < 1:
            raise DataError(f"{label}: dimension must be positive, got {shape}")
        rows = parse_matrix(stream, math.prod(shape[:-1]), shape[-1], label)
        tables[attr] = rows.reshape(shape)
    if not all(map(skipped, stream)):
        raise DataError(f"{cls.kind} model: data after the last table")
    model = cls(**tables, seed=seed)
    model.validate()
    return model


def validate(model, atol: float) -> None:
    """Check every table against the class schema: its ndim, sizes that
    agree across tables, finite non-negative entries, and sums of 1 (within
    ``atol``) over the last axis."""
    size: dict[str, int] = {}
    for attr, label, dims in model.TABLES:
        table = getattr(model, attr)
        if table.ndim != len(dims):
            raise DataError(f"{label} must be a {len(dims)}-D table, got {table.ndim}-D")
        for dim, n in zip(dims, table.shape):
            if size.setdefault(dim, n) != n:
                raise DataError(f"{label}: {dim} is {n}, but {size[dim]} in an earlier table")
        if not np.isfinite(table).all():
            raise DataError(f"{label} has non-finite entries")
        if (table < 0).any():
            raise DataError(f"{label} has negative entries")
        if not np.allclose(table.sum(axis=-1), 1.0, rtol=0, atol=atol):
            raise DataError(f"{label} rows do not sum to 1")
