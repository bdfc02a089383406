"""Line-oriented text helpers and the schema-driven model file format.

A model file is laid out by its class schema (see ``training.Model``):
``kind``, ``DIMS`` (its size names in header order) and ``TABLES``
(``(attribute, label, dims)`` triples in file order).  Model file format v1::

    # tagtopics model format v1
    <kind> <size for each name in DIMS> <seed>
    <the rows of each table in TABLES order, one row per line>

A table of shape ``(a, ..., b)`` is written as its ``a * ...`` rows of ``b``
values in C order; a vector is one row.  Every value is written as ``repr``
writes it (the shortest text that reads back to it), byte for byte, so a
write/read cycle reproduces the exact float64 values.  The text comes from a
numpy Schubfach kernel, a block of :data:`BLOCK_VALUES` values at a time;
the values it leaves out (zero, subnormals, non-finite values and
magnitudes of 10 or more) go through ``repr`` itself.  :func:`save` writes
only a model that passes its ``validate``.  :func:`read_table` reads a table
back a block at a time too, or steps over it.  Blank lines and ``#`` comments
(``#`` as the first character, see :func:`skipped`) are skipped on read; any
other line after the last table is an error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from itertools import filterfalse, islice

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


def next_fields(stream, what: str) -> list[str]:
    """Whitespace-split fields of the next line of ``stream`` that is not :func:`skipped`."""
    for line in stream:
        if not skipped(line):
            return line.split()
    raise DataError(f"unexpected end of file while reading {what}")


# Rows at least this long are counted by numpy; below it, ``split`` costs less.
_COUNT_ROW_CHARS = 4096


def field_count(line: str) -> int:
    """``len(line.split())``.  A long ASCII line whose only whitespace, but a final
    newline, is single spaces between fields has its spaces counted without the split;
    every ASCII whitespace character is at most ``" "``."""
    body = line[:-1] if line.endswith("\n") else line
    if len(body) >= _COUNT_ROW_CHARS and body.isascii():
        codes = np.frombuffer(body.encode("ascii"), np.uint8)
        gaps = codes <= 32
        spaces = np.count_nonzero(gaps)
        if (spaces == np.count_nonzero(codes == 32) and not (gaps[0] or gaps[-1])
                and not (gaps[1:] & gaps[:-1]).any()):
            return spaces + 1
    return len(body.split())


def parse_ints(fields: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in fields]
    except ValueError:
        raise DataError(f"{what}: expected integers, got {fields!r}") from None


# Values per block of a table read or write: enough that numpy does the work,
# few enough that no block holds much of a file.
BLOCK_VALUES = 2**14


def read_table(lines, shape: tuple[int, ...], what: str, parse: bool = True) -> np.ndarray | None:
    """The table of ``shape`` in the next rows of ``lines``, an iterator of
    lines that are not :func:`skipped`; unless ``parse``, None, as the rows are
    only stepped over.  Blocks of about :data:`BLOCK_VALUES` values are parsed
    by ``np.loadtxt``.  A block that it refuses or reads to another shape, and
    every block stepped over, is read row by row: :func:`field_count` counts
    each row's values and, if parsed, ``float`` reads them, so the error is that
    of the block's first bad or missing row, numbered within the table.  A
    shape too large to allocate is a ``DataError``."""
    n_rows, n_cols = math.prod(shape[:-1]), shape[-1]
    try:
        table = np.empty((n_rows, n_cols))
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise DataError(f"{what}: cannot allocate the declared shape {shape}") from None
    step = max(BLOCK_VALUES // n_cols, 1)
    for first in range(0, n_rows, step):
        want = min(step, n_rows - first)
        block = list(islice(lines, want))
        rows = None
        if parse and len(block) == want:
            with contextlib.suppress(ValueError):
                rows = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2)
        if rows is not None and rows.shape == (want, n_cols):
            table[first:first + want] = rows
            continue
        for i, line in enumerate(block, start=first):
            if (width := field_count(line)) != n_cols:
                raise DataError(f"{what} row {i}: expected {n_cols} values, got {width}")
            if parse:
                try:
                    table[i] = list(map(float, line.split()))
                except ValueError:
                    raise DataError(f"{what} row {i}: non-numeric value") from None
        if len(block) < want:
            raise DataError(f"unexpected end of file while reading {what} row {first + len(block)}")
    return table.reshape(shape) if parse else None


# Shortest round-trip text of float64 values, a block at a time.  The digits
# are Schubfach's (R. Giulietti, "The Schubfach way to render doubles", 2020,
# in the steps of Java's DoubleToDecimal): for a normal double v = c * 2**q,
# the digits f and exponent k, v ~ f * 10**k, of the shortest decimal that
# reads back as v, the nearest such decimal to v and the even one of a tie,
# which are the digits of repr.  The products of the 126-bit g(k) ~ 10**-k and
# the scaled c, under 2**60, are taken on 32-bit halves in uint64.
_K_MIN, _K_MAX = -324, 292  # the range of k over the normal doubles
_LOW32, _LOW63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)


def _flog2_pow10(e):
    """floor(e * log2(10)) for |e| < 1700."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """Rows g1, and the upper and lower 32 bits of g1 and of g0, of g(k) =
    g1 * 2**63 + g0 = floor(10**-k * 2**(125 - floor(-k * log2(10)))) + 1, a
    column for each k from ``_K_MIN``."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2_pow10(-k)
        g = (10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    table = np.array(limbs, dtype=np.uint64).T.copy()
    table.setflags(write=False)
    return table


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """(a * b) >> 64 of a < 2**63 and b < 2**60, given as their 32-bit halves."""
    return a_hi * b_hi + ((a_hi * b_lo + a_lo * b_hi + ((a_lo * b_lo) >> 32)) >> 32)


def _rop(g, cp):
    """g * cp / 2**127 rounded to odd, as Schubfach's ``rop`` takes it."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _LOW32
    z = ((g1 * cp) >> 1) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    return (_mulhi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> 63)) | ((z << 1) != 0)


def _shortest(mag):
    """Digits f (16 or 17 of them, with trailing zeros) and exponent k of each
    normal positive double whose bits are ``mag``."""
    t = mag & np.uint64(2**52 - 1)
    c = t | np.uint64(2**52)
    q = (mag >> 52).astype(np.int64) - 1075
    odd = c & 1  # an even c's interval includes its ends
    edge = t == 0  # c == 2**52: the interval below v is half as wide
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) on the edge
    k = (q * 661_971_961_083 - edge * 274_743_187_321) >> 41
    h = (q + _flog2_pow10(-k) + 2).astype(np.uint64)
    g = np.take(_g_table(), k - _K_MIN, axis=1)
    cb = c << 2
    vb = _rop(g, cb << h)  # 4 v / 10**k, and its interval's ends
    vbl = _rop(g, (cb - np.uint64(2) + edge) << h) + odd
    vbr = _rop(g, (cb + np.uint64(2)) << h) - odd
    s = vb >> 2
    sp10 = s // np.uint64(10) * np.uint64(10)
    upin = vbl <= sp10 << 2
    wpin = (sp10 + np.uint64(10)) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + np.uint64(1)) << 2 <= vbr
    half = (s << 2) + np.uint64(2)  # both s and s + 1 in: the nearer, an even s on a tie
    up = np.where(uin == win, (vb > half) | ((vb == half) & ((s & np.uint64(1)) == 1)), win)
    return np.where(upin != wpin, np.where(upin, sp10, sp10 + np.uint64(10)), s + up), k


# The text of a value as ``repr`` lays it out, given its digits d0 d1 ... and
# decpt, where v = 0.d0d1... * 10**decpt: "0.000ddd" for decpt in -3..0,
# "d.ddd" (at least "d.0") for decpt 1, and "d.ddde-05" otherwise.  A block is
# laid out in a (_ROWS, n) byte matrix, a column per value, whose pad bytes
# (0) are dropped: a sign, a 5-byte lead, 17 digits with a dot after the first,
# a 5-byte exponent and the separator.
_ROWS = 30
_DECPT = 330  # the offset of decpt in the tables of leads and exponents


@functools.cache
def _affixes() -> tuple[np.ndarray, np.ndarray]:
    """The lead before the digits and the exponent after them, in 5 rows each,
    a column for each decpt from ``-_DECPT``."""
    lead, exponent = bytearray(), bytearray()
    for decpt in range(-_DECPT, _DECPT + 1):
        small = -4 < decpt <= 0
        lead += ("0." + "0" * -decpt if small else "").encode().ljust(5, b"\0")
        exponent += ("" if small or decpt == 1 else f"e{decpt - 1:+03d}").encode().ljust(5, b"\0")
    tables = tuple(np.frombuffer(bytes(text), np.uint8).reshape(-1, 5).T.copy() for text in (lead, exponent))
    for table in tables:
        table.setflags(write=False)
    return tables


def _format_block(values: np.ndarray, width: int, first: int) -> str:
    """``repr`` of each of ``values``, the C-order entries ``first`` on of a
    table with rows of ``width``, with a space after each and a newline after
    the last of a row.  Zero, subnormal, non-finite and |v| >= 10 values are
    left to ``repr`` itself."""
    n = len(values)
    bits = values.view(np.uint64)
    mag = bits & _LOW63
    exponent = mag >> 52
    normal = (exponent != 0) & (exponent != 2047)
    f, k = _shortest(np.where(normal, mag, np.uint64(0x3FF0000000000000)))  # 1.0 for the rest
    long = f >= np.uint64(10**16)
    f = np.where(long, f, f * np.uint64(10))  # 17 digits
    decpt = k + 16 + long
    # The 17 digits as 3 uint32 groups of 6 (the first group's first digit is 0).
    hi = f // np.uint64(10**12)
    low = f - hi * np.uint64(10**12)
    mid = low // np.uint64(10**6)
    groups = np.stack([hi, mid, low - mid * np.uint64(10**6)]).astype(np.uint32)
    digits = np.empty((3, 6, n), np.uint8)
    for j in range(5, -1, -1):
        quotient = groups // np.uint32(10)
        digits[:, j] = groups - quotient * np.uint32(10)
        groups = quotient
    digits = digits.reshape(18, n)[1:]
    # How many digits follow the first: up to the last nonzero one, at least one for decpt 1.
    tail = np.maximum(((digits[1:] != 0) * np.arange(1, 17, dtype=np.uint8)[:, None]).max(axis=0),
                      decpt == 1)
    lead, exponent_text = _affixes()
    text = np.empty((_ROWS, n), np.uint8)
    text[0] = (bits >> 63).astype(np.uint8) * ord("-")
    np.take(lead, decpt + _DECPT, axis=1, out=text[1:6])
    text[6] = digits[0] + ord("0")
    text[7] = ((tail > 0) & ((decpt > 0) | (decpt <= -4))) * ord(".")
    text[8:24] = (digits[1:] + ord("0")) * (np.arange(16)[:, None] < tail)
    np.take(exponent_text, decpt + _DECPT, axis=1, out=text[24:29])
    text[29] = ord(" ")
    text[29, width - 1 - first % width::width] = ord("\n")
    by_repr = np.flatnonzero(~normal | (decpt > 1))
    if by_repr.size:
        spelled = np.array([repr(v) for v in values[by_repr].tolist()], dtype=f"S{_ROWS - 1}")
        text[:-1, by_repr] = spelled.view(np.uint8).reshape(-1, _ROWS - 1).T
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def write_model(model, stream) -> None:
    """Write ``model`` in format v1, laid out by its class schema: each table
    a block of :data:`BLOCK_VALUES` values at a time."""
    sizes = " ".join(str(getattr(model, dim)) for dim in model.DIMS)
    stream.write(f"# tagtopics model format v1\n{model.kind} {sizes} {model.seed}\n")
    for attr, _, _ in model.TABLES:
        table = getattr(model, attr)
        flat = table.reshape(-1)
        for first in range(0, flat.size, BLOCK_VALUES):
            stream.write(_format_block(flat[first:first + BLOCK_VALUES], table.shape[-1], first))


@contextlib.contextmanager
def read_text(path):
    """Text stream of UTF-8 file ``path``; bytes not UTF-8 are a ``DataError`` naming it."""
    with open(path, encoding="utf-8") as stream:
        try:
            yield stream
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


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
    """Write ``model`` to ``path`` in format v1, once it passes its ``validate``:
    a model that :func:`read_tables` would reject raises ``DataError`` here
    and leaves ``path`` as it was."""
    model.validate()
    with atomic_write(path) as stream:
        write_model(model, stream)


def read_tables(cls, header: list[str], stream, only=None) -> tuple[dict, int, dict]:
    """``(sizes by DIMS name, seed, tables by attribute)`` after the split ``header``
    line, each table checked by :func:`validate`: every table, or only those that
    ``only`` names, with the rows of the rest stepped over by :func:`read_table`."""
    if header[0] != cls.kind or len(header) != len(cls.DIMS) + 2:
        raise DataError(f"bad {cls.kind} header: {' '.join(header)!r}")
    *sizes, seed = parse_ints(header[1:], f"{cls.kind} header")
    size = dict(zip(cls.DIMS, sizes))
    lines = filterfalse(skipped, stream)
    tables = {}
    for attr, label, dims in cls.TABLES:
        shape = tuple(size[dim] for dim in dims)
        if min(shape) < 1:
            raise DataError(f"{label}: dimension must be positive, got {shape}")
        if (table := read_table(lines, shape, label, only is None or attr in only)) is not None:
            tables[attr] = table
    if not all(map(skipped, stream)):
        raise DataError(f"{cls.kind} model: data after the last table")
    validate(cls, tables)
    return size, seed, tables


ROW_SUM_ATOL = 1e-10  # how far from 1 the sum of a table row may lie


def validate(schema, tables) -> None:
    """Check each table that ``tables`` maps by attribute against ``schema``'s
    ``TABLES``: its ndim, sizes that agree across tables, finite non-negative
    entries, and sums of 1 (within :data:`ROW_SUM_ATOL`) over the last axis."""
    size: dict[str, int] = {}
    for attr, label, dims in filter(lambda entry: entry[0] in tables, schema.TABLES):
        table = tables[attr]
        if table.ndim != len(dims):
            raise DataError(f"{label} must be a {len(dims)}-D table, got {table.ndim}-D")
        for dim, n in zip(dims, table.shape):
            if size.setdefault(dim, n) != n:
                raise DataError(f"{label}: {dim} is {n}, but {size[dim]} in an earlier table")
        if not np.isfinite(table).all():
            raise DataError(f"{label} has non-finite entries")
        if (table < 0).any():
            raise DataError(f"{label} has negative entries")
        if not np.allclose(table.sum(axis=-1), 1.0, rtol=0, atol=ROW_SUM_ATOL):
            raise DataError(f"{label} rows do not sum to 1")
