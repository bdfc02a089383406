"""Annotation-triple corpus: ingestion, filtering, aggregation, marginals.

A corpus is a merged multiset of ``(resource, user, tag)`` co-occurrences.
Input is line-oriented TSV, ``resource<TAB>user<TAB>tag[<TAB>count]``; the
count defaults to 1 and repeated keys are merged by summing counts.  Strings
are compared byte-exact; no case folding or tag normalization is applied.

All count statistics the models consume live here: the per-dimension
marginals ``n_r``, ``n_u``, ``n_t``, the grand total ``N``, and the
user-aggregated resource-tag counts ``n(r, t)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import filterfalse, islice, repeat
from typing import NamedTuple

import numpy as np

from ._textio import atomic_write, read_text, skipped, tsv_records
from .errors import ConfigError, DataError

# Default frequency window for the tag reduction: drop tags seen fewer than
# ten or more than ten thousand times, and every triple carrying them.
DEFAULT_MIN_TAG_FREQ = 10
DEFAULT_MAX_TAG_FREQ = 10_000

# Largest count: the counts are held as int64.
MAX_COUNT = 2**63 - 1

# Below this float sum of positive integer counts no int64 sum of them can
# wrap, as their exact total is within rounding of it, far below 2**63.
EXACT_FLOAT_SUM = 2**53


class Vocab:
    """Ordered string<->id mapping with dense ids 0..len-1.

    Ids are assigned by first appearance; an entry added again keeps its id.
    """

    __slots__ = ("entries", "index")

    def __init__(self, entries: Iterable[str] = ()):
        self.entries: list[str] = []
        self.index: dict[str, int] = {}
        self.extend(entries)

    def extend(self, entries: Iterable[str]) -> None:
        """Add each entry not yet present, in order of first appearance."""
        fresh = list(filterfalse(self.index.__contains__, dict.fromkeys(entries)))
        self.index.update(zip(fresh, range(len(self.entries), len(self.entries) + len(fresh))))
        self.entries += fresh

    def id_of(self, entry: str) -> int:
        try:
            return self.index[entry]
        except KeyError:
            raise DataError(f"unknown vocabulary entry {entry!r}") from None

    def name_of(self, ident: int) -> str:
        if not 0 <= ident < len(self.entries):
            raise DataError(f"vocabulary id {ident} out of range 0..{len(self.entries) - 1}")
        return self.entries[ident]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Vocab({len(self.entries)} entries)"


def _sort_rows(columns):
    """Lexicographic order of the rows of the parallel id ``columns`` (no
    sort, only an O(n) check of adjacent rows, when they are already in
    order), the columns in that order, and a mask of the sorted rows that
    differ from the row before.  Rows are compared column by column, because
    a composite key over several vocabularies can wrap in int64."""
    tied, descends = True, False
    for col in columns:
        descends = descends or (tied & (col[1:] < col[:-1])).any()
        tied &= col[1:] == col[:-1]
    order = np.lexsort(columns[::-1]) if descends else slice(None)
    columns = [col[order] for col in columns]
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for col in columns:
        first[1:] |= col[1:] != col[:-1]
    return order, columns, first


def renumber(kept: np.ndarray, ids: np.ndarray, name) -> tuple[Vocab, np.ndarray]:
    """Number the old ids ``kept`` 0, 1, ... in their order.  Returns the
    vocabulary of their ``name(old id)`` entries and ``ids``, each of which
    must be in ``kept``, in the new numbers."""
    remap = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    return Vocab(name(i) for i in kept), remap[ids]


def _checked_sums(add, counts: np.ndarray, what) -> np.ndarray:
    """The sums ``add`` forms of the positive int64 ``counts``, exact however
    large: from :data:`EXACT_FLOAT_SUM` up, ``add`` sums the counts' high and low
    32 bits apart, which cannot wrap below 2**31 counts.  Raises :class:`DataError`
    when a sum exceeds :data:`MAX_COUNT`, naming sum ``i`` as ``what(i)``."""
    if counts.sum(dtype=float) < EXACT_FLOAT_SUM:
        return add(counts)
    high, low = add(counts >> 32), add(counts & 0xFFFF_FFFF)
    high += low >> 32
    over = np.flatnonzero(high > MAX_COUNT >> 32)
    if over.size:
        raise DataError(f"{what(over[0])} overflows int64: it exceeds 2**63 - 1")
    return (high << 32) | (low & 0xFFFF_FFFF)


def merge_rows(columns, counts: np.ndarray):
    """The distinct rows of the parallel id ``columns`` in lexicographic
    order, as ``(columns, counts)``, with ``counts`` summed over repeats.
    Raises :class:`DataError` when a summed count exceeds 2**63 - 1."""
    order, columns, first = _sort_rows(columns)
    starts = np.flatnonzero(first)
    counts = counts[order]
    merged = [col[starts] for col in columns]
    return merged, _checked_sums(
        lambda values: np.add.reduceat(values, starts), counts,
        lambda i: f"the merged count of id row {tuple(int(col[i]) for col in merged)}")


def _bin_sums(ids: np.ndarray, values: np.ndarray, bins: int) -> np.ndarray:
    """The int64 sums of ``values`` by their ``ids``, over ``bins`` bins."""
    sums = np.zeros(bins, dtype=np.int64)
    np.add.at(sums, ids, values)
    return sums


class Corpus:
    """Merged triple counts plus consistent marginals.

    Treated as immutable after construction: every transformation returns a
    new instance, and instances may be shared freely across threads.
    """

    def __init__(self, resources: Vocab, users: Vocab, tags: Vocab,
                 r_ids: np.ndarray, u_ids: np.ndarray, t_ids: np.ndarray,
                 counts: np.ndarray):
        self.resources = resources
        self.users = users
        self.tags = tags

        columns = [np.asarray(col) for col in (r_ids, u_ids, t_ids, counts)]
        if len({len(col) for col in columns}) > 1:
            raise DataError("triple arrays have mismatched lengths")
        if len(counts) == 0:
            raise DataError("empty corpus")
        if any(col.dtype.kind not in "iu" for col in columns):
            raise DataError("triple ids and counts must be integers")
        r_ids, u_ids, t_ids, counts = (col.astype(np.int64, copy=False) for col in columns)
        if (counts < 1).any():
            raise DataError("triple counts must be positive")

        order, (self.r_ids, self.u_ids, self.t_ids), first = _sort_rows((r_ids, u_ids, t_ids))
        self.counts = counts[order]
        if not first.all():
            raise DataError("duplicate (resource, user, tag) keys; counts must be pre-merged")

        dims = ((resources, self.r_ids, "resource"), (users, self.u_ids, "user"),
                (tags, self.t_ids, "tag"))
        for vocab, ids, what in dims:
            if ids.min() < 0 or ids.max() >= len(vocab):
                raise DataError(f"{what} id out of vocabulary range")
        self.n_r, self.n_u, self.n_t = (
            _checked_sums(lambda values: _bin_sums(ids, values, len(vocab)), self.counts,
                          lambda i: f"the count of {what} {vocab.entries[i]!r}")
            for vocab, ids, what in dims)
        self.total = int(_checked_sums(lambda values: values.sum(keepdims=True),
                                       self.counts, lambda _: "the total count")[0])

        for (vocab, _, what), marginal in zip(dims, (self.n_r, self.n_u, self.n_t)):
            if (marginal == 0).any():
                bad = [vocab.entries[i] for i in np.nonzero(marginal == 0)[0][:5]]
                raise DataError(f"{what} vocabulary entries without triples: {bad}")

        self._rt_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_triples(self) -> int:
        """Number of distinct (resource, user, tag) keys."""
        return len(self.counts)

    def rt_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """User-aggregated pairs as parallel arrays ``(r, t, n(r, t))``, sorted by (r, t)."""
        if self._rt_cache is None:
            (r, t), n_rt = merge_rows((self.r_ids, self.t_ids), self.counts)
            self._rt_cache = (r, t, n_rt)
        return self._rt_cache

    def stats(self) -> dict[str, int]:
        return {
            "resources": len(self.resources),
            "users": len(self.users),
            "tags": len(self.tags),
            "unique_triples": self.num_triples,
            "total_count": self.total,
        }

    def __repr__(self) -> str:
        return (f"Corpus({len(self.resources)} resources, {len(self.users)} users, "
                f"{len(self.tags)} tags, total={self.total})")


# Lines per block of the triples parse and write: enough that the per-block
# work runs in C over whole columns, few enough that no block holds much of a
# file.
BLOCK_LINES = 2048

# By a record's tab count, what makes it 4 fields: its default count, if it has none.
_COUNT_SUFFIX = {2: "\t1", 3: ""}


class Vocabularies(NamedTuple):
    """The three vocabularies of a triples stream, ids by first appearance."""

    resources: Vocab
    users: Vocab
    tags: Vocab


def _check_record(lineno: int, fields: list[str]) -> None:
    """Raise the :class:`DataError` of the first check the record ``fields``
    fails: 3 or 4 fields, no empty name, a positive ASCII-digit count of at
    most :data:`MAX_COUNT`."""
    if len(fields) not in (3, 4):
        raise DataError(f"line {lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}")
    if not all(fields[:3]):
        raise DataError(f"line {lineno}: empty field")
    if len(fields) == 4:
        try:
            count = int(fields[3])
        except ValueError:
            raise DataError(f"line {lineno}: count {fields[3]!r} is not an integer") from None
        if count < 1:
            raise DataError(f"line {lineno}: count must be positive, got {count}")
        if not (fields[3].isascii() and fields[3].isdigit()):
            raise DataError(f"line {lineno}: count {fields[3]!r} is not ASCII digits")
        if count > MAX_COUNT:
            raise DataError(f"line {lineno}: count {fields[3]!r} exceeds 2**63 - 1")


def _report_bad_line(block: list[str], first_lineno: int) -> None:
    """Raise the error of the first record of ``block``, whose first line is
    numbered ``first_lineno``, that fails :func:`_check_record`."""
    for lineno, fields in tsv_records(block):
        _check_record(first_lineno + lineno - 1, fields)
    raise RuntimeError(f"the block from line {first_lineno} failed a check that no line fails")


def _triple_columns(lines: Iterable[str], vocabs: Vocabularies, counts: dict[str, int]):
    """The records of ``lines`` in blocks of :data:`BLOCK_LINES` lines, each as
    its resource, user, tag and count columns of strings.  Adds new names to
    ``vocabs`` and the value of each new count string to ``counts``.  Raises
    the :class:`DataError` of the first malformed line when its block is read
    and, once the stream ends, when it held no record or a name holds a
    reserved character (CR or LF)."""
    lines = iter(lines)
    next_lineno, records = 1, 0
    while block := list(islice(lines, BLOCK_LINES)):
        first_lineno, next_lineno = next_lineno, next_lineno + len(block)
        rows = list(filterfalse(skipped, map(str.rstrip, block, repeat("\r\n"))))
        if not rows:
            continue
        tabs = list(map(str.count, rows, repeat("\t")))
        widths = set(tabs)  # one width is split as it is; in a mix, 3 fields get a count
        if not widths <= _COUNT_SUFFIX.keys():
            _report_bad_line(block, first_lineno)
        if len(widths) > 1:
            rows = list(map(str.__add__, rows, map(_COUNT_SUFFIX.__getitem__, tabs)))
        fields = "\t".join(rows).split("\t")
        width = len(fields) // len(rows)
        columns = [fields[k::width] for k in range(width)]
        if width == 3:
            columns.append(["1"] * len(rows))
        for vocab, names in zip(vocabs, columns):
            vocab.extend(names)
        if any("" in vocab.index for vocab in vocabs):
            _report_bad_line(block, first_lineno)
        for text in set(columns[3]).difference(counts):
            if not (text.isascii() and text.isdigit() and 0 < int(text) <= MAX_COUNT):
                _report_bad_line(block, first_lineno)
            counts[text] = int(text)
        records += len(rows)
        yield columns
    if not records:
        raise DataError("empty corpus")
    for vocab in vocabs:
        for entry in vocab.entries:
            if "\n" in entry or "\r" in entry:
                raise DataError(f"vocabulary entry {entry!r} contains reserved characters")


def ingest_triples(lines: Iterable[str]) -> Corpus:
    """Parse a line-oriented triple stream into a merged corpus.

    Each non-comment, non-blank line must hold 3 or 4 tab-separated fields:
    ``resource, user, tag[, count]`` with a positive integer count (default 1).
    Lines starting with ``#`` and blank lines are ignored.  Ids are assigned
    by first appearance; merged counts do not depend on line order.  The
    stream is read in blocks of :data:`BLOCK_LINES` lines.
    """
    vocabs = Vocabularies(Vocab(), Vocab(), Vocab())
    (r, u, t), merged = merge_rows(*_id_columns(lines, vocabs))
    return Corpus(*vocabs, r, u, t, merged)


def _id_columns(lines: Iterable[str], vocabs: Vocabularies):
    """The resource, user and tag id columns and the count column of the
    records of ``lines``, as int64 arrays; adds their names to ``vocabs``.
    (A function of its own so that the per-block arrays are freed before
    the merge, which holds the most memory of a read.)"""
    counts: dict[str, int] = {}
    lookups = [vocab.index.__getitem__ for vocab in vocabs] + [counts.__getitem__]
    blocks = [[np.fromiter(map(lookup, column), dtype=np.int64, count=len(column))
               for lookup, column in zip(lookups, columns)]
              for columns in _triple_columns(lines, vocabs, counts)]
    *ids, n = (np.concatenate(parts) for parts in zip(*blocks))
    return ids, n


def read_corpus(path) -> Corpus:
    with read_text(path) as stream:
        return ingest_triples(stream)


def read_vocabularies(path) -> Vocabularies:
    """The vocabularies :func:`read_corpus` gives for ``path``, with the same
    checks and errors, but no id arrays, merge or :class:`Corpus`."""
    vocabs = Vocabularies(Vocab(), Vocab(), Vocab())
    with read_text(path) as stream:
        for _ in _triple_columns(stream, vocabs, {}):
            pass
    return vocabs


def write_corpus_tsv(corpus: Corpus, stream) -> None:
    """Serialize in the ingestion format, sorted by ids (round-trips exactly)."""
    stream.write("# resource\tuser\ttag\tcount\n")
    name_r = corpus.resources.entries
    name_u = corpus.users.entries
    name_t = corpus.tags.entries
    columns = (corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts)
    for lo in range(0, corpus.num_triples, BLOCK_LINES):  # Python ints, a block at a time
        for r, u, t, n in zip(*(col[lo:lo + BLOCK_LINES].tolist() for col in columns)):
            stream.write(f"{name_r[r]}\t{name_u[u]}\t{name_t[t]}\t{n}\n")


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_write(path) as stream:
        write_corpus_tsv(corpus, stream)


def filter_tags(corpus: Corpus, min_freq: int = DEFAULT_MIN_TAG_FREQ,
                max_freq: int | None = DEFAULT_MAX_TAG_FREQ) -> Corpus:
    """Keep only triples whose tag frequency falls in ``[min_freq, max_freq]``.

    Tag frequency is the weighted occurrence count ``sum_{r,u} n(r, u, t)``.
    Vocabularies are re-compacted to dense ids, preserving relative order;
    resources and users left without triples are dropped.  ``max_freq=None``
    means no upper bound.
    """
    if min_freq < 1:
        raise ConfigError("min_freq must be >= 1")
    if max_freq is not None and max_freq < min_freq:
        raise ConfigError("max_freq must be >= min_freq")

    keep_tag = corpus.n_t >= min_freq
    if max_freq is not None:
        keep_tag &= corpus.n_t <= max_freq
    mask = keep_tag[corpus.t_ids]
    if not mask.any():
        raise DataError("all triples filtered")

    kept = [col[mask] for col in (corpus.r_ids, corpus.u_ids, corpus.t_ids)]
    (resources, r), (users, u), (tags, t) = (
        renumber(np.unique(ids), ids, vocab.entries.__getitem__)
        for vocab, ids in zip((corpus.resources, corpus.users, corpus.tags), kept))
    return Corpus(resources, users, tags, r, u, t, corpus.counts[mask])

