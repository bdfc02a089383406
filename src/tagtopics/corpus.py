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

from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

COMMENT_CHAR = "#"

# Default frequency window for the tag reduction: drop tags seen fewer than
# ten or more than ten thousand times, and every triple carrying them.
DEFAULT_MIN_TAG_FREQ = 10
DEFAULT_MAX_TAG_FREQ = 10_000


class Triple(NamedTuple):
    resource: int
    user: int
    tag: int
    count: int


class Vocab:
    """Ordered string<->id mapping with dense ids 0..len-1.

    Ids are assigned by first appearance; adding an existing entry returns
    its previous id.
    """

    __slots__ = ("entries", "index")

    def __init__(self, entries: Iterable[str] = ()):
        self.entries: list[str] = []
        self.index: dict[str, int] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: str) -> int:
        ident = self.index.get(entry)
        if ident is None:
            ident = len(self.entries)
            self.entries.append(entry)
            self.index[entry] = ident
        return ident

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

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __contains__(self, entry: str) -> bool:
        return entry in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.entries == other.entries

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


def merge_rows(columns, counts: np.ndarray):
    """The distinct rows of the parallel id ``columns`` in lexicographic
    order, as ``(columns, counts)``, with ``counts`` summed over repeats."""
    order, columns, first = _sort_rows(columns)
    starts = np.flatnonzero(first)
    return [col[starts] for col in columns], np.add.reduceat(counts[order], starts)


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

        self.n_r = np.bincount(self.r_ids, weights=self.counts, minlength=len(resources)).astype(np.int64)
        self.n_u = np.bincount(self.u_ids, weights=self.counts, minlength=len(users)).astype(np.int64)
        self.n_t = np.bincount(self.t_ids, weights=self.counts, minlength=len(tags)).astype(np.int64)
        self.total = int(self.counts.sum())

        for vocab, ids, marginal, what in ((resources, self.r_ids, self.n_r, "resource"),
                                           (users, self.u_ids, self.n_u, "user"),
                                           (tags, self.t_ids, self.n_t, "tag")):
            if ids.min() < 0 or ids.max() >= len(vocab):
                raise DataError(f"{what} id out of vocabulary range")
            if (marginal == 0).any():
                bad = [vocab.entries[i] for i in np.nonzero(marginal == 0)[0][:5]]
                raise DataError(f"{what} vocabulary entries without triples: {bad}")

        self._rt_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_triples(self) -> int:
        """Number of distinct (resource, user, tag) keys."""
        return len(self.counts)

    def iter_triples(self) -> Iterator[Triple]:
        for r, u, t, n in zip(self.r_ids, self.u_ids, self.t_ids, self.counts):
            yield Triple(int(r), int(u), int(t), int(n))

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


def ingest_triples(lines: Iterable[str]) -> Corpus:
    """Parse a line-oriented triple stream into a merged corpus.

    Each non-comment, non-blank line must hold 3 or 4 tab-separated fields:
    ``resource, user, tag[, count]`` with a positive integer count (default 1).
    Lines starting with ``#`` and blank lines are ignored.  Ids are assigned
    by first appearance; merged counts do not depend on line order.
    """
    resources, users, tags = Vocab(), Vocab(), Vocab()
    ids: list[int] = []
    counts: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith(COMMENT_CHAR):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise DataError(f"line {lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}")
        if not all(fields[:3]):
            raise DataError(f"line {lineno}: empty field")
        count = 1
        if len(fields) == 4:
            try:
                count = int(fields[3])
            except ValueError:
                raise DataError(f"line {lineno}: count {fields[3]!r} is not an integer") from None
            if count < 1:
                raise DataError(f"line {lineno}: count must be positive, got {count}")
            if not (fields[3].isascii() and fields[3].isdigit()):
                raise DataError(f"line {lineno}: count {fields[3]!r} is not ASCII digits")
        ids += (resources.add(fields[0]), users.add(fields[1]), tags.add(fields[2]))
        counts.append(count)
    if not counts:
        raise DataError("empty corpus")
    for vocab in (resources, users, tags):
        for entry in vocab.entries:
            if "\n" in entry or "\r" in entry:
                raise DataError(f"vocabulary entry {entry!r} contains reserved characters")
    (r, u, t), merged = merge_rows(np.array(ids, dtype=np.int64).reshape(-1, 3).T,
                                   np.array(counts, dtype=np.int64))
    return Corpus(resources, users, tags, r, u, t, merged)


def read_corpus(path) -> Corpus:
    with open(path, encoding="utf-8") as stream:
        return ingest_triples(stream)


def write_corpus_tsv(corpus: Corpus, stream) -> None:
    """Serialize in the ingestion format, sorted by ids (round-trips exactly)."""
    stream.write("# resource\tuser\ttag\tcount\n")
    name_r = corpus.resources.entries
    name_u = corpus.users.entries
    name_t = corpus.tags.entries
    for r, u, t, n in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts):
        stream.write(f"{name_r[r]}\t{name_u[u]}\t{name_t[t]}\t{n}\n")


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as stream:
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

    sub_r, sub_u, sub_t, sub_n = (
        col[mask] for col in (corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts))

    def compact(old_vocab: Vocab, kept_ids: np.ndarray) -> tuple[Vocab, np.ndarray]:
        remap = np.full(len(old_vocab), -1, dtype=np.int64)
        remap[kept_ids] = np.arange(len(kept_ids))
        return Vocab(old_vocab.entries[i] for i in kept_ids), remap

    new_resources, remap_r = compact(corpus.resources, np.unique(sub_r))
    new_users, remap_u = compact(corpus.users, np.unique(sub_u))
    new_tags, remap_t = compact(corpus.tags, np.unique(sub_t))
    return Corpus(new_resources, new_users, new_tags,
                  remap_r[sub_r], remap_u[sub_u], remap_t[sub_t], sub_n)

