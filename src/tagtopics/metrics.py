"""Ranking quality metrics against relevance labels.

Resources are labeled ``same`` (same functionality as the seed), ``link-to``
(links to a page with that functionality) or ``unrelated``; anything
unlabeled counts as unrelated.  A "positive" is a resource labeled same or
link-to.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ._textio import tsv_records
from .errors import DataError
from .similarity import RankedList

LABEL_SAME = "same"
LABEL_LINK_TO = "link-to"
LABEL_UNRELATED = "unrelated"
VALID_LABELS = frozenset((LABEL_SAME, LABEL_LINK_TO, LABEL_UNRELATED))
POSITIVE_LABELS = frozenset((LABEL_SAME, LABEL_LINK_TO))


@dataclass
class LabelSet:
    """Per-resource relevance labels; missing resources default to unrelated."""

    labels: dict

    def __post_init__(self):
        for resource, label in self.labels.items():
            if label not in VALID_LABELS:
                raise DataError(f"invalid label {label!r} for {resource!r}; "
                                f"expected one of {sorted(VALID_LABELS)}")

    def label_of(self, resource) -> str:
        return self.labels.get(resource, LABEL_UNRELATED)

    def is_positive(self, resource) -> bool:
        return self.label_of(resource) in POSITIVE_LABELS

    @classmethod
    def from_tsv(cls, lines: Iterable[str]) -> "LabelSet":
        """Parse ``resource<TAB>label`` lines; ``#`` comments and blanks skipped."""
        labels: dict = {}
        for lineno, fields in tsv_records(lines):
            if len(fields) != 2 or not fields[0]:
                raise DataError(f"line {lineno}: expected resource<TAB>label")
            if fields[0] in labels and labels[fields[0]] != fields[1]:
                raise DataError(f"line {lineno}: conflicting label for {fields[0]!r}")
            labels[fields[0]] = fields[1]
        return cls(labels)


def count_relevant_topk(ranked: RankedList, labels: LabelSet, k: int) -> tuple[int, int]:
    """Counts of same / link-to resources among the first min(k, len) entries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_same = n_link = 0
    for resource, _ in ranked.entries[:k]:
        label = labels.label_of(resource)
        if label == LABEL_SAME:
            n_same += 1
        elif label == LABEL_LINK_TO:
            n_link += 1
    return n_same, n_link


def effort_to_n(ranked: RankedList, labels: LabelSet, n: int) -> int | None:
    """1-based rank at which the n-th positive appears; None if never reached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    found = 0
    for rank, (resource, _) in enumerate(ranked.entries, start=1):
        if labels.is_positive(resource):
            found += 1
            if found == n:
                return rank
    return None
