"""Forward sampling of synthetic corpora from model parameter tables.

A :class:`PlantedSpec` bundles a fully-specified model with a sample count
and a seed; :func:`sample_corpus` draws i.i.d. triples from the model's
generative process.  Planted instances give the recovery and ranking tests a
known ground truth.

Each entry of a model's ``TABLES`` is a table p(child | parents), drawn in
ancestral order (one ``rng.random`` vector per table, so corpora are
reproducible byte-for-byte per seed).  For the three models that order is:

* itm:  u ~ p(u), r ~ p(r), i ~ p(i|u), z ~ p(z|r), t ~ p(t|i,z)
* mwa:  z ~ p(z), then r, u, t independently from their aspect rows
* plsa: r ~ p(r), z ~ p(z|r), t ~ p(t|z), then u uniform over ``n_users``
  (a model without a user table has interchangeable users)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _textio
from .corpus import MAX_COUNT, Corpus, merge_rows, renumber
from .errors import ConfigError, DataError
from .itm import ItmModel
from .modelio import MODEL_TYPES, read_model
from .training import Model

# The most draws a spec may ask for: about 2.2 GB of sampler memory at 130 bytes a draw.
MAX_SAMPLES = 2**24


@dataclass
class PlantedSpec:
    """A generative model plus sampling parameters.

    ``n_users`` is read only for a model without a user table (plsa), whose
    users are drawn uniformly from that many, at most ``corpus.MAX_COUNT``.
    """

    model: Model  # of one of the classes in ``modelio.MODEL_TYPES``
    n_samples: int
    seed: int
    n_users: int = 1

    def validate(self) -> None:
        if not isinstance(self.model, tuple(MODEL_TYPES.values())):
            raise ConfigError(f"unsupported model type {type(self.model).__name__}")
        self.model.validate()
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.n_samples > MAX_SAMPLES:
            raise ConfigError(f"n_samples is {self.n_samples}, over the limit of {MAX_SAMPLES}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if "n_users" not in self.model.DIMS and not 1 <= self.n_users <= MAX_COUNT:  # int64 ids
            raise ConfigError(f"n_users must be 1 to {MAX_COUNT} for plsa, got {self.n_users}")


def _count_at_or_below(cum: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per n, how many entries of row ``rows[n]`` of ``cum``, whose rows do not
    decrease, are at or below ``u[n]``: ``searchsorted(cum[rows[n]], u[n],
    side="right")``, for all n in one binary search.  Each of its about
    log2(columns) steps gathers one entry per n, so it holds O(n) memory."""
    flat, width = cum.ravel(), cum.shape[1]
    start = rows * width  # of each draw's row in ``flat``
    count = np.zeros(len(rows), dtype=np.int64)  # the answer is in [count, count + span]
    span = width
    while span > 1:
        half = span // 2
        count += half * (flat[start + count + half - 1] <= u)
        span -= half
    return count + (flat[start + count] <= u)


def _draw_rows(rng: np.random.Generator, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One draw from row ``rows[n]`` of ``table`` per n, by inverse CDF: the
    number of running row sums at or below a uniform ``u`` (clamped to the
    last column, for a row whose sum rounds below ``u``).  All n are searched
    together by :func:`_count_at_or_below`, with no n-by-columns comparison
    and no pass per distinct row."""
    cum = np.cumsum(table, axis=1)
    u = rng.random(len(rows))
    return np.minimum(_count_at_or_below(cum, rows, u), cum.shape[1] - 1)


def _draw_columns(rng: np.random.Generator, model, n: int, n_users: int) -> tuple:
    """The planted (r, u, t) ids of n draws: pass after pass over ``model.TABLES``, each
    table whose parents are drawn is drawn, at the rows its parents' ids pick; users are
    uniform over ``n_users`` without a user table.  Only the three columns outlive it."""
    drawn = {}  # the draws of each axis, by its size name in DIMS
    while len(drawn) < len(model.TABLES):
        for attr, _, (*parents, child) in model.TABLES:
            if child not in drawn and all(dim in drawn for dim in parents):
                table = getattr(model, attr)
                rows = (np.ravel_multi_index([drawn[dim] for dim in parents], table.shape[:-1])
                        if parents else np.zeros(n, dtype=np.int64))  # parentless: row 0
                drawn[child] = _draw_rows(rng, table.reshape(-1, table.shape[-1]), rows)
    if "n_users" not in drawn:
        drawn["n_users"] = rng.integers(0, n_users, size=n)
    return drawn["n_resources"], drawn["n_users"], drawn["n_tags"]


def sample_corpus(spec: PlantedSpec) -> Corpus:
    """Draw ``spec.n_samples`` triples and merge them into a corpus.

    Entities are named ``r<i>``/``u<i>``/``t<i>`` after their planted ids;
    only entities that actually occur enter the vocabularies, in order of
    first appearance.
    """
    spec.validate()
    n = spec.n_samples
    r, u, t = _draw_columns(np.random.default_rng(spec.seed), spec.model, n, spec.n_users)

    # Renumber each column's planted ids in order of first appearance.
    (resources, r), (users, u), (tags, t) = (
        renumber(ids[np.sort(np.unique(ids, return_index=True)[1])], ids, name)
        for ids, name in ((r, "r{}".format), (u, "u{}".format), (t, "t{}".format)))
    (r, u, t), counts = merge_rows((r, u, t), np.ones(n, dtype=np.int64))
    return Corpus(resources, users, tags, r, u, t, counts)


def write_spec(spec: PlantedSpec, stream) -> None:
    """Header ``spec n_samples seed n_users`` followed by the model serialization."""
    stream.write("# tagtopics sampling spec v1\n")
    stream.write(f"spec {spec.n_samples} {spec.seed} {spec.n_users}\n")
    _textio.write_model(spec.model, stream)


def read_spec(stream) -> PlantedSpec:
    header = _textio.next_fields(stream, "sampling spec header")
    if header[0] != "spec" or len(header) != 4:
        raise DataError(f"bad sampling spec header: {' '.join(header)!r}")
    n_samples, seed, n_users = _textio.parse_ints(header[1:], "sampling spec header")
    spec = PlantedSpec(model=read_model(stream), n_samples=n_samples,
                       seed=seed, n_users=n_users)
    spec.validate()
    return spec


def save_spec(spec: PlantedSpec, path) -> None:
    """Write ``spec`` to ``path`` once it passes ``spec.validate``, as
    :func:`load_spec` checks it; a failing spec leaves ``path`` as it was."""
    spec.validate()
    with _textio.atomic_write(path) as stream:
        write_spec(spec, stream)


def load_spec(path) -> PlantedSpec:
    with _textio.read_text(path) as stream:
        return read_spec(stream)


def planted_two_topic_spec() -> PlantedSpec:
    """The reference planted instance used by the recovery tests.

    An interest-topic model with 2 interests, 2 topics, 20 resources (10 per
    topic, hard topic assignments), 8 users and 16 tags.  The tag supports of
    the two topics are disjoint blocks of 8 tags; within a topic, interests
    lean toward different halves of the block.
    """
    n_resources, n_users, n_tags = 20, 8, 16
    topic_given_resource = np.zeros((n_resources, 2))
    topic_given_resource[:10, 0] = 1.0
    topic_given_resource[10:, 1] = 1.0

    interest_given_user = np.full((n_users, 2), 0.2)
    interest_given_user[:4, 0] = 0.8
    interest_given_user[4:, 1] = 0.8

    favored = np.array([0.15] * 4 + [0.10] * 4)
    tag_given_interest_topic = np.zeros((2, 2, n_tags))
    for topic, block in ((0, slice(0, 8)), (1, slice(8, 16))):
        tag_given_interest_topic[0, topic, block] = favored
        tag_given_interest_topic[1, topic, block] = favored[::-1]
    tag_given_interest_topic /= tag_given_interest_topic.sum(axis=2, keepdims=True)

    model = ItmModel(
        tag_given_interest_topic=tag_given_interest_topic,
        interest_given_user=interest_given_user,
        topic_given_resource=topic_given_resource,
        user_probs=np.full(n_users, 1.0 / n_users),
        resource_probs=np.full(n_resources, 1.0 / n_resources),
        seed=0,
    )
    return PlantedSpec(model=model, n_samples=20_000, seed=13)
