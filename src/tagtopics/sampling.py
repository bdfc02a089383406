"""Forward sampling of synthetic corpora from model parameter tables.

A :class:`PlantedSpec` bundles a fully-specified model with a sample count
and a seed; :func:`sample_corpus` draws i.i.d. triples from the model's
generative process.  Planted instances give the recovery and ranking tests a
known ground truth.

Draw order per sample (one ``rng.random`` vector per step, so corpora are
reproducible byte-for-byte per seed):

* itm:  u ~ p(u), r ~ p(r), i ~ p(i|u), z ~ p(z|r), t ~ p(t|i,z)
* mwa:  z ~ p(z), then r, u, t independently from their aspect rows
* plsa: r ~ p(r), z ~ p(z|r), t ~ p(t|z), u uniform over ``n_users``
  (the model carries no user dimension, so users are interchangeable)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _textio
from .corpus import Corpus, Vocab, merge_rows
from .errors import ConfigError, DataError
from .itm import ItmModel
from .modelio import read_model
from .mwa import MwaModel
from .plsa import PlsaModel


@dataclass
class PlantedSpec:
    """A generative model plus sampling parameters.

    ``n_users`` is consulted only when ``model`` is a :class:`PlsaModel`;
    the other models fix the user dimension themselves.
    """

    model: PlsaModel | MwaModel | ItmModel
    n_samples: int
    seed: int
    n_users: int = 1

    def validate(self) -> None:
        if not isinstance(self.model, (PlsaModel, MwaModel, ItmModel)):
            raise ConfigError(f"unsupported model type {type(self.model).__name__}")
        self.model.validate()
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if isinstance(self.model, PlsaModel) and self.n_users < 1:
            raise ConfigError("n_users must be >= 1 for plsa sampling")


def _draw_rows(rng: np.random.Generator, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One draw from row ``rows[n]`` of ``table`` per n; a binary search per
    distinct row instead of an n-by-columns comparison."""
    cum = np.cumsum(np.asarray(table, dtype=float), axis=1)
    u = rng.random(len(rows))
    idx = np.empty(len(rows), dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    distinct, starts = np.unique(rows[order], return_index=True)
    for row, group in zip(distinct, np.split(order, starts[1:])):
        idx[group] = np.searchsorted(cum[row], u[group], side="right")
    return np.minimum(idx, cum.shape[1] - 1)


def sample_corpus(spec: PlantedSpec) -> Corpus:
    """Draw ``spec.n_samples`` triples and merge them into a corpus.

    Entities are named ``r<i>``/``u<i>``/``t<i>`` after their planted ids;
    only entities that actually occur enter the vocabularies, in order of
    first appearance.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    model = spec.model
    n = spec.n_samples
    zeros = np.zeros(n, dtype=np.int64)  # row 0 of a one-row table: a flat draw

    if isinstance(model, PlsaModel):
        r = _draw_rows(rng, model.resource_probs[None], zeros)
        z = _draw_rows(rng, model.topic_given_resource, r)
        t = _draw_rows(rng, model.tag_given_topic, z)
        u = rng.integers(0, spec.n_users, size=n)
    elif isinstance(model, MwaModel):
        z = _draw_rows(rng, model.topic_probs[None], zeros)
        r = _draw_rows(rng, model.resource_given_topic, z)
        u = _draw_rows(rng, model.user_given_topic, z)
        t = _draw_rows(rng, model.tag_given_topic, z)
    else:
        u = _draw_rows(rng, model.user_probs[None], zeros)
        r = _draw_rows(rng, model.resource_probs[None], zeros)
        i = _draw_rows(rng, model.interest_given_user, u)
        z = _draw_rows(rng, model.topic_given_resource, r)
        t = _draw_rows(rng, model.tag_given_interest_topic.reshape(-1, model.n_tags),
                       i * model.n_topics + z)

    def compact(ids: np.ndarray, prefix: str) -> tuple[Vocab, np.ndarray]:
        planted, first_pos = np.unique(ids, return_index=True)
        appearance = planted[np.argsort(first_pos)]
        remap = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        remap[appearance] = np.arange(len(appearance))
        return Vocab(f"{prefix}{pid}" for pid in appearance), remap[ids]

    resources, r_new = compact(r, "r")
    users, u_new = compact(u, "u")
    tags, t_new = compact(t, "t")

    (r, u, t), counts = merge_rows((r_new, u_new, t_new), np.ones(n, dtype=np.int64))
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
    with open(path, "w", encoding="utf-8") as stream:
        write_spec(spec, stream)


def load_spec(path) -> PlantedSpec:
    with open(path, encoding="utf-8") as stream:
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
