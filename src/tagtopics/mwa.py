"""Three-way aspect model over full resource-user-tag triples.

One latent aspect z generates all three observed dimensions independently:

    p(r, u, t) = sum_z p(r|z) p(u|z) p(t|z) p(z)

EM maximizes L = sum_{r,u,t} n(r,u,t) log p(r,u,t).  The E-step posterior is
p(z|r,u,t) proportional to p(z) p(r|z) p(u|z) p(t|z); the M-step re-estimates
p(z) and the three conditionals from posterior-weighted counts.

The model does not store p(z|r); for ranking it is recovered by Bayes
inversion, p(z|r) = p(r|z) p(z) / sum_z' p(r|z') p(z').
"""

from __future__ import annotations

import logging
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _textio
from .corpus import Corpus
from .errors import DataError, DegeneracyError
from .similarity import TopicDistribution
from .training import (TrainConfig, TrainLog, check_support, em_fit,
                       mapreduce_slices, noisy_uniform_rows, normalize_rows)

logger = logging.getLogger(__name__)

_TRIPLE_CHUNK = 1 << 15


@dataclass
class MwaModel:
    """Aspect-model tables: p(z), p(r|z), p(u|z), p(t|z) (rows indexed by z)."""

    kind: ClassVar[str] = "mwa"
    DIMS: ClassVar[tuple] = ("n_topics", "n_resources", "n_users", "n_tags")
    TABLES: ClassVar[tuple] = (
        ("topic_probs", "p(z)", ("n_topics",)),
        ("resource_given_topic", "p(r|z)", ("n_topics", "n_resources")),
        ("user_given_topic", "p(u|z)", ("n_topics", "n_users")),
        ("tag_given_topic", "p(t|z)", ("n_topics", "n_tags")),
    )

    topic_probs: np.ndarray
    resource_given_topic: np.ndarray
    user_given_topic: np.ndarray
    tag_given_topic: np.ndarray
    seed: int = 0

    @property
    def n_topics(self) -> int:
        return self.topic_probs.shape[0]

    @property
    def n_resources(self) -> int:
        return self.resource_given_topic.shape[1]

    @property
    def n_users(self) -> int:
        return self.user_given_topic.shape[1]

    @property
    def n_tags(self) -> int:
        return self.tag_given_topic.shape[1]

    def validate(self, atol: float = 1e-10) -> None:
        _textio.validate(self, atol)

    def check_corpus(self, corpus: Corpus) -> None:
        shape = (self.n_resources, self.n_users, self.n_tags)
        expected = (len(corpus.resources), len(corpus.users), len(corpus.tags))
        if shape != expected:
            raise DataError(f"model dimensions {shape} do not match corpus {expected}")

    def mixture(self, rr, uu, tt) -> np.ndarray:
        """Unnormalised joint p(z) p(r|z) p(u|z) p(t|z) of the triples
        ``(rr[n], uu[n], tt[n])``, as [n, K]."""
        return (self.topic_probs
                * self.resource_given_topic[:, rr].T
                * self.user_given_topic[:, uu].T
                * self.tag_given_topic[:, tt].T)

    def posterior(self, resource: int, user: int, tag: int) -> np.ndarray:
        """E-step posterior p(z | r, u, t) for one observed triple."""
        weights = self.mixture([resource], [user], [tag])
        totals = weights.sum(axis=1)
        check_support(totals, "triple", r=[resource], u=[user], t=[tag])
        return weights[0] / totals[0]

    def log_likelihood(self, corpus: Corpus) -> float:
        self.check_corpus(corpus)
        total = 0.0
        for lo in range(0, corpus.num_triples, _TRIPLE_CHUNK):
            hi = min(lo + _TRIPLE_CHUNK, corpus.num_triples)
            mix = self.mixture(corpus.r_ids[lo:hi], corpus.u_ids[lo:hi],
                               corpus.t_ids[lo:hi]).sum(axis=1)
            with np.errstate(divide="ignore"):
                terms = np.log(mix)
            total += float((corpus.counts[lo:hi] * terms).sum())
        if not math.isfinite(total):
            logger.warning("observed triple has zero probability; log-likelihood is degenerate (-inf)")
        return total

    def topic_distribution(self, resource: int) -> TopicDistribution:
        """p(z|r) by Bayes inversion of p(r|z) against the aspect prior."""
        if not 0 <= resource < self.n_resources:
            raise DataError(f"unknown resource id {resource}")
        weights = self.topic_probs * self.resource_given_topic[:, resource]
        total = weights.sum()
        if total <= 0.0:
            raise DegeneracyError(f"resource {resource} has no support")
        return TopicDistribution(weights / total)

    def save(self, path) -> None:
        _textio.save(self, path)


def train_mwa(corpus: Corpus, cfg: TrainConfig,
              iteration_hook=None) -> tuple[MwaModel, TrainLog]:
    """Fit the aspect model by EM; deterministic per (seed, workers)."""
    cfg.validate()
    n_resources = len(corpus.resources)
    n_users = len(corpus.users)
    n_tags = len(corpus.tags)
    if cfg.topics > n_tags:
        warnings.warn(f"topics={cfg.topics} exceeds the tag vocabulary size {n_tags}")

    rng = np.random.default_rng(cfg.seed)
    model = MwaModel(
        topic_probs=noisy_uniform_rows(rng, 1, cfg.topics)[0],
        resource_given_topic=noisy_uniform_rows(rng, cfg.topics, n_resources),
        user_given_topic=noisy_uniform_rows(rng, cfg.topics, n_users),
        tag_given_topic=noisy_uniform_rows(rng, cfg.topics, n_tags),
        seed=cfg.seed,
    )
    weights = corpus.counts.astype(float)
    executor = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None

    def accumulate(lo: int, hi: int):
        expected_z = np.zeros(cfg.topics)
        expected_rz = np.zeros((n_resources, cfg.topics))
        expected_uz = np.zeros((n_users, cfg.topics))
        expected_tz = np.zeros((n_tags, cfg.topics))
        for a in range(lo, hi, _TRIPLE_CHUNK):
            b = min(a + _TRIPLE_CHUNK, hi)
            rr, uu, tt = corpus.r_ids[a:b], corpus.u_ids[a:b], corpus.t_ids[a:b]
            post = model.mixture(rr, uu, tt)
            totals = post.sum(axis=1)
            check_support(totals, "triple", r=rr, u=uu, t=tt)
            post *= (weights[a:b] / totals)[:, None]
            expected_z += post.sum(axis=0)
            np.add.at(expected_rz, rr, post)
            np.add.at(expected_uz, uu, post)
            np.add.at(expected_tz, tt, post)
        return expected_z, expected_rz, expected_uz, expected_tz

    def step() -> None:
        expected_z, expected_rz, expected_uz, expected_tz = mapreduce_slices(
            accumulate, corpus.num_triples, cfg.workers, executor)
        model.topic_probs = expected_z / expected_z.sum()
        model.resource_given_topic = normalize_rows(np.ascontiguousarray(expected_rz.T))
        model.user_given_topic = normalize_rows(np.ascontiguousarray(expected_uz.T))
        model.tag_given_topic = normalize_rows(np.ascontiguousarray(expected_tz.T))

    hook = None
    if iteration_hook is not None:
        hook = lambda iteration, ll: iteration_hook(model, iteration, ll)
    try:
        log = em_fit(step, lambda: model.log_likelihood(corpus), cfg, hook=hook)
    finally:
        if executor is not None:
            executor.shutdown()
    return model, log
