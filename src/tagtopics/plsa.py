"""Probabilistic latent semantic model over aggregated resource-tag counts.

Users are collapsed out before training: the data are the pair counts
n(r, t) = sum_u n(r, u, t).  The joint is factored through topics z,

    p(r, t) = sum_z p(t|z) p(z|r) p(r),

with p(r) fixed at the empirical n(r)/N (which maximizes the likelihood
independently of the latent parameters).  Training maximizes

    L = sum_{r,t} n(r, t) log p(r, t)

by standard EM: the E-step posterior is p(z|r,t) proportional to
p(t|z) p(z|r); the M-step re-estimates p(t|z) from posterior-weighted tag
counts and p(z|r) from posterior-weighted resource rows.
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
from .errors import DataError
from .similarity import TopicDistribution
from .training import (TrainConfig, TrainLog, check_support, em_fit,
                       mapreduce_slices, noisy_uniform_rows, normalize_rows)

logger = logging.getLogger(__name__)

_PAIR_CHUNK = 1 << 15


@dataclass
class PlsaModel:
    """Parameter tables of a trained pLSA model.

    ``tag_given_topic[z, t]`` holds p(t|z); ``topic_given_resource[r, z]``
    holds p(z|r); ``resource_probs[r]`` holds the empirical p(r).
    """

    kind: ClassVar[str] = "plsa"
    DIMS: ClassVar[tuple] = ("n_topics", "n_resources", "n_tags")
    TABLES: ClassVar[tuple] = (
        ("resource_probs", "p(r)", ("n_resources",)),
        ("tag_given_topic", "p(t|z)", ("n_topics", "n_tags")),
        ("topic_given_resource", "p(z|r)", ("n_resources", "n_topics")),
    )

    tag_given_topic: np.ndarray
    topic_given_resource: np.ndarray
    resource_probs: np.ndarray
    seed: int = 0

    @property
    def n_topics(self) -> int:
        return self.tag_given_topic.shape[0]

    @property
    def n_resources(self) -> int:
        return self.topic_given_resource.shape[0]

    @property
    def n_tags(self) -> int:
        return self.tag_given_topic.shape[1]

    def validate(self, atol: float = 1e-10) -> None:
        _textio.validate(self, atol)

    def check_corpus(self, corpus: Corpus) -> None:
        if self.n_resources != len(corpus.resources) or self.n_tags != len(corpus.tags):
            raise DataError(
                f"model dimensions ({self.n_resources} resources, {self.n_tags} tags) "
                f"do not match corpus ({len(corpus.resources)}, {len(corpus.tags)})")

    def mixture(self, rr, tt) -> np.ndarray:
        """Unnormalised joint p(t|z) p(z|r) of the pairs ``(rr[n], tt[n])``, as [n, K]."""
        return self.topic_given_resource[rr] * self.tag_given_topic[:, tt].T

    def posterior(self, resource: int, tag: int) -> np.ndarray:
        """E-step posterior p(z | r, t) for one observed pair."""
        weights = self.mixture([resource], [tag])
        totals = weights.sum(axis=1)
        check_support(totals, "pair", r=[resource], t=[tag])
        return weights[0] / totals[0]

    def log_likelihood(self, corpus: Corpus) -> float:
        """sum_{r,t} n(r,t) log p(r,t); -inf (with a warning) if an observed
        pair has zero probability."""
        self.check_corpus(corpus)
        r_pairs, t_pairs, n_pairs = corpus.rt_arrays()
        total = 0.0
        for lo in range(0, len(n_pairs), _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, len(n_pairs))
            rr = r_pairs[lo:hi]
            mix = self.mixture(rr, t_pairs[lo:hi]).sum(axis=1)
            with np.errstate(divide="ignore"):
                terms = np.log(mix * self.resource_probs[rr])
            total += float((n_pairs[lo:hi] * terms).sum())
        if not math.isfinite(total):
            logger.warning("observed pair has zero probability; log-likelihood is degenerate (-inf)")
        return total

    def topic_distribution(self, resource: int) -> TopicDistribution:
        if not 0 <= resource < self.n_resources:
            raise DataError(f"unknown resource id {resource}")
        return TopicDistribution(self.topic_given_resource[resource].copy())

    def save(self, path) -> None:
        _textio.save(self, path)


def train_plsa(corpus: Corpus, cfg: TrainConfig,
               iteration_hook=None) -> tuple[PlsaModel, TrainLog]:
    """Fit a pLSA model by EM; returns the model and its iteration log.

    Deterministic for a fixed ``cfg.seed`` and ``cfg.workers``.  The optional
    ``iteration_hook(model, iteration, ll)`` is called after every update.
    """
    cfg.validate()
    n_resources, n_tags = len(corpus.resources), len(corpus.tags)
    if cfg.topics > n_tags:
        warnings.warn(f"topics={cfg.topics} exceeds the tag vocabulary size {n_tags}")

    rng = np.random.default_rng(cfg.seed)
    model = PlsaModel(
        tag_given_topic=noisy_uniform_rows(rng, cfg.topics, n_tags),
        topic_given_resource=noisy_uniform_rows(rng, n_resources, cfg.topics),
        resource_probs=corpus.n_r / corpus.total,
        seed=cfg.seed,
    )
    r_pairs, t_pairs, n_pairs = corpus.rt_arrays()
    weights = n_pairs.astype(float)
    executor = ThreadPoolExecutor(cfg.workers) if cfg.workers > 1 else None

    def accumulate(lo: int, hi: int):
        expected_tz = np.zeros_like(model.tag_given_topic)
        expected_rz = np.zeros_like(model.topic_given_resource)
        for a in range(lo, hi, _PAIR_CHUNK):
            b = min(a + _PAIR_CHUNK, hi)
            rr, tt = r_pairs[a:b], t_pairs[a:b]
            post = model.mixture(rr, tt)
            totals = post.sum(axis=1)
            check_support(totals, "pair", r=rr, t=tt)
            post *= (weights[a:b] / totals)[:, None]
            np.add.at(expected_tz.T, tt, post)
            np.add.at(expected_rz, rr, post)
        return expected_tz, expected_rz

    def step() -> None:
        expected_tz, expected_rz = mapreduce_slices(
            accumulate, len(weights), cfg.workers, executor)
        model.tag_given_topic = normalize_rows(expected_tz)
        model.topic_given_resource = normalize_rows(expected_rz)

    hook = None
    if iteration_hook is not None:
        hook = lambda iteration, ll: iteration_hook(model, iteration, ll)
    try:
        log = em_fit(step, lambda: model.log_likelihood(corpus), cfg, hook=hook)
    finally:
        if executor is not None:
            executor.shutdown()
    return model, log
