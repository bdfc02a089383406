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

import numpy as np

from . import _textio, training
from .corpus import Corpus
from .similarity import TopicDistribution
# em_fit, mapreduce_slices and normalize_rows are here for perfbench/tracing.py to patch.
from .training import (TrainConfig, TrainLog, em_fit,  # noqa: F401
                       mapreduce_slices, normalize_rows)


class PlsaModel(training.Model):
    """Parameter tables of a trained pLSA model.

    ``tag_given_topic[z, t]`` holds p(t|z); ``topic_given_resource[r, z]``
    holds p(z|r); ``resource_probs[r]`` holds the empirical p(r).
    """

    kind = "plsa"
    DIMS = ("n_topics", "n_resources", "n_tags")
    TABLES = (
        ("resource_probs", "p(r)", ("n_resources",)),
        ("tag_given_topic", "p(t|z)", ("n_topics", "n_tags")),
        ("topic_given_resource", "p(z|r)", ("n_resources", "n_topics")),
    )

    def validate(self) -> None:
        _textio.validate(self, vars(self))

    def check_corpus(self, corpus: Corpus) -> None:
        training.check_corpus(self.size, corpus)

    def mixture(self, rr, tt, **transposed) -> np.ndarray:
        """Unnormalised joint p(t|z) p(z|r) of the pairs ``(rr[n], tt[n])``, as a C-order
        [n, K] of gathered rows: p(t|z) is read as [T, K] rows, from ``transposed`` (a data
        pass's row-major copy, see ``Model.transposed_tables``) or else a transposed view."""
        tags = (transposed or self.transposed_tables(copy=False))["tag_given_topic"]
        return self.topic_given_resource.take(rr, axis=0) * training.gather_rows(tags, tt)

    def log_terms(self, mix, ids) -> np.ndarray:
        return np.log(mix * self.resource_probs[ids["r"]])

    def log_likelihood(self, corpus: Corpus) -> float:
        return training.log_likelihood(self, corpus)

    def topic_distribution(self, resource: int) -> TopicDistribution:
        training.check_ids(self, r=resource)
        return TopicDistribution(self.topic_given_resource[resource].copy())

    def save(self, path) -> None:
        _textio.save(self, path)


def train_plsa(corpus: Corpus, cfg: TrainConfig,
               iteration_hook=None) -> tuple[PlsaModel, TrainLog]:
    """Fit a pLSA model by EM (see :func:`training.train`)."""
    return training.train(PlsaModel, corpus, cfg, iteration_hook)
