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

import numpy as np

from . import _textio, training
from .corpus import Corpus
from .errors import DegeneracyError
from .similarity import TopicDistribution
# perfbench/tracing.py patches em_fit and mapreduce_slices by model module.
from .training import (TrainConfig, TrainLog, em_fit,  # noqa: F401
                       mapreduce_slices, noisy_uniform_rows, normalize_rows, triples)


class MwaModel(_textio.Tables):
    """Aspect-model tables: p(z), p(r|z), p(u|z), p(t|z) (rows indexed by z)."""

    kind = "mwa"
    DIMS = ("n_topics", "n_resources", "n_users", "n_tags")
    TABLES = (
        ("topic_probs", "p(z)", ("n_topics",)),
        ("resource_given_topic", "p(r|z)", ("n_topics", "n_resources")),
        ("user_given_topic", "p(u|z)", ("n_topics", "n_users")),
        ("tag_given_topic", "p(t|z)", ("n_topics", "n_tags")),
    )
    chunk_rows = 1 << 15

    def validate(self, atol: float = 1e-10) -> None:
        _textio.validate(self, atol)

    def check_corpus(self, corpus: Corpus) -> None:
        training.check_corpus(self, corpus)

    @classmethod
    def initial(cls, corpus: Corpus, cfg: TrainConfig, rng) -> "MwaModel":
        return cls(topic_probs=noisy_uniform_rows(rng, 1, cfg.topics)[0],
                   resource_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.resources)),
                   user_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.users)),
                   tag_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.tags)),
                   seed=cfg.seed)

    rows = staticmethod(triples)

    def mixture(self, rr, uu, tt) -> np.ndarray:
        """Unnormalised joint p(z) p(r|z) p(u|z) p(t|z) of the triples
        ``(rr[n], uu[n], tt[n])``, as [n, K]."""
        return (self.topic_probs
                * self.resource_given_topic[:, rr].T
                * self.user_given_topic[:, uu].T
                * self.tag_given_topic[:, tt].T)

    def posterior(self, resource: int, user: int, tag: int) -> np.ndarray:
        """E-step posterior p(z | r, u, t) for one observed triple."""
        return training.posterior(self, r=resource, u=user, t=tag)

    def zero_stats(self):
        return (np.zeros(self.n_topics), np.zeros((self.n_resources, self.n_topics)),
                np.zeros((self.n_users, self.n_topics)), np.zeros((self.n_tags, self.n_topics)))

    def scatter(self, stats, ids, post) -> None:
        expected_z, *expected = stats
        expected_z += post.sum(axis=0)
        for table, name in zip(expected, "rut"):
            np.add.at(table, ids[name], post)

    def m_step(self, stats) -> None:
        expected_z, expected_rz, expected_uz, expected_tz = stats
        self.topic_probs = expected_z / expected_z.sum()
        self.resource_given_topic = normalize_rows(np.ascontiguousarray(expected_rz.T))
        self.user_given_topic = normalize_rows(np.ascontiguousarray(expected_uz.T))
        self.tag_given_topic = normalize_rows(np.ascontiguousarray(expected_tz.T))

    def log_terms(self, mix, ids) -> np.ndarray:
        return np.log(mix)

    def log_likelihood(self, corpus: Corpus) -> float:
        return training.log_likelihood(self, corpus)

    def topic_distribution(self, resource: int) -> TopicDistribution:
        """p(z|r) by Bayes inversion of p(r|z) against the aspect prior."""
        training.check_ids(self, r=resource)
        weights = self.topic_probs * self.resource_given_topic[:, resource]
        total = weights.sum()
        if total <= 0.0:
            raise DegeneracyError(f"resource {resource} has no support")
        return TopicDistribution(weights / total)

    def save(self, path) -> None:
        _textio.save(self, path)


def train_mwa(corpus: Corpus, cfg: TrainConfig,
              iteration_hook=None) -> tuple[MwaModel, TrainLog]:
    """Fit the aspect model by EM (see :func:`training.train`)."""
    return training.train(MwaModel, corpus, cfg, iteration_hook)
