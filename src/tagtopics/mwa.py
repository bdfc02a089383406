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
# em_fit, mapreduce_slices and normalize_rows are here for perfbench/tracing.py to patch.
from .training import (TrainConfig, TrainLog, em_fit,  # noqa: F401
                       mapreduce_slices, normalize_rows)


class MwaModel(training.Model):
    """Aspect-model tables: p(z), p(r|z), p(u|z), p(t|z) (rows indexed by z)."""

    kind = "mwa"
    DIMS = ("n_topics", "n_resources", "n_users", "n_tags")
    RANKED = ("topic_probs", "resource_given_topic")
    TABLES = (
        ("topic_probs", "p(z)", ("n_topics",)),
        ("resource_given_topic", "p(r|z)", ("n_topics", "n_resources")),
        ("user_given_topic", "p(u|z)", ("n_topics", "n_users")),
        ("tag_given_topic", "p(t|z)", ("n_topics", "n_tags")),
    )

    def validate(self) -> None:
        _textio.validate(self, vars(self))

    def check_corpus(self, corpus: Corpus) -> None:
        training.check_corpus(self.size, corpus)

    def mixture(self, rr, uu, tt, **transposed) -> np.ndarray:
        """Unnormalised joint p(z) p(r|z) p(u|z) p(t|z) of the triples
        ``(rr[n], uu[n], tt[n])``, as a C-order [n, K] of gathered rows: the three
        conditionals are read as [ids, K] rows, from ``transposed`` (a data pass's row-major
        copies, see ``Model.transposed_tables``) or else transposed views."""
        by_id = transposed or self.transposed_tables(copy=False)
        return (self.topic_probs
                * training.gather_rows(by_id["resource_given_topic"], rr)
                * training.gather_rows(by_id["user_given_topic"], uu)
                * training.gather_rows(by_id["tag_given_topic"], tt))

    def log_terms(self, mix, ids) -> np.ndarray:
        return np.log(mix)

    def log_likelihood(self, corpus: Corpus) -> float:
        return training.log_likelihood(self, corpus)

    def topic_distribution(self, resource: int) -> TopicDistribution:
        """p(z|r) by Bayes inversion of p(r|z) against the aspect prior."""
        training.check_ids(self, r=resource)
        return TopicDistribution(self.topic_distributions_of(vars(self), [resource])[0])

    @staticmethod
    def topic_distributions_of(tables, resources=None) -> np.ndarray:
        """p(z|r) of every resource, or of ``resources``, one contiguous row each, so
        that each row sums over z as a lone vector does."""
        given_topic = tables["resource_given_topic"]
        resources = np.arange(given_topic.shape[1]) if resources is None else resources
        weights = np.multiply(tables["topic_probs"], given_topic[:, resources].T, order="C")
        totals = weights.sum(axis=1, keepdims=True)
        if (dead := np.flatnonzero(totals <= 0.0)).size:
            raise DegeneracyError(f"resource {resources[dead[0]]} has no support")
        return weights / totals

    def save(self, path) -> None:
        _textio.save(self, path)


def train_mwa(corpus: Corpus, cfg: TrainConfig,
              iteration_hook=None) -> tuple[MwaModel, TrainLog]:
    """Fit the aspect model by EM (see :func:`training.train`)."""
    return training.train(MwaModel, corpus, cfg, iteration_hook)
