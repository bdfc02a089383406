"""Interest-topic model: separate user-interest and resource-topic latents.

A single latent variable has to explain both user idiosyncrasy and resource
semantics in the plain aspect model; mixing the two can skew the per-resource
topic distributions used for ranking.  Here tags are generated jointly by a
user's interest i and a resource's topic z:

    p(r, u, t) = sum_{i,z} p(t|i,z) p(i|u) p(z|r) p(u) p(r)

p(u) and p(r) are fixed at their empirical values; EM estimates the three
conditionals by maximizing L = sum_{r,u,t} n(r,u,t) log p(r,u,t).

E-step (per observed triple):

    p(i,z | u,r,t) = p(t|i,z) p(i|u) p(z|r) / sum_{i',z'} p(t|i',z') p(i'|u) p(z'|r)

M-steps:

    p(t|i,z) = sum_{r,u} n(r,u,t) p(i,z|u,r,t) / sum_{r,u,t} n(r,u,t) p(i,z|u,r,t)
    p(i|u)   = sum_{r,t} n(r,u,t) sum_z p(i,z|u,r,t) / n(u)
    p(z|r)   = sum_{u,t} n(r,u,t) sum_i p(i,z|u,r,t) / n(r)

The trainer never materializes the posterior for all triples at once; M-step
sums are accumulated streaming, chunk by chunk.  p(t|i,z) and its statistic
are tag-major: a trained ``tag_given_interest_topic`` is an [I, K, T] view of
[T, I, K] memory, so the E-step moves one contiguous I*K row per tag.  A model
read from a file is C-contiguous; both layouts give the same bits.
"""

from __future__ import annotations

import numpy as np

from . import _textio, training
from .corpus import Corpus
from .errors import ConfigError
from .similarity import TopicDistribution
# perfbench/tracing.py patches em_fit and mapreduce_slices by model module.
from .training import (TrainConfig, TrainLog, em_fit,  # noqa: F401
                       mapreduce_slices, noisy_uniform_rows, normalize_rows, triples)

# Posterior scratch per chunk is bounded by roughly this many float64 values.
_SCRATCH_ELEMS = 1 << 18


def _tag_major(rows: np.ndarray, shape) -> np.ndarray:
    """[I*K, T] ``rows`` as an [I, K, T] view of a [T, I, K] = ``shape`` copy."""
    return np.moveaxis(np.ascontiguousarray(rows.T).reshape(shape), 0, 2)


class ItmModel(_textio.Tables):
    """Interest-topic tables.

    ``tag_given_interest_topic[i, z, t]`` holds p(t|i,z);
    ``interest_given_user[u, i]`` holds p(i|u);
    ``topic_given_resource[r, z]`` holds p(z|r);
    ``user_probs`` and ``resource_probs`` are the fixed empirical p(u), p(r).
    """

    kind = "itm"
    DIMS = ("n_interests", "n_topics", "n_resources", "n_users", "n_tags")
    TABLES = (
        ("user_probs", "p(u)", ("n_users",)),
        ("resource_probs", "p(r)", ("n_resources",)),
        ("interest_given_user", "p(i|u)", ("n_users", "n_interests")),
        ("topic_given_resource", "p(z|r)", ("n_resources", "n_topics")),
        ("tag_given_interest_topic", "p(t|i,z)", ("n_interests", "n_topics", "n_tags")),
    )

    def validate(self, atol: float = 1e-10) -> None:
        _textio.validate(self, atol)

    def check_corpus(self, corpus: Corpus) -> None:
        training.check_corpus(self, corpus)

    @classmethod
    def initial(cls, corpus: Corpus, cfg: TrainConfig, rng) -> "ItmModel":
        """Raises :class:`ConfigError` before allocating anything if the dense
        p(t|i,z) table would exceed ``cfg.max_table_bytes``."""
        n_tags = len(corpus.tags)
        table_bytes = 8 * cfg.interests * cfg.topics * n_tags
        if table_bytes > cfg.max_table_bytes:
            raise ConfigError(
                f"p(t|i,z) table needs {table_bytes} bytes, over the budget of "
                f"{cfg.max_table_bytes}; lower interests/topics or raise max_table_bytes")
        # Draw order keeps the interests=1 case aligned with the pLSA trainer's
        # initialization for the same seed (the p(i|u) rows normalize to 1.0).
        return cls(
            tag_given_interest_topic=_tag_major(noisy_uniform_rows(
                rng, cfg.interests * cfg.topics, n_tags), (n_tags, cfg.interests, cfg.topics)),
            topic_given_resource=noisy_uniform_rows(rng, len(corpus.resources), cfg.topics),
            interest_given_user=noisy_uniform_rows(rng, len(corpus.users), cfg.interests),
            user_probs=corpus.n_u / corpus.total,
            resource_probs=corpus.n_r / corpus.total,
            seed=cfg.seed,
        )

    rows = staticmethod(triples)

    @property
    def chunk_rows(self) -> int:
        return max(1, _SCRATCH_ELEMS // (self.n_interests * self.n_topics))

    def mixture(self, rr, uu, tt) -> np.ndarray:
        """Unnormalised joint p(t|i,z) p(i|u) p(z|r) of the triples
        ``(rr[n], uu[n], tt[n])``, as [n, I, K]."""
        joint = np.moveaxis(self.tag_given_interest_topic, 2, 0)[tt]
        joint *= self.interest_given_user[uu][:, :, None]
        joint *= self.topic_given_resource[rr][:, None, :]
        return joint

    def posterior(self, resource: int, user: int, tag: int) -> np.ndarray:
        """Joint posterior p(i, z | u, r, t) for one triple, as an [I, K] table."""
        return training.posterior(self, r=resource, u=user, t=tag)

    def zero_stats(self):
        return (np.zeros((self.n_tags, self.n_interests, self.n_topics)),
                np.zeros((self.n_users, self.n_interests)),
                np.zeros((self.n_resources, self.n_topics)))

    def scatter(self, stats, ids, post) -> None:
        training.scatter_add(stats[0], ids["t"], post)
        np.add.at(stats[1], ids["u"], post.sum(axis=2))
        np.add.at(stats[2], ids["r"], post.sum(axis=1))

    def m_step(self, stats) -> None:
        expected_t, expected_ui, expected_rz = stats
        self.tag_given_interest_topic = _tag_major(normalize_rows(np.ascontiguousarray(
            expected_t.reshape(self.n_tags, -1).T)), expected_t.shape)
        self.interest_given_user = normalize_rows(expected_ui)
        self.topic_given_resource = normalize_rows(expected_rz)

    def log_terms(self, mix, ids) -> np.ndarray:
        log_u, log_r = np.log(self.user_probs), np.log(self.resource_probs)
        return np.log(mix) + log_u[ids["u"]] + log_r[ids["r"]]

    def log_likelihood(self, corpus: Corpus) -> float:
        return training.log_likelihood(self, corpus)

    def topic_distribution(self, resource: int) -> TopicDistribution:
        training.check_ids(self, r=resource)
        return TopicDistribution(self.topic_given_resource[resource].copy())

    def save(self, path) -> None:
        _textio.save(self, path)


def train_itm(corpus: Corpus, cfg: TrainConfig,
              iteration_hook=None) -> tuple[ItmModel, TrainLog]:
    """Fit the interest-topic model by EM (see :func:`training.train`)."""
    return training.train(ItmModel, corpus, cfg, iteration_hook)
