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

The E-step forms no posterior.  A triple's is A_t ⊙ (a_u ⊗ b_r) / total, with
A_t = p(t|.,.) as [I, K], a_u = p(i|u) and b_r = p(z|r).  Stack the rows of
one tag as a [n, I] and b [n, K]: M = b A_tᵀ gives the totals rowsum(a ⊙ M),
and with w = n / total the p(i|u) and p(z|r) statistic rows are (w a) ⊙ M and
b ⊙ ((w a) A_t), the tag's statistic A_t ⊙ ((w a)ᵀ b): the KL-NMF update of
Lee & Seung (2001) in tensor form.  So the model's ``band`` is the tag:
``Model.rows`` sorts the (r, u, t)-sorted triples stably by tag, a slice of
rows sums the tag statistic for its own tags alone, and ``e_step`` walks a chunk one
tag run at a time.  A training plans the runs once, before it adds any statistic, and
a chunk out of tag order raises ``ValueError`` there: a split tag would lose additions.
"""

from __future__ import annotations

import numpy as np

from . import _textio, training
from .corpus import Corpus
from .similarity import TopicDistribution
# perfbench/tracing.py patches em_fit and mapreduce_slices by model module.
from .training import (TrainConfig, TrainLog, em_fit,  # noqa: F401
                       mapreduce_slices, normalize_rows)

# Rows per chunk, _SCRATCH_ELEMS // (I * K).  No [n, I, K] array is formed; the size
# stays because the chunks fix the summation order, and so the log-likelihood bits.
_SCRATCH_ELEMS = 1 << 18


def tag_runs(tt) -> dict:
    """``e_step``'s ``runs`` (slices) and ``run_tags`` of the tag runs of a chunk's tags."""
    step = np.diff(tt)
    if (step < 0).any():  # a tag split into two runs would lose statistic additions
        raise ValueError("itm's E-step takes rows sorted by tag, as ItmModel.rows gives them")
    bounds = [0, *(np.flatnonzero(step) + 1).tolist(), len(tt)]  # the tag runs' edges
    return {"runs": list(map(slice, bounds, bounds[1:])), "run_tags": tt.take(bounds[:-1])}


class ItmModel(training.Model):
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

    # p(t|i,z) is drawn first, so that at interests=1 the start has the pLSA trainer's
    # tables for the same seed (the p(i|u) rows normalize to 1.0).
    DRAWS = ("tag_given_interest_topic", "topic_given_resource", "interest_given_user")
    band = "t"  # the id column ``rows`` sorts on

    def validate(self) -> None:
        _textio.validate(self, vars(self))

    def check_corpus(self, corpus: Corpus) -> None:
        training.check_corpus(self.size, corpus)

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

    def chunk_plan(self, ids: dict) -> tuple[dict, dict]:
        """log p(u) and log p(r) for ``log_terms``, and each chunk's :func:`tag_runs`."""
        slices = training.chunk_edges(len(ids["t"]), self.chunk_rows)
        return ({"logs": (np.log(self.user_probs), np.log(self.resource_probs))},
                {a: tag_runs(ids["t"][a:b]) for chunks in slices for a, b in chunks})

    def e_step(self, chunk: dict, n, stats, lo: int, *, runs, run_tags) -> np.ndarray:
        """Mixture totals of the chunk's rows, one tag run at a time (``runs`` and
        ``run_tags`` are its :func:`tag_runs`); given ``stats``, the posterior statistics
        are added in, the tag statistic into its band of tags lo.. (see the module doc)."""
        tt = chunk["t"]
        a = self.interest_given_user.take(chunk["u"], axis=0)  # take: a faster row gather
        b = self.topic_given_resource.take(chunk["r"], axis=0)
        block = np.moveaxis(self.tag_given_interest_topic[:, :, tt[0]:tt[-1] + 1], 2, 0)
        tags = block[run_tags - tt[0]]  # the runs' p(t|.,.) as [runs, I, K]
        m = np.empty_like(a)  # products are written in place: out= makes the same dgemm call
        for run, tag in zip(runs, tags):
            np.dot(b[run], tag.T, out=m[run])
        totals = (a * m).sum(axis=1)
        if stats is not None:
            training.check_support(totals, chunk)
            wa = a * (n / totals)[:, None]
            m *= wa
            training.add_rows(stats[0], chunk["u"], m)
            rz, tag_stat = np.empty_like(b), np.empty_like(tags)
            for run, tag, out in zip(runs, tags, tag_stat):
                np.dot(wa[run], tag, out=rz[run])
                np.dot(wa[run].T, b[run], out=out)
            rz *= b
            training.add_rows(stats[1], chunk["r"], rz)
            tag_stat *= tags
            stats[2][run_tags - lo] += tag_stat
        return totals

    def m_step(self, stats) -> None:
        expected_ui, expected_rz, expected_t = stats
        rows = self.tag_given_interest_topic.reshape(-1, self.n_tags)  # a view: C-contiguous
        np.copyto(rows, expected_t.reshape(self.n_tags, -1).T)
        normalize_rows(rows)
        self.interest_given_user = normalize_rows(expected_ui)
        self.topic_given_resource = normalize_rows(expected_rz)

    def log_terms(self, mix, ids, logs=None) -> np.ndarray:
        log_u, log_r = logs or (np.log(self.user_probs), np.log(self.resource_probs))
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
