"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain Python loops over the dense tables so
the math shares no code with the package internals.  Oracles stay slow and
obvious on purpose.  Two exceptions reuse a package kernel on purpose:
:func:`rank_by_seed`, the scalar ranking, calls the package's
``js_divergence`` once per resource, so the vectorised ranking can be held
to its bits; and :func:`itm_mixture_e_step` is the itm E-step as it was
before the factored pass, through ``ItmModel.mixture``, so the factored
pass can be held to it.  :func:`ingest_triples` is the per-line triples
parse as it was before the block-wise parse, through the package's
``tsv_records``, ``merge_rows`` and ``Corpus``, so the block-wise
parse can be held to its ids, counts and error messages.
"""

import math
from fractions import Fraction

import numpy as np

from tagtopics._textio import tsv_records
from tagtopics.corpus import Corpus, Vocab, merge_rows
from tagtopics.errors import DataError
from tagtopics.similarity import js_divergence as scalar_js_divergence


def ingest_triples(lines):
    resources, users, tags = {}, {}, {}  # name -> id, by first appearance
    ids = []
    counts = []
    for lineno, fields in tsv_records(lines):
        if len(fields) not in (3, 4):
            raise DataError(f"line {lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}")
        if not all(fields[:3]):
            raise DataError(f"line {lineno}: empty field")
        count = 1
        if len(fields) == 4:
            try:
                count = int(fields[3])
            except ValueError:
                raise DataError(f"line {lineno}: count {fields[3]!r} is not an integer") from None
            if count < 1:
                raise DataError(f"line {lineno}: count must be positive, got {count}")
            if not (fields[3].isascii() and fields[3].isdigit()):
                raise DataError(f"line {lineno}: count {fields[3]!r} is not ASCII digits")
            if count > 2**63 - 1:
                raise DataError(f"line {lineno}: count {fields[3]!r} exceeds 2**63 - 1")
        ids += (resources.setdefault(fields[0], len(resources)),
                users.setdefault(fields[1], len(users)), tags.setdefault(fields[2], len(tags)))
        counts.append(count)
    if not counts:
        raise DataError("empty corpus")
    for vocab in (resources, users, tags):
        for entry in vocab:
            if "\n" in entry or "\r" in entry:
                raise DataError(f"vocabulary entry {entry!r} contains reserved characters")
    (r, u, t), merged = merge_rows(np.array(ids, dtype=np.int64).reshape(-1, 3).T,
                                   np.array(counts, dtype=np.int64))
    return Corpus(Vocab(resources), Vocab(users), Vocab(tags), r, u, t, merged)


def plsa_joint(model, r, t):
    total = 0.0
    for z in range(model.n_topics):
        total += model.tag_given_topic[z][t] * model.topic_given_resource[r][z]
    return total * model.resource_probs[r]


def plsa_log_likelihood(model, corpus):
    ll = 0.0
    for r, t, n in zip(*corpus.rt_arrays()):
        ll += n * math.log(plsa_joint(model, r, t))
    return ll


def plsa_posterior(model, r, t):
    weights = [model.topic_given_resource[r][z] * model.tag_given_topic[z][t]
               for z in range(model.n_topics)]
    total = sum(weights)
    return [w / total for w in weights]


def mwa_joint(model, r, u, t):
    total = 0.0
    for z in range(model.n_topics):
        total += (model.topic_probs[z]
                  * model.resource_given_topic[z][r]
                  * model.user_given_topic[z][u]
                  * model.tag_given_topic[z][t])
    return total


def mwa_log_likelihood(model, corpus):
    ll = 0.0
    for r, u, t, n in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts):
        ll += n * math.log(mwa_joint(model, r, u, t))
    return ll


def mwa_posterior(model, r, u, t):
    weights = [model.topic_probs[z]
               * model.resource_given_topic[z][r]
               * model.user_given_topic[z][u]
               * model.tag_given_topic[z][t]
               for z in range(model.n_topics)]
    total = sum(weights)
    return [w / total for w in weights]


def itm_mixture(model, r, u, t):
    total = 0.0
    for i in range(model.n_interests):
        for z in range(model.n_topics):
            total += (model.tag_given_interest_topic[i][z][t]
                      * model.interest_given_user[u][i]
                      * model.topic_given_resource[r][z])
    return total


def itm_joint(model, r, u, t):
    return itm_mixture(model, r, u, t) * model.user_probs[u] * model.resource_probs[r]


def itm_log_likelihood(model, corpus):
    ll = 0.0
    for r, u, t, n in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts):
        ll += n * math.log(itm_joint(model, r, u, t))
    return ll


def itm_posterior(model, r, u, t):
    weights = [[model.tag_given_interest_topic[i][z][t]
                * model.interest_given_user[u][i]
                * model.topic_given_resource[r][z]
                for z in range(model.n_topics)]
               for i in range(model.n_interests)]
    total = sum(sum(row) for row in weights)
    return [[w / total for w in row] for row in weights]


def itm_m_step(corpus, posteriors):
    """Posterior-weighted re-estimation, with the explicit n(u) and n(r)
    denominators; returns plain nested lists."""
    triples = list(zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts))
    n_interests = len(posteriors[0])
    n_topics = len(posteriors[0][0])
    n_tags = len(corpus.tags)

    num_tag = [[[0.0] * n_tags for _ in range(n_topics)] for _ in range(n_interests)]
    for idx, (_, _, t, n) in enumerate(triples):
        for i in range(n_interests):
            for z in range(n_topics):
                num_tag[i][z][t] += n * posteriors[idx][i][z]
    tag_table = [[[v / sum(row) for v in row] for row in plane] for plane in num_tag]

    num_ui = [[0.0] * n_interests for _ in range(len(corpus.users))]
    for idx, (_, u, _, n) in enumerate(triples):
        for i in range(n_interests):
            marginal = sum(posteriors[idx][i][z] for z in range(n_topics))
            num_ui[u][i] += n * marginal
    interest_table = [[v / corpus.n_u[u] for v in row] for u, row in enumerate(num_ui)]

    num_rz = [[0.0] * n_topics for _ in range(len(corpus.resources))]
    for idx, (r, _, _, n) in enumerate(triples):
        for z in range(n_topics):
            marginal = sum(posteriors[idx][i][z] for i in range(n_interests))
            num_rz[r][z] += n * marginal
    topic_table = [[v / corpus.n_r[r] for v in row] for r, row in enumerate(num_rz)]

    return tag_table, interest_table, topic_table


def itm_mixture_e_step(model, ids, counts):
    """The itm statistics ``(p(i|u), p(z|r), p(t|i,z) as [T, I, K])`` and L of
    the data rows ``ids``, ``counts`` through the [n, I, K] posterior of
    ``model.mixture``, added with ``np.add.at`` in row order."""
    post = model.mixture(ids["r"], ids["u"], ids["t"])
    totals = post.sum(axis=(1, 2))
    ll = float((counts * model.log_terms(totals, ids)).sum())
    post *= (counts / totals)[:, None, None]
    stats = model.zero_stats(0, model.n_tags)  # the band of every tag
    np.add.at(stats[0], ids["u"], post.sum(axis=2))
    np.add.at(stats[1], ids["r"], post.sum(axis=1))
    np.add.at(stats[2], ids["t"], post)
    return stats, ll


def draw_by_comparison(table, rows, uniforms):
    """Inverse-CDF draws as the number of running row sums at or below each
    uniform (clamped to the last column)."""
    draws = []
    for row, u in zip(rows, uniforms):
        cum, count = 0.0, 0
        for p in table[row]:
            cum += p
            count += cum <= u
        draws.append(min(count, len(table[row]) - 1))
    return draws


def js_divergence(p, q):
    """With the midpoint and each ratio exact (``Fraction``), so a subnormal
    entry against a zero does not underflow."""
    mid = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(p, q)]

    def kl(x, y):
        total = 0.0
        for xi, yi in zip(x, y):
            if xi > 0.0:
                total += xi * math.log(Fraction(xi) / yi)
        return total

    return 0.5 * (kl(p, mid) + kl(q, mid))


def rank_by_seed(dists, seed):
    """Ranking entries ``[(id, divergence)]``: one scalar ``js_divergence``
    per non-seed resource, sorted on ``(divergence, id)``."""
    scored = sorted((scalar_js_divergence(dist, dists[seed]), rid)
                    for rid, dist in dists.items() if rid != seed)
    return [(rid, div) for div, rid in scored]
