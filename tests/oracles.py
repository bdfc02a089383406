"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain Python loops over the dense tables so
the math shares no code with the package internals.  Oracles stay slow and
obvious on purpose.  Some exceptions reuse a package kernel on purpose:
:func:`rank_by_seed`, the scalar ranking, calls the package's
``js_divergence`` once per resource, so the vectorised ranking can be held
to its bits; and :func:`itm_mixture_e_step` is the itm E-step as it was
before the factored pass, through ``ItmModel.mixture``, so the factored
pass can be held to it; :func:`itm_e_step_v2` is the factored itm E-step as
contract v2 first spelled it, with the package's ``check_support`` and
``add_rows``, so the rewritten one can be held to its bytes.
:func:`plsa_mixture_v1` and :func:`mwa_mixture_v1` are pLSA's and mwa's
``mixture`` as they were before they gathered rows of per-pass row-major
copies: columns of the [K, ids] tables, transposed, in the same product order,
so the row gathers can be held to their bytes.
:func:`ingest_triples` is the per-line triples parse as it was before the
block-wise parse, through the package's ``tsv_records``, ``merge_rows`` and
``Corpus``, so the block-wise parse can be held to its ids, counts and
error messages.
:func:`write_model` is the model writer as it was before the block-wise
shortest round-trip kernel, ``repr`` per value, so the kernel can be held to
its bytes.  :data:`INITIAL` holds each model's seeded start (with
:func:`noisy_uniform_rows` as it was, for two axes only) and
:func:`sample_corpus` the planted sampler as they were before both were
derived from ``TABLES``, the sampler through the package's ``_draw_rows``,
``renumber`` and ``merge_rows``, so the derived ones can be held to their
bytes.  :data:`ROWS` holds each model's data rows as its class spelled them
out before ``Model.rows`` derived them from ``DIMS`` and ``band``.
"""

import math
from fractions import Fraction

import numpy as np

from tagtopics import training
from tagtopics._textio import tsv_records
from tagtopics.corpus import Corpus, Vocab, merge_rows, renumber
from tagtopics.errors import DataError
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel
from tagtopics.sampling import _draw_rows
from tagtopics.similarity import js_divergence as scalar_js_divergence
from tagtopics.training import _INIT_NOISE


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


def write_model(model, stream) -> None:
    """Write ``model`` in format v1, laid out by its class schema."""
    sizes = " ".join(str(getattr(model, dim)) for dim in model.DIMS)
    stream.write(f"# tagtopics model format v1\n{model.kind} {sizes} {model.seed}\n")
    for attr, _, _ in model.TABLES:
        table = getattr(model, attr)
        for row in table.reshape(-1, table.shape[-1]):
            stream.write(" ".join(map(repr, row.tolist())) + "\n")


def noisy_uniform_rows(rng, n_rows, n_cols):
    """Rows near the uniform distribution with seeded positive noise."""
    rows = 1.0 + _INIT_NOISE * rng.random((n_rows, n_cols))
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def plsa_initial(cls, corpus, cfg, rng):
    return cls(tag_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.tags)),
               topic_given_resource=noisy_uniform_rows(rng, len(corpus.resources), cfg.topics),
               resource_probs=corpus.n_r / corpus.total, seed=cfg.seed)


def mwa_initial(cls, corpus, cfg, rng):
    return cls(topic_probs=noisy_uniform_rows(rng, 1, cfg.topics)[0],
               resource_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.resources)),
               user_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.users)),
               tag_given_topic=noisy_uniform_rows(rng, cfg.topics, len(corpus.tags)),
               seed=cfg.seed)


def itm_initial(cls, corpus, cfg, rng):
    n_tags = len(corpus.tags)
    # Draw order keeps the interests=1 case aligned with the pLSA trainer's
    # initialization for the same seed (the p(i|u) rows normalize to 1.0).
    return cls(
        tag_given_interest_topic=noisy_uniform_rows(
            rng, cfg.interests * cfg.topics, n_tags).reshape(cfg.interests, cfg.topics, n_tags),
        topic_given_resource=noisy_uniform_rows(rng, len(corpus.resources), cfg.topics),
        interest_given_user=noisy_uniform_rows(rng, len(corpus.users), cfg.interests),
        user_probs=corpus.n_u / corpus.total,
        resource_probs=corpus.n_r / corpus.total,
        seed=cfg.seed,
    )


# The seeded start ``INITIAL[kind](cls, corpus, cfg, rng)`` of each model kind.
INITIAL = {"plsa": plsa_initial, "mwa": mwa_initial, "itm": itm_initial}


def sample_corpus(spec):
    """The planted corpus of ``spec``, its three generative processes spelled out."""
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

    # Renumber each column's planted ids in order of first appearance.
    (resources, r), (users, u), (tags, t) = (
        renumber(ids[np.sort(np.unique(ids, return_index=True)[1])], ids, name)
        for ids, name in ((r, "r{}".format), (u, "u{}".format), (t, "t{}".format)))
    (r, u, t), counts = merge_rows((r, u, t), np.ones(n, dtype=np.int64))
    return Corpus(resources, users, tags, r, u, t, counts)


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


def itm_e_step_v2(model, chunk, n, stats, lo):
    """``ItmModel.e_step`` as numeric contract v2 first spelled it: per-run product
    lists joined by ``np.concatenate`` and ``np.stack``, and p(t|i,z) gathered tag by
    tag from the whole [I, K, T] table."""
    tt = chunk["t"]
    if (tt[1:] < tt[:-1]).any():
        raise ValueError("itm's E-step takes rows sorted by tag, as ItmModel.rows gives them")
    a, b = model.interest_given_user[chunk["u"]], model.topic_given_resource[chunk["r"]]
    starts = np.flatnonzero(np.r_[True, tt[1:] != tt[:-1]])
    tags = np.moveaxis(model.tag_given_interest_topic, 2, 0)[tt[starts]]
    runs = [slice(i, j) for i, j in zip(starts.tolist(), [*starts[1:].tolist(), len(tt)])]
    m = np.concatenate([b[run] @ tag.T for run, tag in zip(runs, tags)])
    totals = (a * m).sum(axis=1)
    if stats is not None:
        training.check_support(totals, chunk)
        wa = a * (n / totals)[:, None]
        training.add_rows(stats[0], chunk["u"], wa * m)
        training.add_rows(stats[1], chunk["r"],
                          b * np.concatenate([wa[run] @ tag for run, tag in zip(runs, tags)]))
        stats[2][tt[starts] - lo] += tags * np.stack([wa[run].T @ b[run] for run in runs])
    return totals


def plsa_mixture_v1(model, rr, tt):
    """``PlsaModel.mixture`` by column gathers of p(t|z)."""
    return model.topic_given_resource[rr] * model.tag_given_topic[:, tt].T


def mwa_mixture_v1(model, rr, uu, tt):
    """``MwaModel.mixture`` by column gathers of p(r|z), p(u|z) and p(t|z)."""
    return (model.topic_probs
            * model.resource_given_topic[:, rr].T
            * model.user_given_topic[:, uu].T
            * model.tag_given_topic[:, tt].T)


MIXTURE_V1 = {"plsa": plsa_mixture_v1, "mwa": mwa_mixture_v1}


def plsa_rows(corpus):
    r_pairs, t_pairs, n_pairs = corpus.rt_arrays()
    return {"r": r_pairs, "t": t_pairs}, n_pairs


def mwa_rows(corpus):
    """The corpus triples as data rows: ``({"r", "u", "t"} ids, counts)``."""
    return {"r": corpus.r_ids, "u": corpus.u_ids, "t": corpus.t_ids}, corpus.counts


def itm_rows(corpus):
    """The triples in (t, r, u) order: a stable sort by tag of the (r, u, t)-sorted corpus."""
    order = np.argsort(corpus.t_ids, kind="stable")
    return ({"r": corpus.r_ids[order], "u": corpus.u_ids[order], "t": corpus.t_ids[order]},
            corpus.counts[order])


ROWS = {"plsa": plsa_rows, "mwa": mwa_rows, "itm": itm_rows}


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
