"""Planted interest-topic corpora for the benchmark.

The generator is a block-structured ITM: each planted topic owns a block of
tags, each interest leans toward its own slice of every block, every
resource has one dominant topic and every user one dominant interest.  The
dominant topic is the ground truth that the ranking workload scores against.
"""

from __future__ import annotations

import numpy as np

import tagtopics

# Mass of the dominant topic of a resource / interest of a user; the rest is
# spread evenly, so topics are recoverable but not trivially separable.
DOMINANT_TOPIC = 0.85
DOMINANT_INTEREST = 0.7
# Share of every p(t|i,z) row spread over all tags, so blocks overlap.
BACKGROUND = 0.05
# Within a block, the tags of an interest's own slice weigh this much more.
INTEREST_LEAN = 3.0
# Resources and users are drawn with Zipf-like popularity of this exponent.
POPULARITY_EXPONENT = 0.5


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for one consumer of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(2, np.uint64)[0] >> 1)


def _popularity(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = 1.0 / (1.0 + rng.permutation(n)) ** POPULARITY_EXPONENT
    return weights / weights.sum()


def planted_model(shape: dict, seed: int) -> tuple[tagtopics.ItmModel, np.ndarray]:
    """The planted ITM for ``shape`` (keys R, U, T, K, I) and its
    dominant topic per planted resource id."""
    n_res, n_usr, n_tag, n_top, n_int = (shape[k] for k in ("R", "U", "T", "K", "I"))
    rng = np.random.default_rng(derive_seed(seed, 0))
    dominant = rng.integers(0, n_top, n_res)
    topic_given_resource = np.full((n_res, n_top), (1.0 - DOMINANT_TOPIC) / (n_top - 1))
    topic_given_resource[np.arange(n_res), dominant] = DOMINANT_TOPIC
    interest_given_user = np.full((n_usr, n_int), (1.0 - DOMINANT_INTEREST) / (n_int - 1))
    interest_given_user[np.arange(n_usr), rng.integers(0, n_int, n_usr)] = DOMINANT_INTEREST

    block = n_tag // n_top
    tags = np.zeros((n_int, n_top, n_tag))
    for i in range(n_int):
        lean = np.ones(block)
        lean[i * block // n_int:(i + 1) * block // n_int] = INTEREST_LEAN
        for z in range(n_top):
            tags[i, z, z * block:(z + 1) * block] = (1.0 - BACKGROUND) * lean / lean.sum()
    tags += BACKGROUND / n_tag
    tags /= tags.sum(axis=2, keepdims=True)

    model = tagtopics.ItmModel(
        tag_given_interest_topic=tags, interest_given_user=interest_given_user,
        topic_given_resource=topic_given_resource, user_probs=_popularity(rng, n_usr),
        resource_probs=_popularity(rng, n_res), seed=0)
    return model, dominant


def sample_lines(model: tagtopics.ItmModel, n_samples: int, seed: int) -> list[str]:
    """Draw ``n_samples`` triples with ``tagtopics.sample_corpus`` and return
    them as raw TSV lines, one line per draw, in a seeded random order."""
    corpus = tagtopics.sample_corpus(tagtopics.PlantedSpec(model, n_samples, seed))
    names_r, names_u, names_t = corpus.resources.entries, corpus.users.entries, corpus.tags.entries
    rows = np.repeat(np.arange(corpus.num_triples), corpus.counts)
    np.random.default_rng(seed).shuffle(rows)
    return [f"{names_r[corpus.r_ids[k]]}\t{names_u[corpus.u_ids[k]]}\t{names_t[corpus.t_ids[k]]}\n"
            for k in rows]


def write_labels(path, seed_name: str, names, dominant: np.ndarray) -> None:
    """``same`` for resources that share the seed's planted topic, else
    ``unrelated``; resource names are ``r<planted id>``."""
    topic = dominant[int(seed_name[1:])]
    with open(path, "w", encoding="utf-8") as stream:
        for name in names:
            if name != seed_name:
                label = "same" if dominant[int(name[1:])] == topic else "unrelated"
                stream.write(f"{name}\t{label}\n")
