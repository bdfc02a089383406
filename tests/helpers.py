"""Shared test utilities: corpus builders, structural transforms, a traced peak and a
pytest run in a subprocess."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from tagtopics._textio import ROW_SUM_ATOL
from tagtopics.corpus import Corpus, Vocab, ingest_triples
from tagtopics.itm import ItmModel, train_itm
from tagtopics.mwa import train_mwa
from tagtopics.plsa import train_plsa
from tagtopics.sampling import PlantedSpec, sample_corpus

TRAINERS = {"plsa": train_plsa, "mwa": train_mwa, "itm": train_itm}  # by model kind

# A malformed triples line of each kind, with a fragment of its error.
MALFORMED = [
    ("a\tu1", "line 1"),
    ("a\tu1\tx\t1\textra", "line 1"),
    ("a\t\tx", "empty field"),
    ("a\tu1\tx\t0", "positive"),
    ("a\tu1\tx\t-2", "positive"),
    ("a\tu1\tx\tmany", "not an integer"),
    ("a\tu1\tx\t1_000", "not ASCII digits"),
    ("a\tu1\tx\t+3", "not ASCII digits"),
    ("a\tu1\tx\t 7", "not ASCII digits"),
    ("a\tu1\tx\t\u0663", "not ASCII digits"),  # ARABIC-INDIC DIGIT THREE
    ("a\tu1\tx\t9223372036854775808", r"exceeds 2\*\*63 - 1"),
    ("a\tu1\tx\t99999999999999999999", r"exceeds 2\*\*63 - 1"),
]
# Lines whose names hold a reserved character (embedded CR or LF).
RESERVED = ["a\rb\tu1\tx", "a\tu1\nu2\tx", "a\tu1\tx\ry\t2"]
# Sums of a row at the edge of ROW_SUM_ATOL, each with whether it passes: the
# doubles nearest 1 +- ROW_SUM_ATOL lie just past it, so the next ones in are taken.
ROW_SUM_EDGES = [(float(np.nextafter(1 + ROW_SUM_ATOL, 1)), True),
                 (float(np.nextafter(1 - ROW_SUM_ATOL, 1)), True),
                 (1 + 2 * ROW_SUM_ATOL, False), (1 - 2 * ROW_SUM_ATOL, False)]


def make_corpus(lines):
    return ingest_triples(lines)


def rt_counts(corpus):
    """User-aggregated counts ``{(r, t): n(r, t)}`` read off ``Corpus.rt_arrays``."""
    return {(int(r), int(t)): int(n) for r, t, n in zip(*corpus.rt_arrays())}


def named_triples(corpus):
    """Counts keyed by entity names, independent of id assignment."""
    return {
        (corpus.resources.name_of(r), corpus.users.name_of(u), corpus.tags.name_of(t)): int(n)
        for r, u, t, n in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts)
    }


def random_itm_spec(seed, n_resources=8, n_users=5, n_tags=10,
                    n_interests=2, n_topics=3, n_samples=800):
    """A fully random (Dirichlet) interest-topic generator."""
    rng = np.random.default_rng(seed)
    model = ItmModel(
        tag_given_interest_topic=rng.dirichlet(np.ones(n_tags), size=(n_interests, n_topics)),
        interest_given_user=rng.dirichlet(np.ones(n_interests), size=n_users),
        topic_given_resource=rng.dirichlet(np.ones(n_topics), size=n_resources),
        user_probs=rng.dirichlet(np.ones(n_users)),
        resource_probs=rng.dirichlet(np.ones(n_resources)),
    )
    return PlantedSpec(model=model, n_samples=n_samples, seed=seed + 1)


def random_corpus(seed, **kwargs):
    return sample_corpus(random_itm_spec(seed, **kwargs))


def permute_corpus_tags(corpus, perm):
    """Relabel tag ids: new id of old tag t is perm[t]."""
    perm = np.asarray(perm)
    inverse = np.argsort(perm)
    tags = Vocab(corpus.tags.entries[inverse[j]] for j in range(len(corpus.tags)))
    return Corpus(corpus.resources, corpus.users, tags,
                  corpus.r_ids, corpus.u_ids, perm[corpus.t_ids], corpus.counts)


def traced_peak(call):
    """``(call(), peak)``: the most bytes ``tracemalloc`` saw allocated during the
    call beyond what was allocated before it (tracing is started if it is off)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


ROOT = Path(__file__).resolve().parent.parent


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an x86-64 OpenBLAS built with ``DYNAMIC_ARCH``, which
    picks its kernel when it loads, so ``OPENBLAS_CORETYPE`` can choose another."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def run_pytest(*args, **env) -> subprocess.CompletedProcess:
    """``python -m pytest -q *args`` from the repository root in a fresh process, with
    ``env`` added to this process's environment (say, ``OPENBLAS_CORETYPE``, which a
    BLAS reads only when it loads); its stdout and stderr are joined in ``stdout``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **env},
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=600)
