import contextlib
import functools
import io
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from helpers import make_corpus, openblas_dynamic_arch, random_corpus, run_pytest
from tagtopics import itm
from tagtopics._textio import write_model
from tagtopics.errors import ConfigError, DataError, DegeneracyError
from tagtopics.itm import ItmModel, train_itm
from tagtopics.plsa import train_plsa
from tagtopics.sampling import planted_two_topic_spec, sample_corpus
from tagtopics.modelio import read_model
from tagtopics.training import (_SLICES, TrainConfig, chunk_edges, mapreduce_slices,
                                noisy_uniform_rows)

def cfg(**kwargs):
    kwargs.setdefault("model", "itm")
    kwargs.setdefault("topics", 2)
    kwargs.setdefault("interests", 2)
    kwargs.setdefault("seed", 3)
    return TrainConfig(**kwargs)


class TestPosterior:
    def test_documented_worked_example(self, hand_itm_model):
        post = hand_itm_model.posterior(0, 0, 0)
        raw = np.array([[0.27, 0.012], [0.108, 0.028]])
        np.testing.assert_allclose(post, raw / raw.sum(), atol=1e-14)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_cells_match_bruteforce(self, hand_itm_model):
        for r in range(2):
            for u in range(2):
                for t in range(3):
                    np.testing.assert_allclose(
                        hand_itm_model.posterior(r, u, t),
                        oracles.itm_posterior(hand_itm_model, r, u, t), atol=1e-14)

    def test_uniform_parameters_give_uniform_posterior(self):
        model = ItmModel(
            tag_given_interest_topic=np.full((3, 2, 4), 0.25),
            interest_given_user=np.full((2, 3), 1 / 3),
            topic_given_resource=np.full((2, 2), 0.5),
            user_probs=np.array([0.5, 0.5]),
            resource_probs=np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(model.posterior(0, 1, 2), 1 / 6, atol=1e-14)

    def test_degenerate_latent_space(self):
        model = ItmModel(
            tag_given_interest_topic=np.array([[[1.0]]]),
            interest_given_user=np.array([[1.0]]),
            topic_given_resource=np.array([[1.0]]),
            user_probs=np.array([1.0]),
            resource_probs=np.array([1.0]),
        )
        np.testing.assert_allclose(model.posterior(0, 0, 0), [[1.0]])

    def test_zero_numerator_identifies_triple(self):
        model = ItmModel(
            tag_given_interest_topic=np.array([[[1.0, 0.0]]]),
            interest_given_user=np.array([[1.0]]),
            topic_given_resource=np.array([[1.0]]),
            user_probs=np.array([1.0]),
            resource_probs=np.array([1.0]),
        )
        with pytest.raises(DegeneracyError, match=r"\(r=0, u=0, t=1\)"):
            model.posterior(0, 0, 1)


class TestTrainItm:
    def test_degenerate_latents_recover_tag_marginal(self, toy_corpus):
        model, log = train_itm(toy_corpus, cfg(topics=1, interests=1, tol=1e-9))
        assert log.converged and log.iterations <= 2
        np.testing.assert_allclose(model.tag_given_interest_topic[0, 0],
                                   toy_corpus.n_t / toy_corpus.total, atol=1e-12)

    def test_first_update_equals_e_step_plus_m_step(self, toy_corpus):
        corpus = toy_corpus
        config = cfg(seed=11, max_iters=1, tol=1e-15)
        trained, _ = train_itm(corpus, config)

        rng = np.random.default_rng(config.seed)
        start = ItmModel(
            tag_given_interest_topic=noisy_uniform_rows(
                rng, config.interests * config.topics, len(corpus.tags)
            ).reshape(config.interests, config.topics, len(corpus.tags)),
            topic_given_resource=noisy_uniform_rows(rng, len(corpus.resources), config.topics),
            interest_given_user=noisy_uniform_rows(rng, len(corpus.users), config.interests),
            user_probs=corpus.n_u / corpus.total,
            resource_probs=corpus.n_r / corpus.total,
        )
        posts = np.stack([start.posterior(r, u, t)
                          for r, u, t in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids)])
        tag_table, interest_table, topic_table = oracles.itm_m_step(corpus, posts)
        np.testing.assert_allclose(trained.tag_given_interest_topic, tag_table, atol=1e-10)
        np.testing.assert_allclose(trained.interest_given_user, interest_table, atol=1e-10)
        np.testing.assert_allclose(trained.topic_given_resource, topic_table, atol=1e-10)

    def test_single_interest_reduces_to_plsa(self, four_resource_corpus):
        corpus = four_resource_corpus
        shared = dict(topics=2, seed=5, tol=1e-12, max_iters=500)
        itm_model, _ = train_itm(corpus, cfg(interests=1, **shared))
        plsa_model, _ = train_plsa(corpus, TrainConfig(model="plsa", **shared))
        user_term = float(np.sum(corpus.n_u * np.log(corpus.n_u / corpus.total)))
        assert itm_model.log_likelihood(corpus) == pytest.approx(
            plsa_model.log_likelihood(corpus) + user_term, abs=1e-6)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_log_likelihood_is_monotone(self, seed):
        corpus = random_corpus(seed)
        _, log = train_itm(corpus, cfg(topics=3, interests=2, seed=seed,
                                       tol=1e-12, max_iters=40))
        lls = log.log_likelihoods
        assert all(ll <= 0.0 for ll in lls)
        for previous, current in zip(lls, lls[1:]):
            assert current >= previous - 1e-9 * abs(previous)

    def test_normalization_after_every_update(self, toy_corpus):
        def hook(model, iteration, ll):
            flat = model.tag_given_interest_topic.reshape(-1, len(toy_corpus.tags))
            np.testing.assert_allclose(flat.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.interest_given_user.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.topic_given_resource.sum(axis=1), 1.0, atol=1e-10)
            assert np.array_equal(model.user_probs, toy_corpus.n_u / toy_corpus.total)
            assert np.array_equal(model.resource_probs, toy_corpus.n_r / toy_corpus.total)

        train_itm(toy_corpus, cfg(max_iters=8, tol=1e-12), iteration_hook=hook)

    def test_planted_two_topic_recovery(self):
        spec = planted_two_topic_spec()
        corpus = sample_corpus(spec)
        model, _ = train_itm(corpus, cfg(seed=0, tol=1e-8, max_iters=200))
        planted = spec.model.topic_given_resource
        learned = model.topic_given_resource
        # map learned topics to planted ones by the majority assignment
        resource_ids = [corpus.resources.id_of(f"r{i}") for i in range(20)]
        votes = np.argmax(learned[resource_ids], axis=1)
        flip = votes[:10].sum() > 5
        aligned = learned[:, ::-1] if flip else learned
        np.testing.assert_allclose(aligned[resource_ids], planted, atol=1e-1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_training_builds_its_tag_runs_once(self, workers):
        # Once for the training's plan, not once per pass: 3 fused passes and the
        # final log-likelihood pass walk the plan that train made.
        corpus = random_corpus(5)
        rows = len(ItmModel.rows(corpus)[1])
        with (mock.patch.object(ItmModel, "chunk_rows", 7),
              mock.patch.object(itm, "tag_runs", wraps=itm.tag_runs) as runs):
            _, log = train_itm(corpus, cfg(max_iters=3, tol=1e-15, workers=workers))
        assert log.iterations == 3 and not log.converged
        chunks = [a for edges in chunk_edges(rows, 7) for a, _ in edges]
        assert len(chunks) > 2 * _SLICES  # several chunks per slice
        assert runs.call_count == len(chunks)

    def test_memory_budget_guard(self, toy_corpus):
        with pytest.raises(ConfigError, match="budget"):
            train_itm(toy_corpus, cfg(max_table_bytes=10))

    def test_deterministic_per_seed(self, toy_corpus):
        first, _ = train_itm(toy_corpus, cfg(seed=42, max_iters=12))
        second, _ = train_itm(toy_corpus, cfg(seed=42, max_iters=12))
        assert np.array_equal(first.tag_given_interest_topic, second.tag_given_interest_topic)
        assert np.array_equal(first.interest_given_user, second.interest_given_user)
        assert np.array_equal(first.topic_given_resource, second.topic_given_resource)



@st.composite
def tag_runs(draw, n_interests):
    """A random itm model and data rows in (t, r, u) order: tag 0 has one row,
    tag 1 none, and tag 2 a run over two slices of several chunks each;
    counts go up to 9, with one above 1.  Returns ``(model, ids, counts,
    chunk_rows)``."""
    n_resources, n_users = draw(st.integers(7, 9)), draw(st.integers(7, 9))
    chunk_rows = draw(st.integers(1, 3))
    sizes = [1, 0, draw(st.integers(16 * chunk_rows + 1, n_resources * n_users))]
    sizes += draw(st.lists(st.integers(1, n_resources * n_users), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [np.sort(rng.choice(n_resources * n_users, size, replace=False)) for size in sizes]
    r, u = np.divmod(np.concatenate(pairs), n_users)
    t = np.repeat(np.arange(len(sizes)), sizes)
    counts = rng.integers(1, 10, size=len(t))
    counts[draw(st.integers(0, len(t) - 1))] = draw(st.integers(2, 9))
    n_topics = draw(st.integers(1, 4))
    model = ItmModel(
        tag_given_interest_topic=rng.dirichlet(np.ones(len(sizes)), size=(n_interests, n_topics)),
        interest_given_user=rng.dirichlet(np.ones(n_interests), size=n_users),
        topic_given_resource=rng.dirichlet(np.ones(n_topics), size=n_resources),
        user_probs=rng.dirichlet(np.ones(n_users)),
        resource_probs=rng.dirichlet(np.ones(n_resources)))
    return model, {"r": r, "u": u, "t": t}, counts, chunk_rows


class TestFactoredEStep:
    """The trainer's pass over tag runs against the mixture-based E-step."""

    @pytest.mark.parametrize("n_interests", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_statistics_and_log_likelihood_match_the_mixture_e_step(self, n_interests, data):
        model, ids, counts, chunk_rows = data.draw(tag_runs(n_interests))
        edges = [len(counts) * i // _SLICES for i in range(_SLICES + 1)]
        cuts = [a for lo, hi in zip(edges, edges[1:])
                for a in range(lo + chunk_rows, hi, chunk_rows)]
        assert any(ids["t"][a - 1] == ids["t"][a] for a in cuts)  # a run cut inside a slice
        with mock.patch.object(ItmModel, "chunk_rows", chunk_rows):
            stats, ll = mapreduce_slices(model, ids, counts, fused=True)
            assert mapreduce_slices(model, ids, counts, fused=False)[1] == ll
        expected, expected_ll = oracles.itm_mixture_e_step(model, ids, counts)
        for got, want in zip(stats, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert not stats[2][1].any()  # the tag without rows gets no statistic
        assert ll == pytest.approx(expected_ll, rel=1e-12, abs=0)

    @staticmethod
    def zero_tag_model():
        return ItmModel(tag_given_interest_topic=np.array([[[1.0, 0.0]]]),
                        interest_given_user=np.array([[1.0], [1.0]]),
                        topic_given_resource=np.array([[1.0], [1.0]]),
                        user_probs=np.array([0.5, 0.5]), resource_probs=np.array([0.5, 0.5]))

    def test_a_zero_probability_row_raises_with_its_ids(self):
        corpus = make_corpus(["a\tu\tx", "a\tv\ty", "b\tu\ty", "b\tv\tx"])
        model = self.zero_tag_model()
        ids, counts = model.rows(corpus)
        assert list(zip(ids["r"], ids["u"], ids["t"])) == [(0, 0, 0), (1, 1, 0),
                                                             (0, 1, 1), (1, 0, 1)]
        with pytest.raises(DegeneracyError,
                           match=r"^degenerate posterior for triple \(r=0, u=1, t=1\)$"):
            mapreduce_slices(model, ids, counts, fused=True)

    def test_a_zero_probability_row_gives_minus_inf_with_a_warning(self, caplog):
        corpus = make_corpus(["a\tu\tx", "a\tv\ty", "b\tu\ty", "b\tv\tx"])
        with caplog.at_level(logging.WARNING, logger="tagtopics.training"):
            assert self.zero_tag_model().log_likelihood(corpus) == -math.inf
        assert "observed triple has zero probability" in caplog.text


@st.composite
def banded_rows(draw, order, n_interests=None):
    """A random itm model and data rows for the band test.  The first and the last
    tag and one tag between have no rows; one tag's run is longer than all the other
    rows together, so it spans three or more slices.  The rows are in (t, r, u) order
    if ``order`` is "sorted", else in "descending" tag order or "shuffled".  The
    model has ``n_interests`` interests, drawn if ``None``.  Returns
    ``(model, ids, counts, chunk_rows, empty_tags, long_tag)``."""
    n_resources, n_users = draw(st.integers(6, 8)), draw(st.integers(6, 8))
    n_tags = draw(st.integers(5, 9))
    n_interests, n_topics = n_interests or draw(st.integers(1, 3)), draw(st.integers(1, 3))
    chunk_rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = list(range(1, n_tags - 1))
    empty = draw(st.sampled_from(inner))
    long_tag = draw(st.sampled_from([t for t in inner if t != empty]))
    sizes = {t: draw(st.integers(1, 3)) for t in inner if t not in (empty, long_tag)}
    sizes[long_tag] = sum(sizes.values()) + draw(st.integers(3, 10))
    pairs = {t: np.sort(rng.choice(n_resources * n_users, size, replace=False))
             for t, size in sorted(sizes.items())}
    r, u = np.divmod(np.concatenate(list(pairs.values())), n_users)
    t = np.repeat(list(pairs), [len(p) for p in pairs.values()])
    rows = np.arange(len(t))
    if order == "descending":
        rows = np.argsort(-t, kind="stable")
    elif order == "shuffled":
        rows = rng.permutation(len(t))
    model = ItmModel(
        tag_given_interest_topic=rng.dirichlet(np.ones(n_tags), size=(n_interests, n_topics)),
        interest_given_user=rng.dirichlet(np.ones(n_interests), size=n_users),
        topic_given_resource=rng.dirichlet(np.ones(n_topics), size=n_resources),
        user_probs=rng.dirichlet(np.ones(n_users)),
        resource_probs=rng.dirichlet(np.ones(n_resources)))
    ids, counts = {"r": r[rows], "u": u[rows], "t": t[rows]}, rng.integers(1, 10, size=len(t))
    return model, ids, counts, chunk_rows, [0, empty, n_tags - 1], long_tag


def dense_pass(model, ids, counts):
    """A fused pass as it was before bands: each slice sums whole tables from
    zero in ``chunk_rows`` chunks, and the slice sums are added in slice order."""
    edges = sorted({len(counts) * i // _SLICES for i in range(_SLICES + 1)})
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        ll, stats = np.zeros(()), model.zero_stats(0, model.n_tags)
        for a in range(lo, hi, model.chunk_rows):
            b = min(a + model.chunk_rows, hi)
            chunk = {name: col[a:b] for name, col in ids.items()}
            totals = model.e_step(chunk, counts[a:b], stats, 0, **itm.tag_runs(chunk["t"]))
            ll += (counts[a:b] * model.log_terms(totals, chunk)).sum()
        parts.append([ll, *stats])
    ll, *stats = functools.reduce(lambda acc, part: [x + y for x, y in zip(acc, part)], parts)
    return stats, ll


class TestTagBands:
    """Each slice sums p(t|i,z)'s statistic over its own tags alone."""

    @pytest.mark.parametrize("threads", [None, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_data_pass_has_the_bits_of_whole_tables(self, threads, data):
        model, ids, counts, chunk_rows, empty_tags, long_tag = data.draw(banded_rows("sorted"))
        edges = sorted({len(counts) * i // _SLICES for i in range(_SLICES + 1)})
        assert sum(long_tag in ids["t"][lo:hi] for lo, hi in zip(edges, edges[1:])) >= 3
        with (mock.patch.object(ItmModel, "chunk_rows", chunk_rows),
              ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool):
            stats, ll = mapreduce_slices(model, ids, counts, True, pool)
            expected, expected_ll = dense_pass(model, ids, counts)
        assert [(s.shape, s.tobytes()) for s in stats] == \
            [(s.shape, s.tobytes()) for s in expected]
        assert ll.tobytes() == expected_ll.tobytes()
        assert not stats[2][empty_tags].any()
        # Every row is summed, none dropped: the mixture E-step agrees.
        oracle, oracle_ll = oracles.itm_mixture_e_step(model, ids, counts)
        for got, want in zip(stats, oracle):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert ll == pytest.approx(oracle_ll, rel=1e-12, abs=0)

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    @pytest.mark.parametrize("threads", [None, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_chunk_out_of_tag_order_raises(self, threads, order, data):
        # Exactly when a chunk the pass walks descends in tag, which would split a tag's run.
        model, ids, counts, chunk_rows, _, _ = data.draw(banded_rows(order))
        edges, tt = sorted({len(counts) * i // _SLICES for i in range(_SLICES + 1)}), ids["t"]
        chunks = [tt[a:min(a + chunk_rows, hi)]
                  for lo, hi in zip(edges, edges[1:]) for a in range(lo, hi, chunk_rows)]
        descends = any((chunk[1:] < chunk[:-1]).any() for chunk in chunks)
        with (mock.patch.object(ItmModel, "chunk_rows", chunk_rows),
              ThreadPoolExecutor(threads) if threads else contextlib.nullcontext() as pool):
            for fused in (True, False):
                with (pytest.raises(ValueError, match="^itm's E-step takes rows sorted by tag")
                      if descends else contextlib.nullcontext()):
                    mapreduce_slices(model, ids, counts, fused, pool)

    def test_each_slice_gets_only_its_band(self):
        corpus = random_corpus(5)
        model = ItmModel.initial(corpus, cfg(), np.random.default_rng(0))
        ids, counts = model.rows(corpus)
        bands = []
        zero_stats = model.zero_stats

        def recording(lo, hi):
            bands.append((lo, hi))
            return zero_stats(lo, hi)

        with mock.patch.object(model, "zero_stats", recording):
            mapreduce_slices(model, ids, counts, fused=True)
        edges = sorted({len(counts) * i // _SLICES for i in range(_SLICES + 1)})
        assert bands == [(0, model.n_tags)] + [
            (ids["t"][lo], ids["t"][hi - 1] + 1) for lo, hi in zip(edges, edges[1:])]
        # Sorted rows: neighbouring slices share at most the tag at their edge.
        assert sum(hi - lo for lo, hi in bands[1:]) <= model.n_tags + _SLICES - 1


class TestEStepBytes:
    """``ItmModel.e_step`` against contract v2's spelling of it, ``oracles.itm_e_step_v2``:
    the same dgemm calls on the same operands, so the same bytes."""

    @pytest.mark.parametrize("n_interests", [1, None])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_e_step_has_the_bytes_of_contract_v2(self, n_interests, data):
        model, ids, counts, _, _, long_tag = data.draw(banded_rows("sorted", n_interests))
        tt = ids["t"]
        gaps = set((np.flatnonzero(np.diff(tt) > 1) + 1).tolist())  # rows after a missing tag
        assume(gaps)  # none if the inner tag without rows is next to the first or last tag
        # Chunks are cut anywhere but at a missing tag, so a chunk's tag range holds one.
        # One cut falls right after the long run's first row and none before it, so that
        # row ends its chunk as a one-row run, cut from the rest of its run by the edge.
        first_long = int(np.flatnonzero(tt == long_tag)[0])
        cuts = set(data.draw(st.lists(st.integers(1, len(tt) - 1), max_size=len(tt))))
        cuts = (cuts - gaps - {first_long}) | {first_long + 1}
        edges = [0, *sorted(cuts), len(tt)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        seen = set()  # the cases the chunks hold
        for a, b in zip(edges, edges[1:]):
            chunk, n = {name: col[a:b] for name, col in ids.items()}, counts[a:b]
            if any(a < g < b for g in gaps):
                seen.add("a missing tag")
            if 1 in np.unique(chunk["t"], return_counts=True)[1]:
                seen.add("a one-row run")
            if b < len(tt) and tt[b - 1] == tt[b]:
                seen.add("a run cut by the chunk's edge")
            lo = int(chunk["t"][0])
            # Statistics that already hold sums, so that each add's order shows in the bits.
            stats = [rng.random(s.shape) for s in model.zero_stats(lo, int(chunk["t"][-1]) + 1)]
            expected = [s.copy() for s in stats]
            runs = itm.tag_runs(chunk["t"])
            totals = model.e_step(chunk, n, stats, lo, **runs)
            want = oracles.itm_e_step_v2(model, chunk, n, expected, lo)
            assert totals.tobytes() == want.tobytes()
            assert [s.tobytes() for s in stats] == [s.tobytes() for s in expected]
            assert model.e_step(chunk, n, None, lo, **runs).tobytes() == want.tobytes()
            assert oracles.itm_e_step_v2(model, chunk, n, None, lo).tobytes() == want.tobytes()
        assert seen == {"a missing tag", "a one-row run", "a run cut by the chunk's edge"}


@pytest.mark.skipif(not openblas_dynamic_arch(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_e_step_bytes_hold_under_the_haswell_kernel():
    """``TestEStepBytes`` in a process whose OpenBLAS runs its Haswell kernel: ``np.dot``
    makes the oracle's dgemm calls under that kernel too, not only under the default."""
    result = run_pytest("tests/test_itm.py::TestEStepBytes", OPENBLAS_CORETYPE="Haswell")
    assert result.returncode == 0, result.stdout[-4000:]


class TestLogLikelihood:
    def test_uniform_tags_single_bookmark(self):
        corpus = make_corpus([f"a\tu\tt{j}" for j in range(4)])
        model = ItmModel(
            tag_given_interest_topic=np.full((1, 1, 4), 0.25),
            interest_given_user=np.array([[1.0]]),
            topic_given_resource=np.array([[1.0]]),
            user_probs=np.array([1.0]),
            resource_probs=np.array([1.0]),
        )
        assert model.log_likelihood(corpus) == pytest.approx(4 * math.log(0.25), abs=1e-12)

    def test_per_triple_terms_are_logs_of_joint(self, hand_itm_model):
        corpus = make_corpus(["a\tu\tx", "a\tv\ty", "b\tu\tz"])
        expected = (math.log(oracles.itm_joint(hand_itm_model, 0, 0, 0))
                    + math.log(oracles.itm_joint(hand_itm_model, 0, 1, 1))
                    + math.log(oracles.itm_joint(hand_itm_model, 1, 0, 2)))
        assert hand_itm_model.log_likelihood(corpus) == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_oracle(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(max_iters=5, tol=1e-12))
        assert model.log_likelihood(toy_corpus) == pytest.approx(
            oracles.itm_log_likelihood(model, toy_corpus), abs=1e-12)

    def test_zero_probability_triple_reports_minus_inf(self):
        corpus = make_corpus(["a\tu\tx", "a\tu\ty"])
        model = ItmModel(
            tag_given_interest_topic=np.array([[[1.0, 0.0]]]),
            interest_given_user=np.array([[1.0]]),
            topic_given_resource=np.array([[1.0]]),
            user_probs=np.array([1.0]),
            resource_probs=np.array([1.0]),
        )
        assert model.log_likelihood(corpus) == -math.inf


class TestTopicDistribution:
    def test_stored_row_is_returned(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(max_iters=5))
        np.testing.assert_allclose(model.topic_distribution(1).probs,
                                   model.topic_given_resource[1])

    def test_single_topic(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(topics=1, interests=1))
        np.testing.assert_allclose(model.topic_distribution(0).probs, [1.0])

    def test_unknown_resource(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(max_iters=2))
        with pytest.raises(DataError):
            model.topic_distribution(-1)


class TestStructuralInvariants:
    def test_latent_relabeling_leaves_ll_unchanged(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(max_iters=8, topics=2, interests=2))
        perm_i, perm_z = np.array([1, 0]), np.array([1, 0])
        permuted = ItmModel(
            tag_given_interest_topic=model.tag_given_interest_topic[perm_i][:, perm_z],
            interest_given_user=model.interest_given_user[:, perm_i],
            topic_given_resource=model.topic_given_resource[:, perm_z],
            user_probs=model.user_probs,
            resource_probs=model.resource_probs,
        )
        assert permuted.log_likelihood(toy_corpus) == pytest.approx(
            model.log_likelihood(toy_corpus), abs=1e-12)

    def test_interest_rows_stay_normalized_during_training(self, four_resource_corpus):
        sums = []

        def hook(model, iteration, ll):
            sums.append(model.interest_given_user.sum(axis=1).copy())

        train_itm(four_resource_corpus, cfg(max_iters=10, tol=1e-12), iteration_hook=hook)
        for row_sums in sums:
            np.testing.assert_allclose(row_sums, 1.0, atol=1e-10)

    def test_serialization_roundtrip_is_exact(self, toy_corpus):
        model, _ = train_itm(toy_corpus, cfg(max_iters=6, seed=9))
        buffer = io.StringIO()
        write_model(model, buffer)
        buffer.seek(0)
        again = read_model(buffer)
        for name in ("tag_given_interest_topic", "interest_given_user",
                     "topic_given_resource", "user_probs", "resource_probs"):
            assert np.array_equal(getattr(model, name), getattr(again, name))
        assert again.seed == model.seed
