import io
import math

import numpy as np
import pytest

import oracles
from helpers import make_corpus, random_corpus
from tagtopics._textio import write_model
from tagtopics.errors import DataError, DegeneracyError
from tagtopics.mwa import MwaModel, train_mwa
from tagtopics.modelio import read_model
from tagtopics.training import TrainConfig


def cfg(**kwargs):
    kwargs.setdefault("model", "mwa")
    kwargs.setdefault("topics", 2)
    kwargs.setdefault("seed", 3)
    return TrainConfig(**kwargs)


class TestTrainMwa:
    def test_single_aspect_factorizes_into_marginals(self, toy_corpus):
        model, log = train_mwa(toy_corpus, cfg(topics=1, tol=1e-9))
        assert log.converged and log.iterations <= 2
        np.testing.assert_allclose(model.topic_probs, [1.0])
        np.testing.assert_allclose(model.resource_given_topic[0],
                                   toy_corpus.n_r / toy_corpus.total, atol=1e-12)
        np.testing.assert_allclose(model.user_given_topic[0],
                                   toy_corpus.n_u / toy_corpus.total, atol=1e-12)
        np.testing.assert_allclose(model.tag_given_topic[0],
                                   toy_corpus.n_t / toy_corpus.total, atol=1e-12)

    def test_disjoint_cliques_get_one_aspect_each(self, clique_corpus):
        corpus = clique_corpus
        model, _ = train_mwa(corpus, cfg(topics=2, seed=1, tol=1e-12, max_iters=500))
        # block sizes: clique A = 2x2x2 cross product (8 triples), B = 1x2x3 (6)
        mass_a, n_a = 8.0, (2, 2, 2)
        mass_b, n_b = 6.0, (1, 2, 3)
        total = corpus.total
        bound = 0.0
        for mass, dims in ((mass_a, n_a), (mass_b, n_b)):
            cells = dims[0] * dims[1] * dims[2]
            bound += mass * math.log((mass / total) / cells)
        trained = model.log_likelihood(corpus)
        assert trained <= bound + 1e-9
        assert trained == pytest.approx(bound, abs=1e-5)
        for r, u, t in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids):
            post = model.posterior(r, u, t)
            assert post.max() >= 0.99

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_log_likelihood_is_monotone(self, seed):
        corpus = random_corpus(seed)
        _, log = train_mwa(corpus, cfg(topics=3, seed=seed, tol=1e-12, max_iters=40))
        lls = log.log_likelihoods
        assert all(ll <= 0.0 for ll in lls)
        for previous, current in zip(lls, lls[1:]):
            assert current >= previous - 1e-9 * abs(previous)

    def test_normalization_after_every_update(self, toy_corpus):
        def hook(model, iteration, ll):
            assert model.topic_probs.sum() == pytest.approx(1.0, abs=1e-10)
            for table in (model.resource_given_topic, model.user_given_topic,
                          model.tag_given_topic):
                np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)

        train_mwa(toy_corpus, cfg(max_iters=8, tol=1e-12), iteration_hook=hook)

    def test_deterministic_per_seed(self, toy_corpus):
        first, _ = train_mwa(toy_corpus, cfg(seed=42, max_iters=12))
        second, _ = train_mwa(toy_corpus, cfg(seed=42, max_iters=12))
        for name in ("topic_probs", "resource_given_topic", "user_given_topic",
                     "tag_given_topic"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_warns_when_topics_exceed_tags(self, tiny_corpus):
        with pytest.warns(UserWarning):
            train_mwa(tiny_corpus, cfg(topics=6, max_iters=3))


class TestLogLikelihood:
    def test_per_triple_terms_are_logs_of_joint(self):
        corpus = make_corpus(["a\tu\tx", "a\tu\ty"])
        model = MwaModel(
            topic_probs=np.array([1.0]),
            resource_given_topic=np.array([[1.0]]),
            user_given_topic=np.array([[1.0]]),
            tag_given_topic=np.array([[0.25, 0.75]]),
        )
        expected = math.log(0.25) + math.log(0.75)
        assert model.log_likelihood(corpus) == pytest.approx(expected, abs=1e-12)

    def test_uniform_cube(self):
        lines = [f"{r}\t{u}\t{t}" for r in "ab" for u in ("u1", "u2") for t in "xy"]
        corpus = make_corpus(lines)
        model = MwaModel(
            topic_probs=np.array([1.0]),
            resource_given_topic=np.array([[0.5, 0.5]]),
            user_given_topic=np.array([[0.5, 0.5]]),
            tag_given_topic=np.array([[0.5, 0.5]]),
        )
        assert model.log_likelihood(corpus) == pytest.approx(8 * math.log(1 / 8), abs=1e-12)

    def test_matches_bruteforce_oracle(self, toy_corpus):
        model, _ = train_mwa(toy_corpus, cfg(max_iters=5, tol=1e-12))
        assert model.log_likelihood(toy_corpus) == pytest.approx(
            oracles.mwa_log_likelihood(model, toy_corpus), abs=1e-12)

    def test_zero_probability_triple_reports_minus_inf(self):
        corpus = make_corpus(["a\tu\tx", "b\tu\ty"])
        model = MwaModel(
            topic_probs=np.array([1.0]),
            resource_given_topic=np.array([[1.0, 0.0]]),
            user_given_topic=np.array([[1.0]]),
            tag_given_topic=np.array([[0.5, 0.5]]),
        )
        assert model.log_likelihood(corpus) == -math.inf


class TestPosterior:
    def test_rows_sum_to_one(self, toy_corpus):
        model, _ = train_mwa(toy_corpus, cfg(max_iters=4))
        for r, u, t in zip(toy_corpus.r_ids, toy_corpus.u_ids, toy_corpus.t_ids):
            post = model.posterior(r, u, t)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                post, oracles.mwa_posterior(model, r, u, t),
                atol=1e-13)

    def test_hand_model_matches_oracle(self, hand_mwa_model):
        for r in range(2):
            for u in range(2):
                for t in range(3):
                    np.testing.assert_allclose(
                        hand_mwa_model.posterior(r, u, t),
                        oracles.mwa_posterior(hand_mwa_model, r, u, t), atol=1e-14)


class TestTopicDistribution:
    def test_single_aspect(self, toy_corpus):
        model, _ = train_mwa(toy_corpus, cfg(topics=1))
        np.testing.assert_allclose(model.topic_distribution(0).probs, [1.0])

    def test_symmetric_resource_stays_uniform(self):
        model = MwaModel(
            topic_probs=np.array([0.5, 0.5]),
            resource_given_topic=np.array([[0.2, 0.8], [0.2, 0.8]]),
            user_given_topic=np.array([[1.0], [1.0]]),
            tag_given_topic=np.array([[1.0], [1.0]]),
        )
        np.testing.assert_allclose(model.topic_distribution(0).probs, [0.5, 0.5])

    def test_bayes_inversion(self):
        model = MwaModel(
            topic_probs=np.array([0.25, 0.75]),
            resource_given_topic=np.array([[0.4, 0.6], [0.1, 0.9]]),
            user_given_topic=np.array([[1.0], [1.0]]),
            tag_given_topic=np.array([[1.0], [1.0]]),
        )
        np.testing.assert_allclose(model.topic_distribution(0).probs,
                                   [4 / 7, 3 / 7], atol=1e-12)
        np.testing.assert_allclose(model.topic_distribution(0).probs,
                                   [0.5714285714285714, 0.42857142857142855], atol=1e-12)

    def test_no_support_raises(self):
        model = MwaModel(
            topic_probs=np.array([1.0]),
            resource_given_topic=np.array([[1.0, 0.0]]),
            user_given_topic=np.array([[1.0]]),
            tag_given_topic=np.array([[1.0]]),
        )
        with pytest.raises(DegeneracyError, match="no support"):
            model.topic_distribution(1)


class TestStructuralInvariants:
    def test_swapping_equivalent_tags_leaves_ll_unchanged(self):
        # tags x and y have identical count profiles
        corpus = make_corpus(["a\tu\tx", "a\tu\ty", "b\tv\tx", "b\tv\ty"])
        model, _ = train_mwa(corpus, cfg(max_iters=10, seed=7))
        x, y = corpus.tags.id_of("x"), corpus.tags.id_of("y")
        swapped = model.tag_given_topic.copy()
        swapped[:, [x, y]] = swapped[:, [y, x]]
        swapped_model = MwaModel(
            topic_probs=model.topic_probs,
            resource_given_topic=model.resource_given_topic,
            user_given_topic=model.user_given_topic,
            tag_given_topic=swapped,
        )
        assert swapped_model.log_likelihood(corpus) == pytest.approx(
            model.log_likelihood(corpus), abs=1e-12)

    def test_serialization_roundtrip_is_exact(self, toy_corpus):
        model, _ = train_mwa(toy_corpus, cfg(max_iters=6, seed=9))
        buffer = io.StringIO()
        write_model(model, buffer)
        buffer.seek(0)
        again = read_model(buffer)
        for name in ("topic_probs", "resource_given_topic", "user_given_topic",
                     "tag_given_topic"):
            assert np.array_equal(getattr(model, name), getattr(again, name))

    def test_dimension_mismatch_rejected(self, toy_corpus, tiny_corpus):
        model, _ = train_mwa(toy_corpus, cfg(max_iters=2))
        with pytest.raises(DataError):
            model.log_likelihood(tiny_corpus)
