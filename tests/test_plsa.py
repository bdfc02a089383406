import io
import math

import numpy as np
import pytest

import oracles
from helpers import make_corpus, permute_corpus_tags, random_corpus, rt_counts
from tagtopics._textio import write_model
from tagtopics.errors import ConfigError, DataError, DegeneracyError
from tagtopics.plsa import PlsaModel, train_plsa
from tagtopics.modelio import read_model
from tagtopics.training import TrainConfig


def cfg(**kwargs):
    kwargs.setdefault("model", "plsa")
    kwargs.setdefault("topics", 2)
    kwargs.setdefault("seed", 3)
    return TrainConfig(**kwargs)


class TestTrainPlsa:
    def test_single_topic_collapse(self, toy_corpus):
        model, log = train_plsa(toy_corpus, cfg(topics=1, tol=1e-9))
        assert log.converged and log.iterations <= 2
        np.testing.assert_allclose(model.topic_given_resource, 1.0)
        np.testing.assert_allclose(model.tag_given_topic[0],
                                   toy_corpus.n_t / toy_corpus.total, atol=1e-12)
        expected = sum(
            n * math.log((toy_corpus.n_r[r] / toy_corpus.total)
                         * (toy_corpus.n_t[t] / toy_corpus.total))
            for (r, t), n in rt_counts(toy_corpus).items())
        assert model.log_likelihood(toy_corpus) == pytest.approx(expected, abs=1e-10)

    def test_disjoint_resources_separate(self, disjoint_corpus):
        corpus = disjoint_corpus
        model, log = train_plsa(corpus, cfg(topics=2, seed=0, tol=1e-12, max_iters=500))
        rows = model.topic_given_resource
        assert rows[0].max() >= 0.99
        assert rows[1].max() >= 0.99
        assert np.argmax(rows[0]) != np.argmax(rows[1])
        # the separated solution is the analytic optimum: p(t|r) saturated
        bound = sum(
            n * math.log((corpus.n_r[r] / corpus.total) * (n / corpus.n_r[r]))
            for (r, t), n in rt_counts(corpus).items())
        trained = model.log_likelihood(corpus)
        assert trained <= bound + 1e-9
        assert trained == pytest.approx(bound, abs=1e-6)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_log_likelihood_is_monotone(self, seed):
        corpus = random_corpus(seed)
        _, log = train_plsa(corpus, cfg(topics=3, seed=seed, tol=1e-12, max_iters=40))
        lls = log.log_likelihoods
        assert all(ll <= 0.0 for ll in lls)
        for previous, current in zip(lls, lls[1:]):
            assert current >= previous - 1e-9 * abs(previous)

    def test_normalization_after_every_update(self, toy_corpus):
        checked = []

        def hook(model, iteration, ll):
            np.testing.assert_allclose(model.tag_given_topic.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.topic_given_resource.sum(axis=1), 1.0, atol=1e-10)
            assert np.array_equal(model.resource_probs, toy_corpus.n_r / toy_corpus.total)
            checked.append(iteration)

        train_plsa(toy_corpus, cfg(max_iters=10, tol=1e-12), iteration_hook=hook)
        assert checked == list(range(1, len(checked) + 1))

    def test_deterministic_per_seed(self, toy_corpus):
        first, _ = train_plsa(toy_corpus, cfg(seed=42, max_iters=15))
        second, _ = train_plsa(toy_corpus, cfg(seed=42, max_iters=15))
        assert np.array_equal(first.tag_given_topic, second.tag_given_topic)
        assert np.array_equal(first.topic_given_resource, second.topic_given_resource)

    def test_warns_when_topics_exceed_tags(self, tiny_corpus):
        with pytest.warns(UserWarning, match="exceeds the tag vocabulary"):
            train_plsa(tiny_corpus, cfg(topics=5, max_iters=3))

    def test_invalid_config_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            train_plsa(tiny_corpus, cfg(topics=0))


class TestLogLikelihood:
    def test_two_pairs_sum_of_logs(self):
        corpus = make_corpus(["a\tu\tx", "b\tu\ty"])
        model = PlsaModel(
            tag_given_topic=np.array([[0.25, 0.75]]),
            topic_given_resource=np.array([[1.0], [1.0]]),
            resource_probs=np.array([0.5, 0.5]),
        )
        expected = math.log(0.5 * 0.25) + math.log(0.5 * 0.75)
        assert model.log_likelihood(corpus) == pytest.approx(expected, abs=1e-12)

    def test_uniform_two_by_two(self):
        corpus = make_corpus(["a\tu\tx", "a\tu\ty", "b\tu\tx", "b\tu\ty"])
        model = PlsaModel(
            tag_given_topic=np.array([[0.5, 0.5]]),
            topic_given_resource=np.array([[1.0], [1.0]]),
            resource_probs=np.array([0.5, 0.5]),
        )
        assert model.log_likelihood(corpus) == pytest.approx(4 * math.log(0.25), abs=1e-12)
        assert model.log_likelihood(corpus) == pytest.approx(-5.545177444479562, abs=1e-9)

    def test_matches_bruteforce_oracle(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=5, tol=1e-12))
        assert model.log_likelihood(toy_corpus) == pytest.approx(
            oracles.plsa_log_likelihood(model, toy_corpus), abs=1e-12)

    def test_zero_probability_pair_reports_minus_inf(self):
        corpus = make_corpus(["a\tu\tx", "b\tu\ty"])
        model = PlsaModel(
            tag_given_topic=np.array([[1.0, 0.0]]),
            topic_given_resource=np.array([[1.0], [1.0]]),
            resource_probs=np.array([0.5, 0.5]),
        )
        value = model.log_likelihood(corpus)
        assert value == -math.inf

    def test_dimension_mismatch_rejected(self, toy_corpus, tiny_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=2))
        with pytest.raises(DataError):
            model.log_likelihood(tiny_corpus)


class TestPosterior:
    def test_rows_sum_to_one_on_observed_pairs(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=4))
        for (r, t) in rt_counts(toy_corpus):
            post = model.posterior(r, t)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(post, oracles.plsa_posterior(model, r, t), atol=1e-13)

    def test_zero_support_raises(self):
        model = PlsaModel(
            tag_given_topic=np.array([[1.0, 0.0]]),
            topic_given_resource=np.array([[1.0]]),
            resource_probs=np.array([1.0]),
        )
        with pytest.raises(DegeneracyError, match=r"\(r=0, t=1\)"):
            model.posterior(0, 1)


class TestTopicDistribution:
    def test_single_topic(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(topics=1))
        np.testing.assert_allclose(model.topic_distribution(0).probs, [1.0])

    def test_uniform_rows_give_uniform_distribution(self):
        model = PlsaModel(
            tag_given_topic=np.full((4, 3), 1 / 3),
            topic_given_resource=np.full((2, 4), 0.25),
            resource_probs=np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(model.topic_distribution(1).probs, 0.25)

    def test_disjoint_training_concentrates(self, disjoint_corpus):
        model, _ = train_plsa(disjoint_corpus, cfg(topics=2, seed=0, tol=1e-12, max_iters=500))
        row_a = model.topic_distribution(0).probs
        row_b = model.topic_distribution(1).probs
        hot_a, hot_b = np.argmax(row_a), np.argmax(row_b)
        assert hot_a != hot_b
        assert row_a[hot_a] == pytest.approx(1.0, abs=1e-2)
        assert row_b[hot_b] == pytest.approx(1.0, abs=1e-2)

    def test_unknown_resource(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=2))
        with pytest.raises(DataError):
            model.topic_distribution(99)


class TestStructuralInvariants:
    def test_tag_relabeling_leaves_ll_unchanged(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=8))
        perm = np.array([2, 0, 1])
        permuted_corpus = permute_corpus_tags(toy_corpus, perm)
        permuted_model = PlsaModel(
            tag_given_topic=model.tag_given_topic[:, np.argsort(perm)],
            topic_given_resource=model.topic_given_resource,
            resource_probs=model.resource_probs,
        )
        assert permuted_model.log_likelihood(permuted_corpus) == pytest.approx(
            model.log_likelihood(toy_corpus), abs=1e-12)

    def test_serialization_roundtrip_is_exact(self, toy_corpus):
        model, _ = train_plsa(toy_corpus, cfg(max_iters=6, seed=9))
        buffer = io.StringIO()
        write_model(model, buffer)
        buffer.seek(0)
        again = read_model(buffer)
        assert np.array_equal(model.tag_given_topic, again.tag_given_topic)
        assert np.array_equal(model.topic_given_resource, again.topic_given_resource)
        assert np.array_equal(model.resource_probs, again.resource_probs)
        assert again.seed == model.seed
