"""Release acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line, so with ``pytest tests/test_acceptance.py -v -s``
the suite doubles as a printed checklist.
"""

import contextlib
import time

import numpy as np
import pytest

import oracles
from helpers import TRAINERS, random_corpus
from tagtopics import cli
from tagtopics.metrics import LabelSet, count_relevant_topk, effort_to_n
from tagtopics.sampling import planted_two_topic_spec, sample_corpus
from tagtopics.similarity import LN2, RankedList, js_divergence, rank_by_seed
from tagtopics.training import TrainConfig


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [FAIL] {title}")
        raise
    else:
        print(f"criterion {number} [PASS] {title}")


def train_config(kind, **kwargs):
    base = dict(model=kind, topics=4, seed=0, tol=1e-12, max_iters=30)
    if kind == "itm":
        base["interests"] = 3
    base.update(kwargs)
    return TrainConfig(**base)


def test_criterion_1_em_monotonicity():
    started = time.perf_counter()
    with criterion(1, "per-iteration log-likelihood never decreases (all models)"):
        for seed in (101, 102, 103):
            corpus = random_corpus(seed, n_resources=30, n_users=15, n_tags=24,
                                   n_samples=4000)
            assert len(corpus.resources) <= 50
            assert len(corpus.users) <= 20
            assert len(corpus.tags) <= 30
            assert corpus.total <= 5000
            for kind, trainer in TRAINERS.items():
                _, log = trainer(corpus, train_config(kind, seed=seed))
                lls = log.log_likelihoods
                assert len(lls) >= 2
                for previous, current in zip(lls, lls[1:]):
                    assert current >= previous - 1e-9 * abs(previous), \
                        f"{kind} decreased on corpus seed {seed}"
        assert time.perf_counter() - started < 60.0


def test_criterion_2_normalization_invariants(toy_corpus):
    with criterion(2, "tables re-normalize after every M-step; p(u), p(r) stay empirical"):
        empirical_r = toy_corpus.n_r / toy_corpus.total
        empirical_u = toy_corpus.n_u / toy_corpus.total

        def check_plsa(model, iteration, ll):
            np.testing.assert_allclose(model.tag_given_topic.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.topic_given_resource.sum(axis=1), 1.0, atol=1e-10)
            assert np.array_equal(model.resource_probs, empirical_r)

        def check_mwa(model, iteration, ll):
            assert abs(model.topic_probs.sum() - 1.0) <= 1e-10
            for table in (model.resource_given_topic, model.user_given_topic,
                          model.tag_given_topic):
                np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)

        def check_itm(model, iteration, ll):
            flat = model.tag_given_interest_topic.reshape(-1, model.n_tags)
            np.testing.assert_allclose(flat.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.interest_given_user.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_allclose(model.topic_given_resource.sum(axis=1), 1.0, atol=1e-10)
            assert np.array_equal(model.user_probs, empirical_u)
            assert np.array_equal(model.resource_probs, empirical_r)

        hooks = {"plsa": check_plsa, "mwa": check_mwa, "itm": check_itm}
        for kind, trainer in TRAINERS.items():
            _, log = trainer(toy_corpus, train_config(kind, topics=2, max_iters=12),
                             iteration_hook=hooks[kind])
            assert log.iterations >= 1


def test_criterion_3_posterior_oracle(hand_plsa_model, hand_mwa_model, hand_itm_model):
    with criterion(3, "E-step posteriors match brute-force enumeration to 1e-12"):
        raw = np.array([[0.27, 0.012], [0.108, 0.028]])
        np.testing.assert_allclose(hand_itm_model.posterior(0, 0, 0),
                                   raw / raw.sum(), atol=1e-12)
        for r in range(2):
            for u in range(2):
                for t in range(3):
                    np.testing.assert_allclose(
                        hand_itm_model.posterior(r, u, t),
                        oracles.itm_posterior(hand_itm_model, r, u, t), atol=1e-12)
                    np.testing.assert_allclose(
                        hand_mwa_model.posterior(r, u, t),
                        oracles.mwa_posterior(hand_mwa_model, r, u, t), atol=1e-12)
        for r in range(2):
            for t in range(3):
                np.testing.assert_allclose(
                    hand_plsa_model.posterior(r, t),
                    oracles.plsa_posterior(hand_plsa_model, r, t), atol=1e-12)


def test_criterion_4_likelihood_oracle(toy_corpus):
    with criterion(4, "log-likelihoods match brute-force nested sums to 1e-12"):
        reference = {"plsa": oracles.plsa_log_likelihood,
                     "mwa": oracles.mwa_log_likelihood,
                     "itm": oracles.itm_log_likelihood}
        for kind, trainer in TRAINERS.items():
            model, _ = trainer(toy_corpus, train_config(kind, topics=2, max_iters=5))
            assert model.log_likelihood(toy_corpus) == pytest.approx(
                reference[kind](model, toy_corpus), abs=1e-12)


def test_criterion_5_js_divergence():
    with criterion(5, "JS divergence identities, bounds and symmetry"):
        rng = np.random.default_rng(55)
        for _ in range(25):
            raw = rng.random(6) + 1e-12
            p = raw / raw.sum()
            assert js_divergence(p, p) == 0.0
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)
        assert js_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.2157616, abs=1e-6)
        for _ in range(1000):
            raw_p, raw_q = rng.random(5) + 1e-12, rng.random(5) + 1e-12
            p, q = raw_p / raw_p.sum(), raw_q / raw_q.sum()
            assert abs(js_divergence(p, q) - js_divergence(q, p)) < 1e-15
            assert 0.0 <= js_divergence(p, q) <= LN2 + 1e-12


def test_criterion_6_planted_recovery():
    started = time.perf_counter()
    with criterion(6, "planted two-topic instance recovered in >= 18/20 restarts"):
        spec = planted_two_topic_spec()
        corpus = sample_corpus(spec)
        assert corpus.total == 20_000
        seed_id = corpus.resources.id_of("r0")
        same_topic = {corpus.resources.id_of(f"r{i}") for i in range(10)}
        successes = 0
        for restart in range(20):
            model, _ = TRAINERS["itm"](corpus, TrainConfig(
                model="itm", topics=2, interests=2, seed=restart,
                tol=1e-8, max_iters=150))
            dists = {r: model.topic_distribution(r)
                     for r in range(len(corpus.resources))}
            ranked = rank_by_seed(dists, seed_id)
            top_nine = {rid for rid, _ in ranked.entries[:9]}
            if top_nine == same_topic - {seed_id}:
                successes += 1
        assert successes >= 18, f"only {successes}/20 restarts recovered the split"
        assert time.perf_counter() - started < 300.0


def test_criterion_7_cross_model_reduction(toy_corpus, four_resource_corpus):
    with criterion(7, "itm with a single interest matches pLSA over triples to 1e-6"):
        for corpus in (toy_corpus, four_resource_corpus):
            shared = dict(topics=2, seed=5, tol=1e-12, max_iters=500)
            itm_model, _ = TRAINERS["itm"](corpus, TrainConfig(model="itm", interests=1, **shared))
            plsa_model, _ = TRAINERS["plsa"](corpus, TrainConfig(model="plsa", **shared))
            user_term = float(np.sum(corpus.n_u * np.log(corpus.n_u / corpus.total)))
            assert itm_model.log_likelihood(corpus) == pytest.approx(
                plsa_model.log_likelihood(corpus) + user_term, abs=1e-6)


def test_criterion_8_metric_arithmetic():
    with criterion(8, "ranking metrics reproduce the definitional examples"):
        names = [f"r{i}" for i in range(30)]
        ranking = RankedList(seed="seed",
                             entries=[(name, i * 0.01) for i, name in enumerate(names)])
        dense = LabelSet({name: "same" for name in names[:10]})
        assert effort_to_n(ranking, dense, 10) == 10
        evens = LabelSet({names[i]: "link-to" for i in range(1, 20, 2)})
        assert effort_to_n(ranking, evens, 10) == 20
        top3 = LabelSet({"r0": "same", "r1": "unrelated", "r2": "link-to"})
        assert count_relevant_topk(ranking, top3, 3) == (1, 1)
        assert count_relevant_topk(ranking, LabelSet({}), 3) == (0, 0)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seed gives byte-identical model files at any worker count"):
        triples = tmp_path / "triples.tsv"
        triples.write_text("a\tu1\tx\t3\na\tu2\ty\nb\tu1\ty\t2\nc\tu2\tz\n"
                           "b\tu2\tx\nc\tu1\ty\t2\nc\tu1\tx\n")
        corpus = tmp_path / "corpus.tsv"
        assert cli.main(["ingest", str(triples), str(corpus)]) == 0
        for kind in TRAINERS:
            args = ["--model", kind, "--topics", "2", "--interests", "2",
                    "--seed", "11", "--max-iters", "25", "--workers"]
            first = tmp_path / f"first.{kind}"
            second = tmp_path / f"second.{kind}"
            pooled = tmp_path / f"pooled.{kind}"
            assert cli.main(["train", str(corpus), str(first)] + args + ["1"]) == 0
            assert cli.main(["train", str(corpus), str(second)] + args + ["1"]) == 0
            assert cli.main(["train", str(corpus), str(pooled)] + args + ["2"]) == 0
            assert first.read_bytes() == second.read_bytes() == pooled.read_bytes()
