import numpy as np
import pytest
from hypothesis import settings

from helpers import make_corpus
from tagtopics.itm import ItmModel
from tagtopics.mwa import MwaModel
from tagtopics.plsa import PlsaModel

# Every property test draws the same examples on every run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def tiny_corpus():
    # 2 resources, 2 users, 2 tags, N=3
    return make_corpus(["a\tu1\tx", "a\tu2\tx", "b\tu1\ty"])


@pytest.fixture
def toy_corpus():
    return make_corpus([
        "r0\tu0\tt0\t2",
        "r0\tu1\tt1",
        "r1\tu0\tt1\t3",
        "r1\tu1\tt2",
        "r2\tu0\tt0",
        "r2\tu1\tt2\t2",
        "r2\tu0\tt1",
    ])


@pytest.fixture
def four_resource_corpus():
    return make_corpus([
        "r0\tu0\tt0\t3",
        "r0\tu1\tt1",
        "r1\tu0\tt1\t2",
        "r1\tu2\tt2",
        "r2\tu1\tt0",
        "r2\tu2\tt2\t2",
        "r3\tu0\tt3\t2",
        "r3\tu1\tt2",
    ])


@pytest.fixture
def disjoint_corpus():
    # two resources with disjoint tag vocabularies
    return make_corpus([
        "a\tu0\tx0\t2",
        "a\tu1\tx1",
        "b\tu0\ty0\t3",
        "b\tu1\ty1\t2",
    ])


@pytest.fixture
def clique_corpus():
    # two full cross-product blocks with disjoint supports
    lines = []
    for r in ("a0", "a1"):
        for u in ("ua0", "ua1"):
            for t in ("ta0", "ta1"):
                lines.append(f"{r}\t{u}\t{t}")
    for u in ("ub0", "ub1"):
        for t in ("tb0", "tb1", "tb2"):
            lines.append(f"b0\t{u}\t{t}")
    return make_corpus(lines)


@pytest.fixture
def hand_plsa_model():
    # 2 resources x 3 tags, 2 topics
    return PlsaModel(
        tag_given_topic=np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]),
        topic_given_resource=np.array([[0.8, 0.2], [0.3, 0.7]]),
        resource_probs=np.array([0.4, 0.6]),
    )


@pytest.fixture
def hand_mwa_model():
    # 2 resources x 2 users x 3 tags, 2 aspects
    return MwaModel(
        topic_probs=np.array([0.45, 0.55]),
        resource_given_topic=np.array([[0.7, 0.3], [0.2, 0.8]]),
        user_given_topic=np.array([[0.5, 0.5], [0.9, 0.1]]),
        tag_given_topic=np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]),
    )


@pytest.fixture
def hand_itm_model():
    # 2 resources x 2 users x 3 tags, 2 interests x 2 topics; the tag-0
    # column reproduces the documented posterior example.
    return ItmModel(
        tag_given_interest_topic=np.array([
            [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]],
            [[0.3, 0.4, 0.3], [0.7, 0.1, 0.2]],
        ]),
        interest_given_user=np.array([[0.6, 0.4], [0.3, 0.7]]),
        topic_given_resource=np.array([[0.9, 0.1], [0.25, 0.75]]),
        user_probs=np.array([0.5, 0.5]),
        resource_probs=np.array([0.5, 0.5]),
    )
