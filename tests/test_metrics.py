import io

import pytest

from tagtopics.errors import DataError
from tagtopics.metrics import LabelSet, count_relevant_topk, effort_to_n
from tagtopics.similarity import RankedList


def ranking_of(names):
    return RankedList(seed="seed", entries=[(name, i * 0.01) for i, name in enumerate(names)])


def labeled(mapping):
    return LabelSet(dict(mapping))


class TestLabelSet:
    def test_defaults_to_unrelated(self):
        labels = labeled({"a": "same"})
        assert labels.label_of("a") == "same"
        assert labels.label_of("zzz") == "unrelated"
        assert labels.is_positive("a") and not labels.is_positive("zzz")

    def test_invalid_label_rejected(self):
        with pytest.raises(DataError, match="invalid label"):
            labeled({"a": "similar"})

    def test_from_tsv(self):
        stream = io.StringIO("# comment\na\tsame\nb\tlink-to\n\nc\tunrelated\n")
        labels = LabelSet.from_tsv(stream)
        assert labels.labels == {"a": "same", "b": "link-to", "c": "unrelated"}

    def test_from_tsv_errors(self):
        with pytest.raises(DataError, match="line 1"):
            LabelSet.from_tsv(io.StringIO("a same no tab\n"))
        with pytest.raises(DataError, match="conflicting"):
            LabelSet.from_tsv(io.StringIO("a\tsame\na\tunrelated\n"))


class TestCountRelevantTopk:
    def test_empty_labels(self):
        assert count_relevant_topk(ranking_of("abc"), labeled({}), 3) == (0, 0)

    def test_definitional_example(self):
        ranked = ranking_of(["a", "b", "c"])
        labels = labeled({"a": "same", "b": "unrelated", "c": "link-to"})
        assert count_relevant_topk(ranked, labels, 3) == (1, 1)

    def test_k_larger_than_ranking(self):
        ranked = ranking_of(["a", "b"])
        labels = labeled({"a": "same", "b": "link-to"})
        assert count_relevant_topk(ranked, labels, 100) == (1, 1)

    def test_matches_bruteforce_scan(self):
        names = [f"r{i}" for i in range(200)]
        labels = labeled({name: "same" for name in names if int(name[1:]) % 7 == 0}
                         | {name: "link-to" for name in names if int(name[1:]) % 11 == 3})
        ranked = ranking_of(names)
        k = 100
        expected_same = sum(1 for name in names[:k] if labels.label_of(name) == "same")
        expected_link = sum(1 for name in names[:k] if labels.label_of(name) == "link-to")
        assert count_relevant_topk(ranked, labels, k) == (expected_same, expected_link)

    def test_monotone_in_k(self):
        names = [f"r{i}" for i in range(30)]
        labels = labeled({name: "same" for name in names if int(name[1:]) % 3 == 0})
        ranked = ranking_of(names)
        totals = [sum(count_relevant_topk(ranked, labels, k)) for k in range(1, 31)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            count_relevant_topk(ranking_of("ab"), labeled({}), 0)


class TestEffortToN:
    def test_dense_positives(self):
        names = [f"r{i}" for i in range(20)]
        labels = labeled({name: "same" for name in names[:10]})
        assert effort_to_n(ranking_of(names), labels, 10) == 10

    def test_positives_at_even_ranks(self):
        names = [f"r{i}" for i in range(25)]
        labels = labeled({names[i]: "link-to" for i in range(1, 20, 2)})  # ranks 2,4,...,20
        assert effort_to_n(ranking_of(names), labels, 10) == 20

    def test_not_reached(self):
        names = ["a", "b", "c"]
        labels = labeled({"a": "same"})
        assert effort_to_n(ranking_of(names), labels, 2) is None

    def test_monotone_in_n(self):
        names = [f"r{i}" for i in range(40)]
        labels = labeled({names[i]: "same" for i in range(0, 40, 3)})
        efforts = [effort_to_n(ranking_of(names), labels, n) for n in range(1, 10)]
        assert all(b >= a for a, b in zip(efforts, efforts[1:]))

    def test_consistency_with_topk(self):
        names = [f"r{i}" for i in range(30)]
        labels = labeled({names[i]: ("same" if i % 2 else "link-to")
                          for i in range(0, 30, 5)})
        ranked = ranking_of(names)
        n = 4
        effort = effort_to_n(ranked, labels, n)
        assert effort is not None
        assert sum(count_relevant_topk(ranked, labels, effort)) == n

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            effort_to_n(ranking_of("ab"), labeled({}), 0)
