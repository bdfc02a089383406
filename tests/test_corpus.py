import io
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MALFORMED, RESERVED, make_corpus, named_triples, rt_counts
from tagtopics import corpus as corpus_module
from tagtopics.corpus import (Corpus, Vocab, filter_tags, ingest_triples, merge_rows,
                              write_corpus_tsv)
from tagtopics.errors import ConfigError, DataError


class TestVocab:
    def test_ids_are_dense_and_stable(self):
        vocab = Vocab(["b", "a", "c"])
        assert [vocab.id_of(e) for e in vocab.entries] == [0, 1, 2]
        assert vocab.name_of(1) == "a"
        assert len(vocab) == 3

    def test_duplicates_merge(self):
        vocab = Vocab(["x", "x"])
        vocab.extend(["y", "x", "y"])
        assert vocab.entries == ["x", "y"]
        assert [vocab.id_of("x"), vocab.id_of("y")] == [0, 1]

    def test_unknown_lookups_raise(self):
        vocab = Vocab(["x"])
        with pytest.raises(DataError):
            vocab.id_of("y")
        with pytest.raises(DataError):
            vocab.name_of(5)

    @pytest.mark.parametrize("ident, message", [
        (True, "vocabulary id must be an integer, got True"),
        (1.0, "vocabulary id must be an integer, got 1.0"),
        (-1, "unknown vocabulary id -1; expected 0 to 1"),
        (2, "unknown vocabulary id 2; expected 0 to 1"),
    ])
    def test_an_id_not_of_the_vocabulary_rejected(self, ident, message):
        vocab = Vocab(["a", "b"])
        with pytest.raises(DataError) as info:
            vocab.name_of(ident)
        assert str(info.value) == message

    def test_a_numpy_integer_id_names_as_an_int(self):
        vocab = Vocab(["a", "b"])
        assert [vocab.name_of(np.int64(1)), vocab.name_of(np.uint8(0))] == ["b", "a"]


class TestIngest:
    def test_duplicate_lines_merge(self):
        corpus = make_corpus(["a\tu1\tx", "a\tu1\tx"])
        assert [corpus.r_ids.tolist(), corpus.u_ids.tolist(), corpus.t_ids.tolist(),
                corpus.counts.tolist()] == [[0], [0], [0], [2]]
        assert corpus.total == 2

    def test_marginals(self, tiny_corpus):
        a, x = tiny_corpus.resources.id_of("a"), tiny_corpus.tags.id_of("x")
        u1 = tiny_corpus.users.id_of("u1")
        assert rt_counts(tiny_corpus)[(a, x)] == 2
        assert tiny_corpus.n_r[a] == 2
        assert tiny_corpus.n_u[u1] == 2
        assert tiny_corpus.total == 3

    def test_counts_parsed_and_defaulted(self):
        corpus = make_corpus(["a\tu\tx\t5", "b\tu\ty"])
        assert named_triples(corpus) == {("a", "u", "x"): 5, ("b", "u", "y"): 1}

    def test_comments_and_blanks_skipped(self):
        corpus = make_corpus(["# header", "", "a\tu\tx", "   ", "# trailing"])
        assert corpus.total == 1

    @pytest.mark.parametrize("line, fragment", MALFORMED)
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(DataError, match=fragment):
            ingest_triples([line])

    @pytest.mark.parametrize("line", RESERVED)
    def test_reserved_characters_rejected(self, line):
        with pytest.raises(DataError, match="reserved characters"):
            ingest_triples([line])

    def test_error_names_offending_line(self):
        with pytest.raises(DataError, match="line 3"):
            ingest_triples(["a\tu\tx", "b\tu\ty", "broken"])

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty corpus"):
            ingest_triples([])
        with pytest.raises(DataError, match="empty corpus"):
            ingest_triples(["# only a comment"])

    def test_line_order_does_not_change_counts(self):
        lines = ["a\tu1\tx", "b\tu2\ty\t3", "a\tu1\tx\t2", "c\tu1\tx"]
        shuffled = list(lines)
        random.Random(0).shuffle(shuffled)
        assert named_triples(make_corpus(lines)) == named_triples(make_corpus(shuffled))


entry_strategy = st.tuples(
    st.sampled_from("abcd"),
    st.sampled_from(["u1", "u2", "u3"]),
    st.sampled_from("xyz"),
    st.integers(min_value=1, max_value=4),
)


class TestCorpusProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(entry_strategy, min_size=1, max_size=25))
    def test_marginal_consistency(self, entries):
        corpus = make_corpus([f"{r}\t{u}\t{t}\t{n}" for r, u, t, n in entries])
        expected = Counter()
        for r, u, t, n in entries:
            expected[(r, u, t)] += n
        assert named_triples(corpus) == dict(expected)

        rt = rt_counts(corpus)
        for r in range(len(corpus.resources)):
            assert sum(n for (ri, _), n in rt.items() if ri == r) == corpus.n_r[r]
        assert sum(rt.values()) == corpus.total
        assert corpus.n_r.sum() == corpus.n_u.sum() == corpus.n_t.sum() == corpus.total

    @pytest.mark.parametrize("block_lines", [1, 7, corpus_module.BLOCK_LINES])
    def test_write_in_blocks_is_one_line_per_triple(self, block_lines, monkeypatch):
        corpus = make_corpus([f"r{i % 97}\tu{i % 31}\tt{i % 53}\t{i % 5 + 1}"
                              for i in range(2 * corpus_module.BLOCK_LINES + 5)])
        want = "# resource\tuser\ttag\tcount\n" + "".join(
            f"{corpus.resources.entries[int(r)]}\t{corpus.users.entries[int(u)]}"
            f"\t{corpus.tags.entries[int(t)]}\t{int(n)}\n"
            for r, u, t, n in zip(corpus.r_ids, corpus.u_ids, corpus.t_ids, corpus.counts))
        monkeypatch.setattr(corpus_module, "BLOCK_LINES", block_lines)
        buffer = io.StringIO()
        write_corpus_tsv(corpus, buffer)
        assert buffer.getvalue() == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(entry_strategy, min_size=1, max_size=25))
    def test_ingest_roundtrip_reproduces_counts(self, entries):
        # ids may be re-assigned on re-ingestion (first appearance follows the
        # sorted dump), but the named counts and all statistics are identical
        corpus = make_corpus([f"{r}\t{u}\t{t}\t{n}" for r, u, t, n in entries])
        buffer = io.StringIO()
        write_corpus_tsv(corpus, buffer)
        again = ingest_triples(io.StringIO(buffer.getvalue()))
        assert named_triples(again) == named_triples(corpus)
        assert again.stats() == corpus.stats()
        assert set(again.resources.entries) == set(corpus.resources.entries)
        assert set(again.users.entries) == set(corpus.users.entries)
        assert set(again.tags.entries) == set(corpus.tags.entries)
        assert again.resources.entries[0] == corpus.resources.entries[0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(entry_strategy, min_size=1, max_size=25),
           st.integers(1, 6), st.integers(0, 6), st.integers(0, 5))
    def test_filter_widening_is_monotone(self, entries, lo, span, widen):
        corpus = make_corpus([f"{r}\t{u}\t{t}\t{n}" for r, u, t, n in entries])
        try:
            inner = filter_tags(corpus, lo, lo + span)
        except DataError:
            return  # inner window empty; nothing to compare
        outer = filter_tags(corpus, max(1, lo - widen), lo + span + widen)
        inner_triples = named_triples(inner)
        outer_triples = named_triples(outer)
        assert all(outer_triples.get(key) == n for key, n in inner_triples.items())


class TestFilterTags:
    def test_identity_when_window_covers_everything(self):
        corpus = make_corpus(["a\tu\tx", "b\tu\ty", "c\tv\tz"])
        filtered = filter_tags(corpus, min_freq=1, max_freq=None)
        assert named_triples(filtered) == named_triples(corpus)
        assert filtered.tags.entries == corpus.tags.entries

    def test_frequency_window(self):
        # tag frequencies: p -> 1, q -> 5, s -> 12
        corpus = make_corpus(["a\tu\tp", "a\tu\tq\t5", "b\tu\ts\t12"])
        filtered = filter_tags(corpus, min_freq=2, max_freq=10)
        assert named_triples(filtered) == {("a", "u", "q"): 5}
        assert filtered.resources.entries == ["a"]
        assert filtered.users.entries == ["u"]
        assert filtered.tags.entries == ["q"]

    def test_recount_against_bruteforce(self):
        lines = ["a\tu\tx\t3", "a\tv\ty", "b\tu\ty\t2", "b\tv\tz\t7", "c\tu\tx"]
        corpus = make_corpus(lines)
        freq = Counter()
        for line in lines:
            fields = line.split("\t")
            freq[fields[2]] += int(fields[3]) if len(fields) == 4 else 1
        keep = {t for t, n in freq.items() if 2 <= n <= 4}
        expected = {}
        for line in lines:
            fields = line.split("\t")
            if fields[2] in keep:
                key = (fields[0], fields[1], fields[2])
                expected[key] = expected.get(key, 0) + (int(fields[3]) if len(fields) == 4 else 1)
        assert named_triples(filter_tags(corpus, 2, 4)) == expected

    def test_all_filtered_raises(self, tiny_corpus):
        with pytest.raises(DataError, match="all triples filtered"):
            filter_tags(tiny_corpus, min_freq=100, max_freq=200)

    def test_bad_window_raises(self, tiny_corpus):
        with pytest.raises(ConfigError):
            filter_tags(tiny_corpus, min_freq=0)
        with pytest.raises(ConfigError):
            filter_tags(tiny_corpus, min_freq=5, max_freq=2)


class TestAggregateRt:
    def test_single_triple(self):
        corpus = make_corpus(["a\tu1\tx\t3"])
        assert rt_counts(corpus) == {(0, 0): 3}

    def test_sums_over_users(self):
        corpus = make_corpus(["a\tu1\tx\t2", "a\tu2\tx\t5"])
        assert rt_counts(corpus) == {(0, 0): 7}

    def test_matches_nested_loop(self, four_resource_corpus):
        expected = {}
        corpus = four_resource_corpus
        for r, t, n in zip(corpus.r_ids.tolist(), corpus.t_ids.tolist(), corpus.counts.tolist()):
            expected[(r, t)] = expected.get((r, t), 0) + n
        assert rt_counts(four_resource_corpus) == expected
        assert all(n > 0 for n in four_resource_corpus.rt_arrays()[2])


class SizedVocab:
    """Stands in for a vocabulary of ``size`` entries without storing them."""

    def __init__(self, size):
        self.entries = range(size)

    def __len__(self):
        return len(self.entries)


class TestCorpusColumns:
    @pytest.mark.parametrize("r_ids, counts", [([0, 1.9], [1, 1]), ([0, 1], [2.7, 1.2])])
    def test_non_integer_column_rejected(self, r_ids, counts):
        vocab = Vocab(["a", "b"])
        with pytest.raises(DataError, match="must be integers"):
            Corpus(vocab, vocab, vocab, r_ids, [0, 1], [1, 0], counts)

    @pytest.mark.parametrize("columns, message", [
        (([0, 1], [0], [1, 0], [1, 1]), "^triple arrays have mismatched lengths$"),
        (([0, 1], [0, 1], [1, 0], [1, 0]), "^triple counts must be positive$"),
    ], ids=["mismatched-lengths", "count-below-1"])
    def test_bad_columns_rejected(self, columns, message):
        vocab = Vocab(["a", "b"])
        with pytest.raises(DataError, match=message):
            Corpus(vocab, vocab, vocab, *columns)

    def test_negative_id_is_out_of_range(self):
        vocab = Vocab(["a"])
        with pytest.raises(DataError, match="resource id out of vocabulary range"):
            Corpus(vocab, vocab, vocab, [-1], [0], [0], [1])

    def test_empty_columns_report_empty_corpus(self):
        vocab = Vocab(["a"])
        with pytest.raises(DataError, match="empty corpus"):
            Corpus(vocab, vocab, vocab, [], [], [], [])


class TestDuplicateKeys:
    def test_repeated_triple_rejected(self):
        vocab = Vocab(["a", "b"])
        with pytest.raises(DataError, match="duplicate"):
            Corpus(vocab, vocab, vocab, [0, 1, 0], [1, 0, 1], [0, 1, 0], [1, 1, 1])

    def test_triples_differing_in_one_column_accepted(self):
        vocab = Vocab(["a", "b"])
        corpus = Corpus(vocab, vocab, vocab, [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0],
                        [1, 2, 3, 4])
        assert corpus.num_triples == 4

    def test_no_false_duplicates_when_composite_key_overflows(self):
        # (r * |U| + u) * |T| + t exceeds int64 for r = 1.1M and |U| = |T| = 3M.
        # The corpus is still invalid (most ids have no triples), but it must
        # get past the duplicate check to say so.
        big = SizedVocab(3_000_000)
        with pytest.raises(DataError, match="resource vocabulary entries without triples"):
            Corpus(SizedVocab(1_100_001), big, big, [0, 1_100_000], [0, 0], [0, 0], [1, 1])


class TestRowOrder:
    # Strictly increasing (r, u, t) rows; every id 0/1 occurs in each column.
    ROWS = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]

    @staticmethod
    def build(rows, counts):
        vocab = Vocab(["a", "b"])
        r, u, t = zip(*rows)
        return Corpus(vocab, vocab, vocab, r, u, t, counts)

    def test_every_permutation_gives_the_sorted_corpus(self):
        counts = [1, 2, 3, 4]
        for perm in itertools.permutations(range(len(self.ROWS))):
            corpus = self.build([self.ROWS[i] for i in perm], [counts[i] for i in perm])
            assert list(zip(corpus.r_ids.tolist(), corpus.u_ids.tolist(),
                            corpus.t_ids.tolist())) == self.ROWS
            assert corpus.counts.tolist() == counts

    def test_sorted_rows_skip_the_sort(self, monkeypatch):
        def no_sort(keys):
            raise AssertionError("rows already in order were re-sorted")

        monkeypatch.setattr(np, "lexsort", no_sort)
        assert self.build(self.ROWS, [1, 2, 3, 4]).num_triples == 4

    def test_sorted_rows_with_a_repeat_rejected(self):
        rows = self.ROWS[:3] + [self.ROWS[2]] + self.ROWS[3:]
        with pytest.raises(DataError, match="duplicate"):
            self.build(rows, [1, 2, 3, 4, 5])


class TestMergeRows:
    def test_repeated_rows_summed_in_lexicographic_order(self):
        (r, u, t), counts = merge_rows(
            (np.array([1, 0, 1, 0, 1]), np.array([0, 2, 0, 2, 0]), np.array([3, 1, 3, 0, 3])),
            np.array([1, 2, 3, 4, 5]))
        assert [r.tolist(), u.tolist(), t.tolist()] == [[0, 0, 1], [2, 2, 0], [0, 1, 3]]
        assert counts.tolist() == [4, 2, 9]

    def test_rows_kept_apart_when_composite_key_overflows(self):
        # With |U| = |T| = 3M, (r * |U| + u) * |T| + t wraps in int64 for
        # r = 1.1M, and (3149638, 691236, 1551616) wraps onto the same key
        # as (1100000, 0, 0).
        rows = np.array([[1_100_000, 0, 0], [3_149_638, 691_236, 1_551_616],
                         [0, 2_999_999, 2_999_999], [1_100_000, 0, 0]])
        (r, u, t), counts = merge_rows(rows.T, np.array([1, 2, 4, 8]))
        assert np.column_stack((r, u, t)).tolist() == [
            [0, 2_999_999, 2_999_999], [1_100_000, 0, 0], [3_149_638, 691_236, 1_551_616]]
        assert counts.tolist() == [4, 9, 2]


class TestCountOverflow:
    BIG = 2**62

    def test_merged_count_above_int64_rejected(self):
        with pytest.raises(DataError, match=r"merged count of id row \(0, 0, 0\) overflows int64"):
            ingest_triples(["a\tu\tx\t9223372036854775807"] * 3)
        with pytest.raises(DataError, match="overflows int64"):
            merge_rows((np.zeros(2, dtype=np.int64),), np.array([self.BIG, self.BIG]))

    def test_merged_count_of_int64_max_is_exact(self):
        _, counts = merge_rows((np.array([1, 0, 1]),), np.array([self.BIG, 5, self.BIG - 1]))
        assert counts.tolist() == [5, 2**63 - 1]

    @pytest.mark.parametrize("users, tags, what", [
        ([0, 0], [0, 0], "the count of user 'u0'"),
        ([0, 1], [0, 0], "the count of tag 't0'"),
        ([0, 1], [0, 1], "the total count"),
    ])
    def test_marginal_above_int64_rejected(self, users, tags, what):
        with pytest.raises(DataError, match=f"^{what} overflows int64: it exceeds 2\\*\\*63 - 1$"):
            Corpus(Vocab(["r0", "r1"]), Vocab(["u0", "u1"][:max(users) + 1]),
                   Vocab(["t0", "t1"][:max(tags) + 1]), [0, 1], users, tags, [self.BIG, self.BIG])

    def test_ingest_of_marginal_above_int64_rejected(self):
        with pytest.raises(DataError, match="the count of user 'u' overflows int64"):
            ingest_triples(["a\tu\tx\t4611686018427387904", "b\tu\tx\t4611686018427387904"])

    def test_marginals_up_to_int64_max_are_exact(self):
        counts = [self.BIG - 2**53 - 5, self.BIG, 2**53 + 1, 3]  # total 2**63 - 1
        r, u, t = [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]
        corpus = Corpus(Vocab(["r0", "r1"]), Vocab(["u0", "u1"]), Vocab(["t0", "t1"]),
                        r, u, t, counts)
        for ids, marginal in ((r, corpus.n_r), (u, corpus.n_u), (t, corpus.n_t)):
            assert marginal.tolist() == [sum(n for i, n in zip(ids, counts) if i == k)
                                         for k in (0, 1)]
        assert corpus.total == sum(counts) == 2**63 - 1

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_sums_beside_the_exact_float_sum_are_exact(self, offset):
        """Totals just below, at and just above 2**53, where the sums go from
        one int64 pass to the split one."""
        rows = [(0, 0, 0), (1, 1, 1), (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        counts = [2**52, 2**51 - 3 + offset, 2**51, 1, 1, 1]
        assert sum(counts) == corpus_module.EXACT_FLOAT_SUM + offset
        float_total = np.array(counts).sum(dtype=float)
        assert (float_total < corpus_module.EXACT_FLOAT_SUM) == (offset < 0)
        (r, u, t), merged = merge_rows(np.array(rows).T, np.array(counts))
        assert merged.dtype == np.int64
        assert merged.tolist() == [3 * 2**51, 1, 1, 1, 2**51 - 3 + offset]
        corpus = Corpus(*(Vocab(["0", "1"]) for _ in range(3)), r, u, t, merged)
        for axis, name in enumerate(("n_r", "n_u", "n_t")):
            marginal = getattr(corpus, name)
            assert marginal.dtype == np.int64
            assert marginal.tolist() == [sum(n for row, n in zip(rows, counts) if row[axis] == k)
                                         for k in (0, 1)]
        assert type(corpus.total) is int and corpus.total == sum(counts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_path_matches_float_path(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 6, size=(3, 200))
        counts = rng.integers(1, 2**40, 200)
        merged = merge_rows(rows, counts)
        corpus = Corpus(*(Vocab(map(str, range(6))) for _ in range(3)), *merged[0], merged[1])
        monkeypatch.setattr(corpus_module, "EXACT_FLOAT_SUM", 0)
        exact = merge_rows(rows, counts)
        assert [col.tolist() for col in exact[0]] == [col.tolist() for col in merged[0]]
        assert exact[1].tolist() == merged[1].tolist()
        again = Corpus(*(Vocab(map(str, range(6))) for _ in range(3)), *exact[0], exact[1])
        for name in ("n_r", "n_u", "n_t"):
            assert getattr(again, name).dtype == np.int64
            assert getattr(again, name).tolist() == getattr(corpus, name).tolist()
        assert again.total == corpus.total == int(counts.sum())
