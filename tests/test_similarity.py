import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

import oracles
from tagtopics import similarity
from tagtopics.errors import DataError
from tagtopics.similarity import (LN2, RankedList, TopicDistribution,
                                  js_divergence, rank_by_seed, rank_rows,
                                  read_ranking, write_ranking)


def random_distribution(rng, size):
    raw = rng.random(size) + 1e-12
    return raw / raw.sum()


class TestTopicDistribution:
    def test_valid_vector_accepted(self):
        dist = TopicDistribution(np.array([0.25, 0.75]))
        assert len(dist) == 2

    @pytest.mark.parametrize("probs", [
        [0.5, 0.6],
        [1.2, -0.2],
        [],
        [np.nan, 1.0],
    ])
    def test_invalid_vectors_rejected(self, probs):
        with pytest.raises(ValueError):
            TopicDistribution(np.array(probs, dtype=float))


class TestJsDivergence:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_distribution(rng, 5)
            assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_hit_ln2(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_half_half_against_point_mass(self):
        value = js_divergence([0.5, 0.5], [1.0, 0.0])
        assert value == pytest.approx(0.2157616, abs=1e-6)
        # independent derivation: m = (.75, .25)
        expected = 0.5 * (0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)) \
            + 0.5 * (1.0 * math.log(1.0 / 0.75))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_symmetry_over_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            assert abs(js_divergence(p, q) - js_divergence(q, p)) < 1e-15

    def test_matches_loop_oracle_and_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_distribution(rng, 6)
            q = random_distribution(rng, 6)
            value = js_divergence(p, q)
            assert value == pytest.approx(oracles.js_divergence(p, q), abs=1e-12)
            assert value == pytest.approx(jensenshannon(p, q) ** 2, abs=1e-10)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=6),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=6))
    def test_bounds(self, raw_p, raw_q):
        size = min(len(raw_p), len(raw_q))
        p = np.array(raw_p[:size]) + 1e-9
        q = np.array(raw_q[:size]) + 1e-9
        value = js_divergence(p / p.sum(), q / q.sum())
        assert 0.0 <= value <= LN2 + 1e-12

    def test_least_subnormal_against_zero(self):
        # m = (p + q) / 2 underflows to 0 here, which made KL(p || m) infinite.
        p, q = np.array([5e-324, 1.0]), np.array([0.0, 1.0])
        values = [js_divergence(p, q), js_divergence(q, p)]
        for seed_row in (0, 1):
            values += [div for _, div in rank_rows(np.array([p, q]), seed_row).entries]
        assert all(math.isfinite(v) and 0.0 <= v <= LN2 for v in values), values

    def test_accepts_topic_distribution_wrappers(self):
        p = TopicDistribution(np.array([0.5, 0.5]))
        q = TopicDistribution(np.array([1.0, 0.0]))
        assert js_divergence(p, q) == js_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            js_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


class TestRankBySeed:
    def test_duplicate_of_seed_ranks_first(self):
        d = TopicDistribution(np.array([0.3, 0.7]))
        ranked = rank_by_seed({"seed": d, "a": d}, "seed")
        assert ranked.entries == [("a", 0.0)]

    def test_identical_then_orthogonal(self):
        dists = {
            0: TopicDistribution(np.array([1.0, 0.0])),
            1: TopicDistribution(np.array([1.0, 0.0])),
            2: TopicDistribution(np.array([0.0, 1.0])),
        }
        ranked = rank_by_seed(dists, 0)
        assert [rid for rid, _ in ranked.entries] == [1, 2]
        assert ranked.entries[0][1] == pytest.approx(0.0, abs=1e-15)
        assert ranked.entries[1][1] == pytest.approx(LN2, abs=1e-12)

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(23)
        dists = {i: TopicDistribution(random_distribution(rng, 4)) for i in range(6)}
        ranked = rank_by_seed(dists, 0)
        expected = sorted(
            ((oracles.js_divergence(dists[i].probs, dists[0].probs), i)
             for i in range(1, 6)))
        assert [rid for rid, _ in ranked.entries] == [i for _, i in expected]
        for (rid, div), (want_div, _) in zip(ranked.entries, expected):
            assert div == pytest.approx(want_div, abs=1e-12)

    def test_ties_break_by_ascending_id(self):
        d = TopicDistribution(np.array([0.5, 0.5]))
        ranked = rank_by_seed({5: d, 3: d, 9: d, 1: d}, 5)
        assert [rid for rid, _ in ranked.entries] == [1, 3, 9]

    def test_order_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(29)
        dists = {i: random_distribution(rng, 5) for i in range(8)}
        seed_dist = dists[0]
        divs = {i: js_divergence(dists[i], seed_dist) for i in range(1, 8)}
        by_div = sorted(divs, key=lambda i: (divs[i], i))
        by_squared = sorted(divs, key=lambda i: (divs[i] ** 2, i))
        assert by_div == by_squared
        ranked = rank_by_seed({i: TopicDistribution(d / d.sum()) for i, d in dists.items()}, 0)
        assert [rid for rid, _ in ranked.entries] == by_div

    def test_missing_seed_rejected(self):
        d = TopicDistribution(np.array([1.0]))
        with pytest.raises(DataError, match="seed"):
            rank_by_seed({1: d}, 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_scalar_oracle_bit_for_bit(self, data):
        """Rows with zeros, duplicate rows (exact ties), ids unsorted ints or
        strings, values wrapped or plain arrays, sizes on both sides of the
        8-wide unrolled pairwise sum."""
        k = data.draw(st.sampled_from([1, 2, 3, 7, 8, 9, 17, 40]), label="topics")
        n = data.draw(st.integers(1, 12), label="resources")
        entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))
        rows = []
        for _ in range(n):
            if rows and data.draw(st.booleans(), label="duplicate"):
                rows.append(rows[data.draw(st.integers(0, len(rows) - 1))])
                continue
            raw = np.array(data.draw(st.lists(entry, min_size=k, max_size=k)))
            if raw.sum() == 0.0:
                raw[data.draw(st.integers(0, k - 1))] = 1.0
            rows.append(raw / raw.sum())
        ids = data.draw(st.one_of(
            st.lists(st.integers(-50, 10**6), min_size=n, max_size=n, unique=True),
            st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True)), label="ids")
        wrap = TopicDistribution if data.draw(st.booleans(), label="wrapped") else np.asarray
        dists = {rid: wrap(row) for rid, row in zip(ids, rows)}
        seed = data.draw(st.sampled_from(ids), label="seed")
        got = rank_by_seed(dists, seed).entries
        assert all(type(div) is float for _, div in got)
        want = oracles.rank_by_seed(dists, seed)
        assert [(rid, div.hex()) for rid, div in got] == [(rid, div.hex()) for rid, div in want]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_subnormal_entries_stay_finite(self, data):
        """Rows whose zeros are partly replaced by subnormal values (5e-324
        among them): every divergence is finite, in [0, ln 2] up to rounding,
        the scalar divergence's bits, and within 1e-12 of the exact-midpoint
        oracle."""
        k = data.draw(st.sampled_from([1, 2, 3, 8, 9, 40]), label="topics")
        n = data.draw(st.integers(2, 8), label="resources")
        entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=True))
        tiny = st.one_of(st.just(5e-324), st.floats(0.0, 2.2250738585072014e-308,
                                                    allow_subnormal=True))
        rows = []
        for _ in range(n):
            raw = np.array(data.draw(st.lists(entry, min_size=k, max_size=k)))
            if raw.sum() == 0.0:
                raw[data.draw(st.integers(0, k - 1))] = 1.0
            row = raw / raw.sum()
            for j in np.flatnonzero(row == 0.0):
                if data.draw(st.booleans(), label="subnormal"):
                    row[j] = data.draw(tiny)
            rows.append(row)
        dists = dict(enumerate(rows))
        seed = data.draw(st.integers(0, n - 1), label="seed")
        got = rank_by_seed(dists, seed).entries
        assert all(math.isfinite(div) and 0.0 <= div <= LN2 + 1e-12 for _, div in got)
        want = oracles.rank_by_seed(dists, seed)
        assert [(rid, div.hex()) for rid, div in got] == [(rid, div.hex()) for rid, div in want]
        for rid, div in got:
            assert div == pytest.approx(oracles.js_divergence(rows[rid], rows[seed]), abs=1e-12)

    def test_builds_one_ranked_list(self, monkeypatch):
        built = []
        check = RankedList.__post_init__
        monkeypatch.setattr(RankedList, "__post_init__", lambda self: built.append(check(self)))
        d = np.array([0.3, 0.7])
        rank_by_seed({2: d, 1: np.array([1.0, 0.0]), 0: d}, 2)
        assert len(built) == 1

    def test_rounding_below_zero_is_clamped(self):
        # Rows one ulp apart: unclamped, their divergence rounds to -5.7e-17.
        p = [0.6652300066862088, 0.021254131078561812, 0.31351586223522954]
        q = [0.6652300066862089, 0.02125413107856181, 0.31351586223522954]
        dists = {0: np.array(p), 1: np.array(q), 2: np.array([0.2, 0.3, 0.5])}
        assert rank_by_seed(dists, 0).entries[0] == (1, 0.0)
        assert rank_by_seed(dists, 1).entries == oracles.rank_by_seed(dists, 1)

    def test_unequal_lengths_rejected(self):
        dists = {0: TopicDistribution(np.array([0.5, 0.5])),
                 1: TopicDistribution(np.array([0.2, 0.3, 0.5]))}
        with pytest.raises(ValueError):
            rank_by_seed(dists, 0)
        with pytest.raises(ValueError):
            rank_by_seed(dists, 1)

    def test_never_calls_the_scalar_divergence(self, monkeypatch):
        def scalar(p, q):
            raise AssertionError("rank_by_seed called js_divergence")

        monkeypatch.setattr(similarity, "js_divergence", scalar)
        d = TopicDistribution(np.array([0.3, 0.7]))
        dists = {2: d, 1: TopicDistribution(np.array([1.0, 0.0])), 0: d}
        assert [rid for rid, _ in rank_by_seed(dists, 2).entries] == [0, 1]


class TestRankRows:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_scalar_oracle_bit_for_bit(self, data):
        """Rows of one matrix, with zeros and an exact tie, keyed by row."""
        k = data.draw(st.sampled_from([1, 3, 8, 9, 40]), label="topics")
        n = data.draw(st.integers(1, 12), label="resources")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="draw"))
        probs = rng.dirichlet(np.ones(k), size=n)
        probs[rng.random(probs.shape) < 0.25] = 0.0
        probs[:, 0] += probs.sum(axis=1) == 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        probs[n // 2] = probs[-1]
        seed = data.draw(st.integers(0, n - 1), label="seed")
        ranked = rank_rows(probs, seed)
        assert ranked.seed == seed
        want = oracles.rank_by_seed(dict(enumerate(probs)), seed)
        assert [(row, div.hex()) for row, div in ranked.entries] == \
            [(row, div.hex()) for row, div in want]

    def test_rank_by_seed_ranks_the_stack_in_id_order(self):
        rows = {9: [0.2, 0.8], -1: [0.5, 0.5], 4: [0.9, 0.1]}
        by_row = rank_rows(np.array([rows[-1], rows[4], rows[9]]), 2)
        assert rank_by_seed({rid: np.array(row) for rid, row in rows.items()}, 9).entries == \
            [([-1, 4, 9][row], div) for row, div in by_row.entries]


class TestRankedList:
    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            RankedList(seed=0, entries=[(1, 0.5), (2, 0.2)])
        with pytest.raises(DataError):
            RankedList(seed=0, entries=[(1, 0.1), (1, 0.2)])
        with pytest.raises(DataError):
            RankedList(seed=1, entries=[(1, 0.1)])

    @pytest.mark.parametrize("entries", [
        [("a", 0.5), ("b", float("nan")), ("c", 0.1)],  # every comparison with nan is false
        [("a", float("nan"))],
        [("a", 0.1), ("b", float("inf"))],
    ])
    def test_non_finite_divergences_rejected(self, entries):
        with pytest.raises(DataError, match="must be finite"):
            RankedList(seed="s", entries=entries)

    def test_top_slices(self):
        ranked = RankedList(seed=0, entries=[(1, 0.1), (2, 0.2), (3, 0.3)])
        assert ranked.top(2) == [(1, 0.1), (2, 0.2)]
        assert ranked.top(0) == []
        assert ranked.top(10) == ranked.entries


class TestRankingIo:
    def test_roundtrip(self):
        ranked = RankedList(seed="seed", entries=[("a", 0.0), ("b", 0.12345678901234567)])
        buffer = io.StringIO()
        write_ranking(ranked, buffer, meta={"model": "plsa", "K": 2, "base": "e",
                                            "seed": "seed"})
        buffer.seek(0)
        meta, again = read_ranking(buffer)
        assert meta["model"] == "plsa"
        assert meta["K"] == "2"
        assert again.seed == "seed"
        assert again.entries == ranked.entries

    def test_limit_writes_header_only_for_zero(self):
        ranked = RankedList(seed="s", entries=[("a", 0.5)])
        buffer = io.StringIO()
        write_ranking(ranked, buffer, limit=0, meta={"seed": "s"})
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1] == "rank\tresource\tdivergence"

    def test_malformed_file_rejected(self):
        with pytest.raises(DataError):
            read_ranking(io.StringIO("not a ranking\n"))
