import io
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

import oracles
from helpers import ROW_SUM_EDGES
from tagtopics import similarity
from tagtopics.errors import DataError
from tagtopics.similarity import (LN2, RankedList, TopicDistribution,
                                  js_divergence, rank_by_seed, rank_rows,
                                  read_ranking, write_ranking)


def random_distribution(rng, size):
    raw = rng.random(size) + 1e-12
    return raw / raw.sum()


class TestTopicDistribution:
    @pytest.mark.parametrize("probs", [
        [0.25, 0.75],
        *([0.5, total - 0.5] for total, ok in ROW_SUM_EDGES if ok),
    ])
    def test_valid_vector_accepted(self, probs):
        dist = TopicDistribution(np.array(probs))
        assert len(dist) == 2

    @pytest.mark.parametrize("probs", [
        [0.5, 0.6],
        [1.2, -0.2],
        [],
        [np.nan, 1.0],
        *([0.5, total - 0.5] for total, ok in ROW_SUM_EDGES if not ok),
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

    @settings(max_examples=100, deadline=None)
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

    def test_one_ulp_above_ln2_is_clamped(self):
        # Disjoint supports: unclamped, both forms round to 0.6931471805599454.
        p = np.array([0.0, 0.795261339348748, 0.25])
        p /= p.sum()
        q = np.array([1.0, 0.0, 0.0])
        assert js_divergence(p, q) == js_divergence(q, p) == LN2
        for seed_row in (0, 1):
            assert rank_rows(np.array([p, q]), seed_row).entries == [(1 - seed_row, LN2)]

    def test_accepts_topic_distribution_wrappers(self):
        p = TopicDistribution(np.array([0.5, 0.5]))
        q = TopicDistribution(np.array([1.0, 0.0]))
        assert js_divergence(p, q) == js_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            js_divergence([0.5, 0.5], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p, q", [
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]),  # would flatten to ln 2
        ([], []),
        (0.5, 0.5),
    ], ids=["2-D", "empty", "scalar"])
    def test_a_raw_array_not_a_vector_rejected(self, p, q):
        with pytest.raises(ValueError, match=r"^probs must be a non-empty 1-D vector$"):
            js_divergence(p, q)


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

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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
        with pytest.raises(ValueError, match=r"^length mismatch: 1 has shape \(3,\), "
                                             r"the seed 0 has \(2,\)$"):
            rank_by_seed(dists, 0)
        with pytest.raises(ValueError, match=r"^length mismatch: 0 has shape \(2,\), "
                                             r"the seed 1 has \(3,\)$"):
            rank_by_seed(dists, 1)

    def test_never_calls_the_scalar_divergence(self, monkeypatch):
        def scalar(p, q):
            raise AssertionError("rank_by_seed called js_divergence")

        monkeypatch.setattr(similarity, "js_divergence", scalar)
        d = TopicDistribution(np.array([0.3, 0.7]))
        dists = {2: d, 1: TopicDistribution(np.array([1.0, 0.0])), 0: d}
        assert [rid for rid, _ in rank_by_seed(dists, 2).entries] == [0, 1]


class TestRankRows:
    @settings(max_examples=100, deadline=None)
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

    @pytest.mark.parametrize("seed_row, message", [
        (-1, "unknown seed row -1; expected 0 to 2"),
        (3, "unknown seed row 3; expected 0 to 2"),
        (1.5, "seed row must be an integer, got 1.5"),
        (True, "seed row must be an integer, got True"),
    ])
    def test_a_seed_row_not_of_the_matrix_rejected(self, seed_row, message):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(DataError) as info:
            rank_rows(probs, seed_row)
        assert str(info.value) == message

    @pytest.mark.parametrize("probs", [np.ones((3, 0)), np.ones(3), np.ones((2, 2, 2)),
                                       np.float64(1.0)], ids=["no-topics", "1-D", "3-D", "0-D"])
    def test_a_matrix_not_of_r_rows_and_k_topics_rejected(self, probs):
        with pytest.raises(ValueError) as info:
            rank_rows(probs, 0)
        assert str(info.value) == ("probs must be an [R, K] matrix with K >= 1, "
                                   f"got shape {np.shape(probs)}")

    def test_a_numpy_integer_seed_row_ranks_as_an_int(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        ranked = rank_rows(probs, np.int64(2))
        assert ranked.seed == 2
        assert ranked.entries == rank_rows(probs, 2).entries

    def test_rank_by_seed_ranks_the_stack_in_id_order(self):
        rows = {9: [0.2, 0.8], -1: [0.5, 0.5], 4: [0.9, 0.1]}
        by_row = rank_rows(np.array([rows[-1], rows[4], rows[9]]), 2)
        assert rank_by_seed({rid: np.array(row) for rid, row in rows.items()}, 9).entries == \
            [([-1, 4, 9][row], div) for row, div in by_row.entries]


def planted_rows(n_rows=2500, n_topics=40, seed=2500):
    """p(z|r) rows of rank size: a dominant topic of mass 0.85 per row and
    the rest spread by a sparse Dirichlet draw, with exact zeros."""
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.full(n_topics, 0.2), size=n_rows)
    rest[rng.random(rest.shape) < 0.1] = 0.0
    rest[:, 0] += rest.sum(axis=1) == 0.0
    rest /= rest.sum(axis=1, keepdims=True)
    probs = 0.15 * rest
    probs[np.arange(n_rows), rng.integers(0, n_topics, n_rows)] += 0.85
    return probs


def one_block(probs, seed_row):
    """``rank_rows`` with the rows in a single block, on the calling thread."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "MIN_BLOCK_ROWS", len(probs) + 1)
        return rank_rows(probs, seed_row)


def hex_entries(ranked):
    return [(row, div.hex()) for row, div in ranked.entries]


class TestSplitRanking:
    def test_planted_rank_size_model(self, monkeypatch):
        """Every 25th seed (all 2,500 take about 50 s): each
        ranking has the bits of the single-block run."""
        probs = planted_rows()
        monkeypatch.setattr(similarity, "_cores", lambda: 2)  # a split on any host
        assert len(probs) // similarity.MIN_BLOCK_ROWS >= 2
        for seed_row in range(0, len(probs), 25):
            assert hex_entries(rank_rows(probs, seed_row)) == hex_entries(one_block(probs, seed_row))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_split_has_the_bits_of_one_block(self, data):
        """One-row blocks allowed, as many blocks as drawn cores, rows with
        zeros, subnormal entries and exact ties."""
        k = data.draw(st.sampled_from([1, 3, 8, 9, 40]), label="topics")
        n = data.draw(st.integers(1, 40), label="resources")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="draw"))
        probs = rng.dirichlet(np.ones(k), size=n)
        probs[rng.random(probs.shape) < 0.25] = 0.0
        probs[:, 0] += probs.sum(axis=1) == 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        probs[rng.random(probs.shape) < 0.05] = 5e-324
        probs[n // 2] = probs[-1]
        seed = data.draw(st.integers(0, n - 1), label="seed")
        want = hex_entries(one_block(probs, seed))
        cores = data.draw(st.integers(1, 7), label="cores")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "MIN_BLOCK_ROWS", 1)
            patch.setattr(similarity, "_cores", lambda: cores)
            assert hex_entries(rank_rows(probs, seed)) == want

    def test_small_matrix_touches_no_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("rank_rows used the pool")

        monkeypatch.setattr(similarity, "_shared_pool", no_pool)
        probs = planted_rows(n_rows=2 * similarity.MIN_BLOCK_ROWS - 1)
        assert len(rank_rows(probs, 0)) == len(probs) - 1

    def test_concurrent_callers(self, monkeypatch):
        """More calling threads than cores, on a pool that the first of them
        makes, with a short switch interval: every ranking keeps its bits,
        and one pool is made."""
        probs = planted_rows(n_rows=4 * 64, n_topics=8)
        seeds = range(0, len(probs), 16)
        want = {seed: hex_entries(one_block(probs, seed)) for seed in seeds}
        made = []
        make = similarity.ThreadPoolExecutor

        def slow_make(*args, **kwargs):  # widens the window for a second pool
            made.append(time.sleep(0.05))
            return make(*args, **kwargs)

        monkeypatch.setattr(similarity, "ThreadPoolExecutor", slow_make)
        monkeypatch.setattr(similarity, "MIN_BLOCK_ROWS", 16)
        monkeypatch.setattr(similarity, "_cores", lambda: 3)
        monkeypatch.setattr(similarity, "_pool", None)
        start = threading.Barrier(len(seeds))
        got = {}

        def rank(seed):
            start.wait(timeout=60)
            for _ in range(20):
                got.setdefault(seed, set()).add(tuple(hex_entries(rank_rows(probs, seed))))

        callers = [threading.Thread(target=rank, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == {seed: {tuple(entries)} for seed, entries in want.items()}
        assert len(made) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_ranks(self, monkeypatch):
        """The parent's pool threads do not exist in a forked child, which
        must start a pool of its own rather than queue work for them."""
        probs = planted_rows(n_rows=4 * similarity.MIN_BLOCK_ROWS)
        monkeypatch.setattr(similarity, "_cores", lambda: 2)
        monkeypatch.setattr(similarity, "_pool", None)  # a pool of this test's own
        want = hex_entries(rank_rows(probs, 3))  # two blocks, long enough to start two threads
        time.sleep(0.2)  # which then go idle
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                with os.fdopen(write_end, "wb") as stream:
                    pickle.dump(hex_entries(rank_rows(probs, 3)), stream)
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            chunks = []
            while select.select([read_end], [], [], 60)[0]:
                chunk = os.read(read_end, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            else:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the forked child did not rank within 60 s")
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert pickle.loads(b"".join(chunks)) == want


FORK_AFTER_THE_SHARED_POOL = """
import os, signal, sys
import numpy as np
from tagtopics import similarity
probs = np.random.default_rng(5).dirichlet(np.ones(8), size=2 * similarity.MIN_BLOCK_ROWS + 7)
want = similarity.rank_rows(probs, 3).entries
assert similarity._pool is not None, "the shared pool did not start"
pid = os.fork()
if pid == 0:
    signal.alarm(5)  # a child that queues work for the parent's threads waits forever
    os._exit(0 if similarity.rank_rows(probs, 3).entries == want else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork hooks here")
@pytest.mark.skipif(similarity._cores() < 2, reason="one core: rank_rows uses no pool")
def test_a_child_forked_after_the_shared_pool_started_ranks_on_a_pool_of_its_own():
    """In a fresh interpreter, so that the module's own pool is the one forked."""
    src = os.path.dirname(os.path.dirname(similarity.__file__))
    done = subprocess.run([sys.executable, "-c", FORK_AFTER_THE_SHARED_POOL],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"], done.stderr


class TestWarmScratch:
    """``rank_rows`` holds its two [R, K] scratch arrays per calling thread."""

    @staticmethod
    def peak_bytes(probs, seed_row):
        tracemalloc.start()
        try:
            rank_rows(probs, seed_row)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_second_call_of_a_shape_allocates_less_than_one_matrix(self):
        probs, wider = planted_rows(), planted_rows(n_topics=41)
        rank_rows(probs, 0)
        assert self.peak_bytes(wider, 0) >= 2 * wider.nbytes  # a new shape: a new pair
        assert self.peak_bytes(wider, 1) < wider.nbytes
        assert self.peak_bytes(probs, 2) >= 2 * probs.nbytes  # the new shape replaced the old
        assert self.peak_bytes(probs, 3) < probs.nbytes

    @pytest.mark.parametrize("same_shape", [True, False])
    def test_threads_at_once_get_the_single_thread_bits(self, same_shape, monkeypatch):
        """More calling threads than cores, each on one of two matrices of two
        shapes, or on two of one shape in turn, out of step with the others, so
        that a scratch pair shared by threads would be overwritten mid-pass."""
        monkeypatch.setattr(similarity, "_cores", lambda: 2)  # a split on any host
        mats = [planted_rows(seed=1), planted_rows(seed=2) if same_shape else
                planted_rows(n_rows=2100, n_topics=33, seed=2)]
        seeds = [0, 7, 1999]
        want = {(m, seed): hex_entries(one_block(mats[m], seed)) for m in (0, 1) for seed in seeds}
        start = threading.Barrier(3)
        got = {first: set() for first in range(3)}

        def rank(first):
            start.wait(timeout=60)
            for turn in range(6):
                m = (first + turn // 3) % 2 if same_shape else first % 2
                for seed in seeds:
                    got[first].add(((m, seed), tuple(hex_entries(rank_rows(mats[m], seed)))))

        callers = [threading.Thread(target=rank, args=(first,)) for first in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for first, results in got.items():
            assert results and all(entries == tuple(want[key]) for key, entries in results)


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

    @pytest.mark.parametrize("text, message", [
        ("# seed=s\nrank\tresource\tdivergence\n1\ta\tsmall\n", r"^line 3: bad divergence 'small'$"),
        ("# seed=s\n\n", r"^not a ranking file \(missing column header\)$"),
    ], ids=["bad-divergence", "no-column-header"])
    def test_bad_ranking_file_rejected(self, text, message):
        with pytest.raises(DataError, match=message):
            read_ranking(io.StringIO(text))

    def test_malformed_file_rejected(self):
        with pytest.raises(DataError):
            read_ranking(io.StringIO("not a ranking\n"))


def test_rel_entr_has_the_formula_that_the_ranking_pins_hold_for():
    """scipy's ``rel_entr(x, y)`` for x, y > 0 is x*log1p((x - y) / y) when
    0.5 < x/y < 2 and x*log(x/y) otherwise, bit for bit; plain x*log(x/y) differs
    in the last bit of many pairs.  The ranking bytes hold only for that formula."""
    import scipy
    from scipy.special import rel_entr

    rng = np.random.default_rng(2007)
    p, q = rng.random(100_000), rng.random(100_000)
    x, y = np.concatenate([2 * p, p]), np.concatenate([p + q, q])  # the kernel's, then any
    want = np.array([a * math.log1p((a - b) / b) if 0.5 < a / b < 2 else a * math.log(a / b)
                     for a, b in zip(x.tolist(), y.tolist())])
    differ = np.flatnonzero(rel_entr(x, y).view(np.int64) != want.view(np.int64))
    assert not differ.size, (
        f"scipy {scipy.__version__} rel_entr differs from the log1p/log formula in "
        f"{differ.size} of {x.size} pairs (first x={x[differ[0]]!r}, y={y[differ[0]]!r}), so "
        "the ranking pins (tests/data/ranking.*, tests/test_golden_ranking.py) need "
        "rewriting for this scipy")
