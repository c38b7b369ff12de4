import math

import numpy as np
import pytest

from rankregret import (
    enumerate_ksets_graph,
    greedy_hitting,
    mdrrr,
)
from rankregret.errors import EmptyCollection
from rankregret.kset import KSet, KSetCollection

from conftest import random_dataset
from oracles import exhaustive_min_hitting_size


def make_collection(sets, k=2, d=2):
    return KSetCollection([KSet(frozenset(s)) for s in sets], k=k,
                          complete=True, d=d)


FIG1_2SETS = [{0, 6}, {6, 2}, {2, 4}]  # {t1,t7}, {t7,t3}, {t3,t5}


def hits_all(chosen, sets):
    return all(chosen & frozenset(s) for s in sets)


class TestMdrrr:
    def test_fig1_collection(self):
        col = make_collection(FIG1_2SETS)
        got = mdrrr(col, rng=np.random.default_rng(0))
        assert hits_all(got, FIG1_2SETS)

    def test_single_set(self):
        col = make_collection([{3, 5}])
        got = mdrrr(col, rng=np.random.default_rng(1))
        assert len(got) == 1 and got <= {3, 5}

    def test_random_collections_bounded_by_greedy_and_optimum(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            ground = list(range(int(rng.integers(3, 13))))
            n_sets = int(rng.integers(1, 9))
            sets = []
            for _ in range(n_sets):
                size = int(rng.integers(1, min(4, len(ground)) + 1))
                sets.append(set(int(x) for x in
                                rng.choice(ground, size=size, replace=False)))
            col = make_collection(sets, k=3, d=3)
            got = mdrrr(col, rng=np.random.default_rng(trial))
            assert hits_all(got, sets)
            assert len(got) >= exhaustive_min_hitting_size(sets)
            assert len(got) <= 4 * len(greedy_hitting(col))

    def test_weight_trace_monotone_and_doubling_only_on_misses(self):
        col = make_collection(FIG1_2SETS)
        got, stats = mdrrr(col, rng=np.random.default_rng(3), return_stats=True)
        assert hits_all(got, FIG1_2SETS)
        totals = stats.weight_totals
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert all(0 <= j < len(FIG1_2SETS) for j in stats.doublings)
        assert stats.rounds_at_final_guess <= \
            math.ceil(4 * stats.final_guess * max(
                math.log2(5 / stats.final_guess), 0.0)) + 8

    def test_each_round_doubles_the_first_missed_set(self):
        class Recorder:
            """A generator that keeps every net drawn and its weights."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.draws = []

            def choice(self, n, size, replace, p):
                drawn = self.rng.choice(n, size=size, replace=replace, p=p)
                self.draws.append((drawn, p))
                return drawn

        # ground sets of up to 400 ids and d = 1 keep the nets small
        # enough to miss sets, ragged ones included
        rng = np.random.default_rng(8)
        doublings = 0
        for trial in range(60):
            ground = list(range(int(rng.integers(3, 400))))
            sets = [set(rng.choice(ground, size=int(rng.integers(1, 4)),
                                   replace=False).tolist())
                    for _ in range(int(rng.integers(1, 40)))]
            col = make_collection(sets, k=3, d=1)
            recorder = Recorder(trial)
            got, stats = mdrrr(col, rng=recorder, return_stats=True)
            assert got == mdrrr(col, rng=np.random.default_rng(trial))
            ids = sorted(set().union(*sets))
            order = [sorted(s) for s in col.member_sets()]
            missed = []
            for drawn, _ in recorder.draws:
                net = {ids[i] for i in drawn.tolist()}
                missed += [j for j, s in enumerate(order) if not net & set(s)][:1]
            assert stats.doublings == missed
            doublings += len(missed)
            for (_, p), (_, q), j in zip(recorder.draws, recorder.draws[1:],
                                         missed):
                doubled = p.copy()
                doubled[[ids.index(t) for t in order[j]]] *= 2.0
                np.testing.assert_allclose(q, doubled / doubled.sum(),
                                           rtol=1e-12)
        assert doublings > 100

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            mdrrr(KSetCollection([], k=2, complete=True, d=2),
                  rng=np.random.default_rng(0))

    def test_a_guess_past_twice_the_ground_set_prunes_the_ground_set(self):
        class FirstSlotOnly:
            """Draws nets that hold only the smallest id."""

            def choice(self, n, size, replace, p):
                return np.zeros(size, dtype=np.int64)

        col = make_collection(FIG1_2SETS)
        got, stats = mdrrr(col, rng=FirstSlotOnly(), return_stats=True)
        assert hits_all(got, FIG1_2SETS)
        assert mdrrr(col, rng=FirstSlotOnly()) == got
        ground = len(frozenset().union(*FIG1_2SETS))
        assert stats.final_guess > 2 * ground
        assert stats.rounds_at_final_guess == 0
        assert stats.net_size == stats.raw_net_size == ground

    def test_hits_complete_collections_of_real_data(self):
        # hitting every achievable top-k implies rank-regret at most k,
        # which the 2-D sweep can confirm exactly
        from rankregret import exact_rank_regret_2d

        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(4, 13))
            d = int(rng.choice([2, 3]))
            k = min(int(rng.integers(1, 4)), n)
            ds = random_dataset(rng, n, d)
            col = enumerate_ksets_graph(ds, k)
            got = mdrrr(col, rng=np.random.default_rng(trial))
            assert hits_all(got, col.member_sets())
            if d == 2:
                assert exact_rank_regret_2d(ds, got) <= k


class TestGreedy:
    def test_fig1_sets(self):
        got = greedy_hitting(make_collection(FIG1_2SETS))
        # t3 and t7 each hit two sets; the smaller id (t3=2) goes first
        assert len(got) == 2 and 2 in got

    def test_disjoint_sets(self):
        assert greedy_hitting(make_collection([{1}, {2}], k=1)) == {1, 2}

    def test_nested_sets(self):
        assert greedy_hitting(make_collection([{1, 2}, {1}], k=2)) == {1}

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            greedy_hitting(KSetCollection([], k=2, complete=True, d=2))
