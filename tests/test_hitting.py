import numpy as np
import pytest

from rankregret import enumerate_ksets_graph, mdrrr
from rankregret.errors import EmptyCollection
from rankregret.kset import KSet, KSetCollection

from conftest import random_dataset
from oracles import exhaustive_min_hitting_size, greedy_cover_bound


def make_collection(sets, k=2, d=2):
    return KSetCollection([KSet(frozenset(s)) for s in sets], k=k,
                          complete=True, d=d)


FIG1_2SETS = [{0, 6}, {6, 2}, {2, 4}]  # {t1,t7}, {t7,t3}, {t3,t5}


def hits_all(chosen, sets):
    return all(chosen & frozenset(s) for s in sets)


def is_minimal(chosen, sets):
    """Every member is the only member in some set."""
    return all(any(chosen & frozenset(s) == {t} for s in sets)
               for t in chosen)


class TestMdrrr:
    def test_fig1_collection(self):
        # the paper's toy answer {t1, t3}, in two picks
        got, stats = mdrrr(make_collection(FIG1_2SETS), return_stats=True)
        assert got == {0, 2}
        assert (stats.total_rounds, stats.doublings) == (2, [])

    def test_single_set(self):
        assert mdrrr(make_collection([{3, 5}])) == {3}

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
            got = mdrrr(make_collection(sets, k=3, d=3))
            assert hits_all(got, sets)
            assert is_minimal(got, sets)
            assert len(got) >= exhaustive_min_hitting_size(sets)
            assert len(got) <= greedy_cover_bound(sets)

    def test_prune_drops_the_first_pick(self):
        # 0 hits four sets and goes first; {1} and {2} then need 1 and 2,
        # which between them hit 0's sets too, so the prune drops 0
        sets = [{0, 1, 3}, {0, 1, 4}, {0, 2, 5}, {0, 2, 6}, {1}, {2}]
        got, stats = mdrrr(make_collection(sets), return_stats=True)
        assert got == {1, 2}
        assert stats.total_rounds == 3

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            mdrrr(KSetCollection([], k=2, complete=True, d=2))

    def test_collection_with_an_empty_set(self):
        with pytest.raises(ValueError, match="empty set"):
            mdrrr(make_collection([{1, 2}, set()]))

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
            got = mdrrr(col)
            assert hits_all(got, col.member_sets())
            if d == 2:
                assert exact_rank_regret_2d(ds, got) <= k


class TestGreedy:
    """The greedy pick of ``mdrrr``: the most open sets, ties to the
    smallest id."""

    def test_fig1_sets(self):
        # t3 and t7 each hit two sets; the smaller id (t3=2) goes first,
        # then t1 (0) and t7 (6) tie on the last open set
        assert mdrrr(make_collection(FIG1_2SETS)) == {0, 2}

    def test_disjoint_sets(self):
        assert mdrrr(make_collection([{1}, {2}], k=1)) == {1, 2}

    def test_nested_sets(self):
        assert mdrrr(make_collection([{1, 2}, {1}], k=2)) == {1}

    def test_empty_collection(self):
        with pytest.raises(EmptyCollection):
            mdrrr(KSetCollection([], k=2, complete=True, d=2))
