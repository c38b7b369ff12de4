import numpy as np
import pytest

from rankregret import (
    Dataset,
    collect_ksets_random,
    enumerate_ksets_2d,
    enumerate_ksets_graph,
    is_valid_kset,
    sample_function,
    sample_functions,
    top_k,
    weights_to_angles,
)
from rankregret import kset
from rankregret.kset import (
    collection_from_lines,
    collection_to_lines,
    load_collection,
    save_collection,
)
from rankregret.sweep2d import ExchangeSweep

from conftest import (
    anticorrelated,
    grid_with_duplicates,
    random_dataset,
    tids,
)
from oracles import (
    exhaustive_lp_ksets,
    has_weakly_dominated_member,
    lp_graph_ksets,
    one_at_a_time_ksets,
)

HALF_PI = np.pi / 2


class TestValidity:
    def test_fig1_t7_t3_valid_with_witness_in_wedge(self, fig1):
        witness = is_valid_kset(fig1, tids("t7", "t3"))
        assert witness is not None
        assert top_k(fig1, witness, 2) == tids("t7", "t3")
        # that set owns the angle wedge between the two boundary exchanges
        angle = weights_to_angles(witness)[0]
        assert np.arctan(0.13 / 0.32) < angle < np.arctan(0.45 / 0.29)

    def test_fig1_t4_t6_invalid(self, fig1):
        assert is_valid_kset(fig1, tids("t4", "t6")) is None

    def test_whole_dataset_always_valid(self, fig1):
        witness = is_valid_kset(fig1, frozenset(range(7)))
        assert witness is not None
        assert witness.weights.min() > 0

    def test_achievable_topk_is_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(4, 25)), int(rng.integers(2, 4)))
            f = sample_function(rng, ds.d)
            k = int(rng.integers(1, ds.n))
            members = top_k(ds, f, k)
            witness = is_valid_kset(ds, members)
            assert witness is not None
            assert top_k(ds, witness, k) == members

    def test_bad_members_rejected(self, fig1):
        with pytest.raises(ValueError):
            is_valid_kset(fig1, set())
        with pytest.raises(ValueError):
            is_valid_kset(fig1, {99})


class TestGraphEnumeration:
    def test_fig1_2sets(self, fig1):
        got = {s.members for s in enumerate_ksets_graph(fig1, 2).sets}
        assert got == {tids("t1", "t7"), tids("t7", "t3"), tids("t3", "t5")}

    def test_k1_is_maxima_representation(self):
        # singletons of exactly the points that are top-1 somewhere
        ds = Dataset([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9], [0.2, 0.2]])
        got = {s.members for s in enumerate_ksets_graph(ds, 1).sets}
        assert got == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_matches_exhaustive_lp(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n = int(rng.integers(4, 13))
            d = int(rng.choice([2, 3]))
            k = min(int(rng.integers(1, 4)), n)
            ds = random_dataset(rng, n, d)
            got = {s.members for s in enumerate_ksets_graph(ds, k).sets}
            assert got == exhaustive_lp_ksets(ds, k, is_valid_kset)

    def test_every_set_has_a_working_witness(self, fig1):
        for s in enumerate_ksets_graph(fig1, 2).sets:
            assert top_k(fig1, s.witness, 2) == s.members

    def test_k_equals_n(self, fig1):
        col = enumerate_ksets_graph(fig1, 7)
        assert len(col) == 1 and col.complete

    @pytest.mark.parametrize("maker", ["uniform", "anticorrelated", "grid"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_run_as_solving_every_lp(self, maker, d, monkeypatch):
        # same sets, same order and bit-identical witnesses as a BFS that
        # solves the LP of every candidate it generates, with at most one
        # LP per distinct candidate and none on a candidate in which a
        # non-member weakly dominates a member
        make = {"uniform": lambda g, n, d: g.random((n, d)),
                "anticorrelated": anticorrelated,
                "grid": grid_with_duplicates}[maker]
        solved = []
        real = kset.is_valid_kset

        def counted(dataset, members):
            solved.append(frozenset(members))
            return real(dataset, members)

        monkeypatch.setattr(kset, "is_valid_kset", counted)
        rng = np.random.default_rng([d, len(maker)])
        for k in (1, 2, 3):
            for _ in range(2):
                values = make(rng, int(rng.integers(8, 14)), d)
                solved.clear()
                expected = lp_graph_ksets(values, k)
                got = enumerate_ksets_graph(Dataset(values), k)
                assert [s.members for s in got.sets] == [m for m, _ in expected]
                for s, (_, w) in zip(got.sets, expected):
                    assert s.witness.weights.tobytes() == w.tobytes()
                assert len(solved) == len(set(solved)) == got.lps
                assert not any(has_weakly_dominated_member(values, c)
                               for c in solved)

    def test_counts_lps_and_filtered_candidates(self):
        # (0, 0) is dominated by every other row, so the swaps that add it
        # are filtered; (1, 1) dominates all, so no set may leave it out
        ds = Dataset([[1.0, 1.0], [0.9, 0.1], [0.1, 0.9], [0.0, 0.0]])
        col = enumerate_ksets_graph(ds, 2)
        assert {s.members for s in col.sets} == \
            {frozenset({0, 1}), frozenset({0, 2})}
        assert col.filtered > 0
        assert col.lps + col.filtered <= 6  # C(4, 2) candidates


class TestSampler:
    def test_deterministic_under_seed(self):
        a = sample_functions(np.random.default_rng(9), 4, 10)
        b = sample_functions(np.random.default_rng(9), 4, 10)
        assert np.array_equal(a, b)

    def test_prefix_consistency(self):
        # drawing 6 then 4 more equals drawing 10 at once
        rng1 = np.random.default_rng(10)
        first = np.vstack([sample_functions(rng1, 3, 6), sample_functions(rng1, 3, 4)])
        second = sample_functions(np.random.default_rng(10), 3, 10)
        assert np.array_equal(first, second)

    def test_nonnegative_unit_norm(self):
        w = sample_functions(np.random.default_rng(11), 5, 1000)
        assert w.min() >= 0.0
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0)

    def test_angle_distribution_uniform(self):
        # Kolmogorov-Smirnov against the uniform law on [0, pi/2]
        w = sample_functions(np.random.default_rng(12), 2, 10_000)
        angles = np.sort(np.arctan2(w[:, 1], w[:, 0]))
        n = angles.size
        cdf = angles / HALF_PI
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert ks < 0.02

    def test_d_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sample_functions(np.random.default_rng(0), 1, 3)


class TestRandomCollector:
    def test_fig1_finds_all_three(self, fig1):
        rng = np.random.default_rng(13)
        col = collect_ksets_random(fig1, 2, 100, rng)
        assert {s.members for s in col.sets} == \
            {tids("t1", "t7"), tids("t7", "t3"), tids("t3", "t5")}
        assert not col.complete

    def test_c1_returns_at_least_one(self, fig1):
        col = collect_ksets_random(fig1, 2, 1, np.random.default_rng(14))
        assert len(col) >= 1

    def test_members_are_genuine_ksets(self, fig1):
        col = collect_ksets_random(fig1, 2, 50, np.random.default_rng(15))
        for s in col.sets:
            assert top_k(fig1, s.witness, 2) == s.members
            assert is_valid_kset(fig1, s.members) is not None

    def test_agreement_with_sweep_on_saturated_instances(self):
        # Coupon collection saturates when no wedge is vanishingly thin:
        # restricted to instances whose narrowest wedge is >= 2% of the
        # span, c=100 recovers the complete collection on >= 95% of seeds.
        # The collector's output is a subset of the truth in every case.
        kept = agree = 0
        t = 0
        while kept < 40:
            g = np.random.default_rng(31337 + t)
            t += 1
            n = int(g.integers(10, 31))
            k = int(g.integers(1, 3))
            ds = random_dataset(g, n, 2)
            if _min_wedge(ds, k) < 0.02:
                continue
            kept += 1
            exact = {s.members for s in enumerate_ksets_2d(ds, k).sets}
            got = {s.members for s in collect_ksets_random(ds, k, 100, g).sets}
            assert got <= exact
            agree += got == exact
        assert agree >= int(0.95 * kept)

    def test_invalid_c(self, fig1):
        with pytest.raises(ValueError):
            collect_ksets_random(fig1, 2, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("c", [1, 7, 100])
    def test_same_run_as_one_draw_at_a_time(self, c):
        # same sets, same order, bit-identical witnesses and the generator
        # left in the same state as drawing and scoring one function a time
        rng = np.random.default_rng(21)
        makers = (lambda g, n, d: g.random((n, d)), anticorrelated,
                  grid_with_duplicates)
        for trial in range(9):
            d = 2 + trial % 3
            n = int(rng.integers(8, 150))
            k = int(rng.integers(1, min(n, 8) + 1))
            values = makers[trial % 3](rng, n, d)
            ours = np.random.default_rng(trial)
            theirs = np.random.default_rng(trial)
            got = collect_ksets_random(Dataset(values), k, c, ours)
            expected, draws = one_at_a_time_ksets(values, k, c, theirs)
            assert [s.members for s in got.sets] == [m for m, _ in expected]
            for s, (_, w) in zip(got.sets, expected):
                assert s.witness.weights.tobytes() == w.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert got.draws == draws

    def test_exact_sources_have_no_draws(self, fig1):
        assert enumerate_ksets_graph(fig1, 2).draws is None
        assert enumerate_ksets_2d(fig1, 2).draws is None

    def test_only_the_graph_counts_lps(self, fig1):
        graph = enumerate_ksets_graph(fig1, 2)
        assert graph.lps > 0 and graph.filtered >= 0
        plane = enumerate_ksets_2d(fig1, 2)
        drawn = collect_ksets_random(fig1, 2, 10, np.random.default_rng(0))
        for col in (plane, drawn):
            assert col.lps is None and col.filtered is None
        # only the 2-D enumeration says whether the transposition walk ran
        assert plane.swept is False
        assert graph.swept is None and drawn.swept is None


def _min_wedge(ds, k):
    sweep = ExchangeSweep(ds.values)
    bounds = [0.0]
    last = frozenset(sweep.order[:k])
    for theta, swaps in sweep.batches():
        if any(i == k - 1 for i, _, _ in swaps):
            current = frozenset(sweep.order[:k])
            if current != last:
                bounds.append(theta)
                last = current
    bounds.append(HALF_PI)
    return min(b - a for a, b in zip(bounds, bounds[1:])) / HALF_PI


def test_every_sampled_topk_is_an_enumerated_kset():
    # any achievable top-k outcome appears in the complete enumeration
    rng = np.random.default_rng(16)
    for _ in range(5):
        n = int(rng.integers(5, 12))
        d = int(rng.choice([2, 3]))
        k = min(int(rng.integers(1, 4)), n)
        ds = random_dataset(rng, n, d)
        enumerated = {s.members for s in enumerate_ksets_graph(ds, k).sets}
        for _ in range(200):
            f = sample_function(rng, d)
            assert top_k(ds, f, k) in enumerated


class TestSerialization:
    def test_round_trip_lines(self, fig1):
        col = enumerate_ksets_2d(fig1, 2)
        lines = collection_to_lines(col)
        assert all(line.startswith("k=2;members=") for line in lines)
        back = collection_from_lines(lines, complete=True)
        assert back.k == 2 and back.d == 2
        assert {s.members for s in back.sets} == {s.members for s in col.sets}
        for orig, loaded in zip(col.sets, back.sets):
            assert np.array_equal(orig.witness.weights, loaded.witness.weights)

    def test_witness_optional(self):
        col = collection_from_lines(["k=2;members=1,3", "k=2;members=0,2"], d=2)
        assert len(col) == 2
        assert col.sets[0].witness is None

    def test_file_round_trip(self, fig1, tmp_path):
        col = enumerate_ksets_graph(fig1, 2)
        path = tmp_path / "sets.txt"
        save_collection(col, path)
        back = load_collection(path, complete=True)
        assert {s.members for s in back.sets} == {s.members for s in col.sets}

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            collection_from_lines(["k=2;members=1,3", "k=3;members=0,1,2"])
