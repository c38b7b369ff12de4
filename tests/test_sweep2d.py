import numpy as np
import pytest

from rankregret import (
    Dataset,
    LinearFunction,
    cover_2d,
    enumerate_ksets_2d,
    exact_rank_regret_2d,
    find_ranges,
    is_valid_kset,
    ranks,
    rrr_2d,
    top_k,
)
from rankregret.errors import (
    DimensionNot2D,
    EmptySubset,
    KOutOfRange,
    UncoverableSpace,
)
from rankregret import sweep2d
from rankregret.sweep2d import (
    AngularRange,
    ExchangeSweep,
    UncoveredIntervals,
    dominator_counts,
)

from conftest import (
    FIG1_VALUES,
    T,
    anticorrelated,
    grid_with_duplicates,
    random_dataset,
    tids,
)
from oracles import (
    dense_sweep_ksets,
    dense_sweep_max_rank,
    dense_sweep_topk_membership,
    dominators_by_definition,
    exhaustive_lp_ksets,
    exhaustive_min_hitting_size,
    loop_find_ranges,
    rational_rank_regret_2d,
    sweep_find_ranges,
    sweep_ksets_2d,
    sweep_rank_regret_2d,
)

HALF_PI = np.pi / 2


class TestFindRanges:
    def test_fig1_k2_exact_values(self, fig1):
        ranges = {r.tuple_id: r for r in find_ranges(fig1, 2)}
        # t2, t4, t6 never reach the top 2
        assert set(ranges) == tids("t1", "t3", "t5", "t7")
        t1_exits = np.arctan((0.80 - 0.67) / (0.60 - 0.28))   # t1 x t3
        t7_exits = np.arctan((0.91 - 0.46) / (0.72 - 0.43))   # t7 x t5
        assert ranges[T["t7"]].begin == 0.0
        assert ranges[T["t7"]].end == pytest.approx(t7_exits, abs=1e-12)
        assert ranges[T["t1"]].begin == 0.0
        assert ranges[T["t1"]].end == pytest.approx(t1_exits, abs=1e-12)
        assert ranges[T["t3"]].begin == pytest.approx(t1_exits, abs=1e-12)
        assert ranges[T["t3"]].end == HALF_PI
        assert ranges[T["t5"]].begin == pytest.approx(t7_exits, abs=1e-12)
        assert ranges[T["t5"]].end == HALF_PI

    def test_fig1_matches_dense_oracle(self, fig1):
        grid = 10_001
        spacing = HALF_PI / (grid - 1)
        first, last = dense_sweep_topk_membership(FIG1_VALUES, 2, grid)
        ranges = {r.tuple_id: r for r in find_ranges(fig1, 2)}
        assert set(ranges) == set(first)
        for t, r in ranges.items():
            assert abs(r.begin - first[t]) <= spacing
            assert abs(r.end - last[t]) <= spacing

    def test_two_points_k1(self):
        # neither dominates: both are maxima somewhere, ranges cover jointly
        ds = Dataset([[0.9, 0.1], [0.1, 0.9]])
        ranges = sorted(find_ranges(ds, 1), key=lambda r: r.tuple_id)
        assert [r.tuple_id for r in ranges] == [0, 1]
        crossing = ranges[0].end
        assert ranges[0].begin == 0.0 and ranges[1].end == HALF_PI
        assert ranges[1].begin == crossing
        # dominated point gets no range at all
        ds2 = Dataset([[0.9, 0.9], [0.1, 0.8]])
        only = find_ranges(ds2, 1)
        assert len(only) == 1 and only[0].tuple_id == 0
        assert (only[0].begin, only[0].end) == (0.0, HALF_PI)

    def test_k_equals_n(self, fig1):
        ranges = find_ranges(fig1, 7)
        assert len(ranges) == 7
        assert all(r.begin == 0.0 and r.end == HALF_PI for r in ranges)

    def test_validation(self, fig1):
        with pytest.raises(KOutOfRange):
            find_ranges(fig1, 0)
        with pytest.raises(KOutOfRange):
            find_ranges(fig1, 8)
        with pytest.raises(DimensionNot2D):
            find_ranges(Dataset(np.random.default_rng(0).random((5, 3))), 1)

    def test_sweep_and_trajectory_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(5, 150))
            k = int(rng.integers(1, min(n, 12) + 1))
            ds = random_dataset(rng, n, 2)
            expected = sweep_find_ranges(ds.values, k)
            got = find_ranges(ds, k)
            assert [r.tuple_id for r in got] == [t for t, _, _ in expected]
            for r, (_, begin, end) in zip(got, expected):
                assert r.begin == pytest.approx(begin, abs=1e-12)
                assert r.end == pytest.approx(end, abs=1e-12)

    def test_superset_property(self):
        # every member of the top-k at any angle has a range containing it
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            k = int(rng.integers(1, 6))
            k = min(k, n)
            ds = random_dataset(rng, n, 2)
            ranges = {r.tuple_id: r for r in find_ranges(ds, k)}
            for theta in rng.random(40) * HALF_PI:
                f_weights = np.array([np.cos(theta), np.sin(theta)])
                for t in top_k(ds, LinearFunction(f_weights), k):
                    r = ranges[t]
                    assert r.begin <= theta <= r.end

    def test_event_count_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 120))
            sweep = ExchangeSweep(random_dataset(rng, n, 2).values)
            for _ in sweep.batches():
                pass
            assert sweep.swap_count <= n * (n - 1) // 2


IDENTITY_INPUTS = {
    "uniform": lambda rng, n: rng.random((n, 2)),
    "anticorrelated": lambda rng, n: anticorrelated(rng, n, 2),
    "rounded": lambda rng, n: np.round(anticorrelated(rng, n, 2), 2),
    "grid": lambda rng, n: grid_with_duplicates(rng, n, 2),
}


def range_bits(ranges):
    """(id, begin, end) with the floats as hex strings: equal bit for bit."""
    return [(int(t), float(b).hex(), float(e).hex()) for t, b, e in ranges]


class TestBatchedTrajectories:
    """The batched trajectory kernel equals the per-tuple loop of the
    oracle bit for bit; blocks of one and two tuples exercise the block
    edges."""

    @pytest.mark.parametrize("block", [None, 1, 2])
    @pytest.mark.parametrize("kind", sorted(IDENTITY_INPUTS))
    def test_same_ranges_as_the_loop(self, kind, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(sweep2d, "_block_size", lambda rows: block)
        rng = np.random.default_rng(sorted(IDENTITY_INPUTS).index(kind) + 70)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            ds = Dataset(IDENTITY_INPUTS[kind](rng, n))
            for k in sorted({1, 2, max(1, n // 3), n - 1, n} - {0}):
                got = [(r.tuple_id, r.begin, r.end) for r in find_ranges(ds, k)]
                assert range_bits(got) == range_bits(loop_find_ranges(ds.values, k))

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("kind", sorted(IDENTITY_INPUTS))
    def test_exact_regret_does_not_depend_on_blocks(self, kind, block,
                                                    monkeypatch):
        rng = np.random.default_rng(sorted(IDENTITY_INPUTS).index(kind) + 80)
        cases = []
        for _ in range(10):
            n = int(rng.integers(2, 60))
            ds = Dataset(IDENTITY_INPUTS[kind](rng, n))
            subset = rng.choice(n, size=int(rng.integers(1, min(n, 7) + 1)),
                                replace=False)
            cases.append((ds, subset, exact_rank_regret_2d(ds, subset)))
        monkeypatch.setattr(sweep2d, "_block_size", lambda rows: block)
        for ds, subset, expected in cases:
            assert exact_rank_regret_2d(ds, subset) == expected


def grid_values(rng, n, steps=4):
    """Values i/steps with an exact duplicate row: ties on both axes."""
    vals = rng.integers(0, steps + 1, size=(n, 2)) / steps
    if n > 4:
        vals[n // 2] = vals[0]
    return vals


def anticorrelated_values(rng, n):
    x = rng.random(n)
    return np.column_stack([x, np.clip(1.0 - x + rng.normal(0, 0.05, n), 0, 1)])


class TestDominatorCounts:
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_definition(self, strict):
        # grid data with duplicate rows, plus one larger tie-free input;
        # one call returns both counts
        rng = np.random.default_rng(53)
        inputs = [grid_values(rng, int(rng.integers(1, 60)),
                              steps=int(rng.integers(1, 5))) for _ in range(60)]
        inputs += [grid_with_duplicates(rng, int(rng.integers(1, 60)), 2)
                   for _ in range(30)]
        inputs.append(rng.random((300, 2)))
        for vals in inputs:
            got = dominator_counts(vals)[1 if strict else 0]
            assert np.array_equal(got, dominators_by_definition(vals, strict=strict))


class TestCover:
    def test_fig1_cover(self, fig1):
        assert cover_2d(find_ranges(fig1, 2)) == tids("t3", "t1")

    def test_single_full_range(self):
        assert cover_2d([AngularRange(4, 0.0, HALF_PI)]) == {4}

    def test_two_overlapping_ranges(self):
        ranges = [AngularRange(0, 0.0, 0.6), AngularRange(1, 0.5, HALF_PI)]
        assert cover_2d(ranges) == {0, 1}

    def test_tie_prefers_smaller_id(self):
        ranges = [AngularRange(5, 0.0, HALF_PI), AngularRange(2, 0.0, HALF_PI)]
        assert cover_2d(ranges) == {2}

    def test_uncoverable(self):
        with pytest.raises(UncoverableSpace):
            cover_2d([AngularRange(0, 0.0, 0.5), AngularRange(1, 0.9, HALF_PI)])
        with pytest.raises(UncoverableSpace):
            cover_2d([])

    def test_coverage_is_exact(self):
        # subtracting the selected ranges leaves nothing, to 1e-12 slack
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(3, 120))
            k = int(rng.integers(1, 8))
            k = min(k, n)
            ranges = find_ranges(random_dataset(rng, n, 2), k)
            chosen = cover_2d(ranges)
            left = UncoveredIntervals(0.0, HALF_PI)
            for r in ranges:
                if r.tuple_id in chosen:
                    left.subtract(r.begin, r.end)
            assert left.total <= 1e-12

    def test_long_middle_range_does_not_inflate_cover(self):
        # a long mid-span range tempts the coverage-first order into two
        # extra flank picks; the result must still be a 2-range cover
        ranges = [AngularRange(0, 0.0, 0.7), AngularRange(1, 0.65, HALF_PI),
                  AngularRange(2, 0.2, 1.1)]
        assert cover_2d(ranges) == {0, 1}

    def test_cover_size_is_minimum(self):
        # random closed-range families covering the span, checked against
        # exhaustive minimum-cover search
        import itertools

        rng = np.random.default_rng(52)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            cuts = np.sort(rng.random(m - 1)) * HALF_PI
            ranges = []
            pieces = np.concatenate([[0.0], cuts, [HALF_PI]])
            for i, (lo, hi) in enumerate(zip(pieces, pieces[1:])):
                ranges.append(AngularRange(i, lo, hi))  # guarantees coverage
            for j in range(int(rng.integers(0, 6))):
                a, b = np.sort(rng.random(2)) * HALF_PI
                ranges.append(AngularRange(m + j, a, b))
            got = cover_2d(ranges)
            best = None
            for size in range(1, len(ranges) + 1):
                for combo in itertools.combinations(ranges, size):
                    covered = UncoveredIntervals(0.0, HALF_PI)
                    for r in combo:
                        covered.subtract(r.begin, r.end)
                    if covered.total <= 1e-12:
                        best = size
                        break
                if best is not None:
                    break
            assert len(got) == best


class TestRrr2d:
    def test_fig1(self, fig1):
        rep = rrr_2d(fig1, 2)
        assert rep.members == tids("t3", "t1")
        assert rep.algorithm == "2drrr"
        assert exact_rank_regret_2d(fig1, rep.members) <= 2 * 2

    def test_k_equals_n_single_tuple(self, fig1):
        assert rrr_2d(fig1, 7).size == 1

    def test_size_never_exceeds_optimum(self):
        # the ranges are supersets of each top-k outcome, so a minimum
        # cover cannot be larger than the optimal hitting set of the true
        # k-sets (verified against exhaustive subset search)
        rng = np.random.default_rng(46)
        for _ in range(25):
            n = int(rng.integers(4, 50))
            k = int(rng.integers(1, 6))
            k = min(k, n)
            ds = random_dataset(rng, n, 2)
            rep = rrr_2d(ds, k)
            ksets = [s.members for s in enumerate_ksets_2d(ds, k).sets]
            assert rep.size <= exhaustive_min_hitting_size(ksets)

    def test_2k_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(3, 200))
            k = int(rng.integers(1, 11))
            k = min(k, n)
            ds = random_dataset(rng, n, 2)
            rep = rrr_2d(ds, k)
            assert exact_rank_regret_2d(ds, rep.members) <= 2 * k


#: values i/7 whose crossings near pi/4 lie a few ulps apart and are
#: misordered by floats: read off the k-level at k=23, they give a set
#: that the exact order does not have
MISORDERED = np.array([
    [4, 5], [5, 7], [3, 5], [6, 1], [1, 5], [1, 1], [7, 0], [5, 2],
    [0, 4], [4, 1], [6, 5], [6, 2], [7, 6], [3, 5], [0, 4], [7, 0],
    [7, 0], [7, 1], [2, 6], [2, 2], [2, 3], [6, 2], [2, 3], [0, 2],
    [6, 7], [5, 4], [6, 4], [7, 0], [7, 0], [3, 3], [4, 4], [7, 1],
    [1, 6], [3, 6], [7, 1], [7, 0]]) / 7


class TestEnumerate2d:
    def test_fig1_2sets(self, fig1):
        got = {s.members for s in enumerate_ksets_2d(fig1, 2).sets}
        assert got == {tids("t1", "t7"), tids("t7", "t3"), tids("t3", "t5")}

    def test_witnesses_reproduce_their_sets(self, fig1):
        for s in enumerate_ksets_2d(fig1, 2).sets:
            assert top_k(fig1, s.witness, 2) == s.members

    def test_k_equals_n(self, fig1):
        col = enumerate_ksets_2d(fig1, 7)
        assert len(col) == 1
        assert col.sets[0].members == frozenset(range(7))

    def test_matches_exhaustive_lp(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 4))
            k = min(k, n)
            ds = random_dataset(rng, n, 2)
            got = {s.members for s in enumerate_ksets_2d(ds, k).sets}
            assert got == exhaustive_lp_ksets(ds, k, is_valid_kset)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(49)
        for _ in range(5):
            n = int(rng.integers(4, 40))
            k = min(int(rng.integers(1, 4)), n)
            ds = random_dataset(rng, n, 2)
            got = {s.members for s in enumerate_ksets_2d(ds, k).sets}
            assert got >= dense_sweep_ksets(ds.values, k, 2001)

    @pytest.mark.parametrize("kind", ["uniform", "anticorrelated", "grid"])
    def test_identical_to_full_sweep(self, kind):
        # same sets, same order, bit-identical witnesses as sweeping all n
        rng = np.random.default_rng(55)
        for _ in range(15):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(1, min(n, 10) + 1))
            if kind == "uniform":
                vals = rng.random((n, 2))
            elif kind == "anticorrelated":
                vals = anticorrelated_values(rng, n)
            else:
                vals = grid_values(rng, n)
            got = [(s.members, tuple(s.witness.weights))
                   for s in enumerate_ksets_2d(Dataset(vals), k).sets]
            assert got == sweep_ksets_2d(vals, k)

    @pytest.mark.parametrize("block", [None, 1])
    def test_identical_to_full_sweep_on_tied_data(self, block, monkeypatch):
        # rounded anti-correlated and grid data with duplicate rows, k up
        # to n, through both the k-level and the sweep fallback
        if block is not None:
            monkeypatch.setattr(sweep2d, "_block_size", lambda rows: block)
        rng = np.random.default_rng(57)
        inputs = [(MISORDERED, 23), (np.array([[0.3, 0.6]]), 1),
                  (np.array([[0.2, 0.9], [0.9, 0.2]]), 1),
                  (np.array([[0.5, 0.5], [0.5, 0.5]]), 1),
                  (np.array([[0.5, 0.5], [0.5, 0.5]]), 2)]
        for i in range(240):
            n = int(rng.integers(1, 80))
            vals = (np.round(anticorrelated(rng, n, 2), 3) if i % 2
                    else grid_with_duplicates(rng, n, 2))
            inputs.append((vals, int(rng.integers(1, n + 1))))
        swept = 0
        for vals, k in inputs:
            col = enumerate_ksets_2d(Dataset(vals), k)
            got = [(s.members, tuple(s.witness.weights)) for s in col.sets]
            assert got == sweep_ksets_2d(vals, k)
            swept += col.swept
        assert 0 < swept < len(inputs)

    def test_sweep_decides_only_near_ties(self, monkeypatch):
        sweeps = []
        walk = ExchangeSweep._transpositions

        def counting_walk(sweep):
            sweeps.append(sweep.n)
            return walk(sweep)

        monkeypatch.setattr(sweep2d.ExchangeSweep, "_transpositions",
                            counting_walk)
        rng = np.random.default_rng(58)
        # benchmark-sized uniform (n=250, k=10) and anti-correlated inputs
        for vals, k in [(rng.random((250, 2)), 10), (rng.random((60, 2)), 3),
                        (anticorrelated(rng, 250, 2), 10),
                        (anticorrelated(rng, 400, 2), 40)]:
            assert enumerate_ksets_2d(Dataset(vals), k).swept is False
        assert sweeps == []
        assert enumerate_ksets_2d(Dataset(MISORDERED), 23).swept is True
        assert len(sweeps) == 1

    def test_a_group_leaving_other_than_k_falls_back(self, monkeypatch):
        # without the near-tie rule, floats misorder these i/7 crossings so
        # that one group leaves 7 tuples in the top 6
        monkeypatch.setattr(sweep2d, "NEAR_TIE_ULPS", 0)
        vals = np.array([[3, 7], [5, 2], [7, 1], [1, 4], [6, 6], [2, 7],
                         [3, 2], [6, 6], [0, 1], [0, 2]]) / 7
        col = enumerate_ksets_2d(Dataset(vals), 6)
        assert col.swept is True
        got = [(s.members, tuple(s.witness.weights)) for s in col.sets]
        assert got == sweep_ksets_2d(vals, 6)

    def test_consecutive_sets_differ_in_one_member(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            n = int(rng.integers(4, 60))
            k = min(int(rng.integers(1, 5)), n)
            sets = enumerate_ksets_2d(random_dataset(rng, n, 2), k).sets
            for a, b in zip(sets, sets[1:]):
                assert len(a.members & b.members) == k - 1


class TestTiedData:
    """Quantized values and duplicate rows force exact score ties, where
    the id tie-break can reshuffle ranks at exchange angles and at the two
    axis endpoints.  The 2k guarantee must survive that."""

    def test_2k_bound_on_grid_data(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            vals = rng.integers(0, 5, size=(n, 2)) / 4.0
            if n > 4:
                vals[n // 2] = vals[0]  # exact duplicate row
            ds = Dataset(vals)
            for k in {1, min(2, n), min(n, 5), n}:
                rep = rrr_2d(ds, k)
                assert exact_rank_regret_2d(ds, rep.members) <= 2 * k

    def test_duplicated_maximum_with_axis_ties(self):
        # five tuples tie on the first attribute; the duplicated (1,1)
        # point with the larger id ranks 5th at angle 0 under the id
        # tie-break, so it alone is not a valid representative there
        vals = np.array([
            [1.0, 0.25], [1.0, 0.5], [1.0, 0.75], [0.3, 0.1],
            [1.0, 1.0], [0.2, 0.9], [1.0, 1.0],
        ])
        ds = Dataset(vals)
        # at angle 0 the x1=1 tie group is ids {0,1,2,4,6}, ordered by id
        assert exact_rank_regret_2d(ds, {6}) == 5
        assert exact_rank_regret_2d(ds, {4}) == 4
        assert exact_rank_regret_2d(ds, {0}) >= 5  # great at 0, bad later
        rep = rrr_2d(ds, 1)
        assert exact_rank_regret_2d(ds, rep.members) <= 2

    def test_ulp_apart_range_ends_at_a_tie_stay_covered(self):
        # six tuples tie at pi/4, and the range of 5 ends a few ulps
        # before the range of 0 begins; tuple 1 alone holds the top rank
        # in between, so the cover {0, 5}, which drops that gap as below
        # the cover slack, has rank-regret 3 there
        vals = np.array([[1, 5], [2, 4], [0, 2], [1, 5], [2, 4], [5, 1],
                         [1, 5]]) / 5
        ds = Dataset(vals)
        rep = rrr_2d(ds, 1)
        assert exact_rank_regret_2d(ds, rep.members) <= 2


class TestExactRankRegret:
    def test_fig1_cover_output(self, fig1):
        assert exact_rank_regret_2d(fig1, tids("t3", "t1")) == 2

    def test_full_set_is_one(self, fig1):
        assert exact_rank_regret_2d(fig1, frozenset(range(7))) == 1

    def test_fig1_singleton_t4(self, fig1):
        # frozen from the dense-sweep oracle: t4 is outranked by all six
        # others on a band of angles, so its worst rank is 7
        assert dense_sweep_max_rank(FIG1_VALUES, [T["t4"]]) == 7
        assert exact_rank_regret_2d(fig1, {T["t4"]}) == 7

    def test_empty_subset_rejected(self, fig1):
        with pytest.raises(EmptySubset):
            exact_rank_regret_2d(fig1, set())

    def test_axis_ties_resolve_by_id_at_half_pi(self):
        # under w = (0, 1) ids 0 and 1 tie on x2, so id 0 ranks first
        ds = Dataset([[0.2, 0.2], [0.9, 0.2], [0.5, 0.1]])
        weights = LinearFunction([0.0, 1.0])
        assert int(ranks(ds, weights, [1])[0]) == 2
        assert exact_rank_regret_2d(ds, {1}) == 2

    def test_matches_full_sweep(self):
        rng = np.random.default_rng(56)
        for _ in range(30):
            n = int(rng.integers(1, 120))
            ds = random_dataset(rng, n, 2)
            subset = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)),
                                replace=False)
            assert exact_rank_regret_2d(ds, subset) == \
                sweep_rank_regret_2d(ds.values, subset)

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(57)
        for _ in range(15):
            n = int(rng.integers(2, 41))
            ds = random_dataset(rng, n, 2)
            subset = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                replace=False)
            assert exact_rank_regret_2d(ds, subset) == \
                rational_rank_regret_2d(ds.values, subset)

    def test_many_members_match_full_sweep(self):
        rng = np.random.default_rng(58)
        ds = random_dataset(rng, 400, 2)
        subset = rng.choice(400, size=60, replace=False)
        assert exact_rank_regret_2d(ds, subset) == \
            sweep_rank_regret_2d(ds.values, subset)

    def test_many_members_match_rational_oracle(self):
        rng = np.random.default_rng(59)
        for size in (5, 10, 15):
            n = int(rng.integers(size, 41))
            ds = random_dataset(rng, n, 2)
            subset = rng.choice(n, size=size, replace=False)
            assert exact_rank_regret_2d(ds, subset) == \
                rational_rank_regret_2d(ds.values, subset)

    def test_at_least_dense_grid(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(3, 60))
            ds = random_dataset(rng, n, 2)
            size = int(rng.integers(1, min(n, 5) + 1))
            subset = rng.choice(n, size=size, replace=False)
            exact = exact_rank_regret_2d(ds, subset)
            grid = dense_sweep_max_rank(ds.values, subset, 2001)
            assert exact >= grid
            assert exact == dense_sweep_max_rank(ds.values, subset, 20_001)
