from fractions import Fraction

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
from rankregret.sweep2d import AngularRange

from conftest import (
    FIG1_VALUES,
    T,
    anticorrelated,
    grid_with_duplicates,
    random_dataset,
    tids,
)
from oracles import (
    FullExchangeSweep,
    dense_sweep_ksets,
    dense_sweep_max_rank,
    dense_sweep_topk_membership,
    dominators_by_definition,
    exhaustive_lp_ksets,
    exhaustive_min_hitting_size,
    loop_find_ranges,
    rational_ksets_2d,
    rational_point_topk_2d,
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
            sweep = FullExchangeSweep(random_dataset(rng, n, 2).values)
            swaps = sum(len(batch) for _, batch in sweep.batches())
            assert swaps <= n * (n - 1) // 2


IDENTITY_INPUTS = {
    "uniform": lambda rng, n: rng.random((n, 2)),
    "anticorrelated": lambda rng, n: anticorrelated(rng, n, 2),
    "rounded": lambda rng, n: np.round(anticorrelated(rng, n, 2), 2),
    "grid": lambda rng, n: grid_with_duplicates(rng, n, 2),
}


def range_bits(ranges):
    """(id, begin, end, ...) with the floats as hex strings: equal bit
    for bit."""
    return [(int(t), float(b).hex(), float(e).hex(), *rest)
            for t, b, e, *rest in ranges]


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
                # a span holds the point at an end where that end's
                # element is even
                got = [(r.tuple_id, r.begin, r.end, r.first % 2 == 0,
                        r.last % 2 == 0) for r in find_ranges(ds, k)]
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


def level_arrays(vals, rows, k):
    """The arrays of the k-level of ``vals`` computed over ``rows``."""
    level = sweep2d._level_events(vals[rows], rows, k)
    return [level.top, level.bounds, level.angles, level.tuples, level.change,
            level.at]


class TestCandidates:
    def test_same_k_level_as_the_skyband(self):
        # i/q grids with duplicate rows, plus 300 uniform inputs: the
        # k-level over the candidates is array for array the one over the
        # k-skyband
        rng = np.random.default_rng(53)
        inputs = [grid_values(rng, int(rng.integers(1, 60)),
                              steps=int(rng.integers(1, 5))) for _ in range(60)]
        inputs += [grid_with_duplicates(rng, int(rng.integers(1, 60)), 2)
                   for _ in range(30)]
        inputs += [rng.random((int(rng.integers(1, 120)), 2)) for _ in range(300)]
        for vals in inputs:
            n = len(vals)
            for k in {k for k in (1, 2, 3, n // 2, n) if 1 <= k <= n}:
                rows = sweep2d._candidates(vals, k)
                skyband = np.flatnonzero(dominators_by_definition(vals) < k)
                for got, want in zip(level_arrays(vals, rows, k),
                                     level_arrays(vals, skyband, k)):
                    assert np.array_equal(got, want), (n, k)

    def test_every_kset_member_is_a_candidate(self):
        # the exact top-k sets between the crossings, at them and at the axes
        rng = np.random.default_rng(54)
        for i in range(60):
            n = int(rng.integers(2, 25))
            if i % 3 == 0:
                vals = grid_with_duplicates(rng, n, 2)
            elif i % 3 == 1:
                vals = np.round(anticorrelated_values(rng, n), 2)
            else:
                vals = rng.random((n, 2))
            for k in sorted({1, 2, max(1, n // 2), n - 1}):
                rows = set(sweep2d._candidates(vals, k).tolist())
                for members in (rational_ksets_2d(vals, k)
                                + rational_point_topk_2d(vals, k)):
                    assert members <= rows, (i, k)

    def test_drops_rows_the_skyband_keeps(self):
        # on the plane-large kind of input, anti-correlated and rounded,
        # the slabs keep far fewer rows than the k-skyband
        vals = np.round(anticorrelated_values(np.random.default_rng(55), 1500), 3)
        skyband = np.count_nonzero(dominators_by_definition(vals) < 15)
        assert 2 * sweep2d._candidates(vals, 15).size < skyband
        assert rrr_2d(Dataset(vals), 15).params["candidates"] == \
            sweep2d._candidates(vals, 15).size


def span(t, first, last):
    """A range over the elements ``first`` to ``last`` (no angles)."""
    return AngularRange(t, 0.0, 0.0, first, last)


def covered(ranges, chosen, size):
    """Whether the spans of the chosen ranges cover elements 0..size-1."""
    hit = np.zeros(size, dtype=bool)
    for r in ranges:
        if r.tuple_id in chosen:
            hit[r.first:r.last + 1] = True
    return bool(hit.all())


class TestCover:
    """The cover works on element spans: the point 0, the k-level
    segments and the point pi/2, each of a float width."""

    def test_fig1_cover(self, fig1):
        assert cover_2d(*sweep2d._top_k_ranges(fig1, 2)[:2]) == tids("t3", "t1")

    def test_single_full_range(self):
        assert cover_2d([span(4, 0, 2)], [0.0, HALF_PI, 0.0]) == {4}

    def test_two_overlapping_ranges(self):
        widths = [0.0, 0.5, 0.1, HALF_PI - 0.6, 0.0]
        assert cover_2d([span(0, 0, 2), span(1, 2, 4)], widths) == {0, 1}

    def test_tie_prefers_smaller_id(self):
        widths = [0.0, HALF_PI, 0.0]
        assert cover_2d([span(5, 0, 2), span(2, 0, 2)], widths) == {2}

    def test_uncoverable(self):
        widths = [0.0, 0.5, 0.4, HALF_PI - 0.9, 0.0]
        with pytest.raises(UncoverableSpace):
            cover_2d([span(0, 0, 1), span(1, 3, 4)], widths)
        with pytest.raises(UncoverableSpace):
            cover_2d([], widths)

    def test_every_element_counts_however_narrow(self):
        # the middle segment has no float width, and only tuple 2 holds it
        widths = [0.0, 1.1, 0.0, HALF_PI - 1.1, 0.0]
        ranges = [span(0, 0, 1), span(1, 3, 4), span(2, 2, 2)]
        assert cover_2d(ranges, widths) == {0, 1, 2}

    def test_coverage_is_exact(self):
        # the selected spans cover every element, the narrowest included
        rng = np.random.default_rng(45)
        for i in range(40):
            n = int(rng.integers(3, 120))
            k = min(int(rng.integers(1, 8)), n)
            vals = grid_with_duplicates(rng, n, 2) if i % 2 else rng.random((n, 2))
            ranges, widths, _ = sweep2d._top_k_ranges(Dataset(vals), k)
            assert covered(ranges, cover_2d(ranges, widths), len(widths))

    def test_long_middle_range_does_not_inflate_cover(self):
        # the widest range, in the middle, tempts the coverage-first order
        # into two extra flank picks; the result must still be a 2-range
        # cover
        widths = [0.0, 0.1, 0.3, 0.1, 0.8, 0.2, 0.0]
        ranges = [span(0, 0, 3), span(1, 3, 6), span(2, 2, 4)]
        assert sweep2d._max_coverage_cover(ranges, np.array(widths)) == {0, 1, 2}
        assert cover_2d(ranges, widths) == {0, 1}

    def test_cover_size_is_minimum(self):
        # random span families covering the elements, checked against
        # exhaustive minimum-cover search
        import itertools

        rng = np.random.default_rng(52)
        for _ in range(40):
            size = int(rng.integers(3, 12))
            cuts = np.sort(rng.choice(np.arange(1, size),
                                      int(rng.integers(0, size - 1)), replace=False))
            pieces = np.concatenate([[0], cuts, [size]])
            ranges = [span(i, int(lo), int(hi) - 1)  # guarantees coverage
                      for i, (lo, hi) in enumerate(zip(pieces, pieces[1:]))]
            for _ in range(int(rng.integers(0, 6))):
                lo, hi = np.sort(rng.integers(0, size, 2))
                ranges.append(span(len(ranges), int(lo), int(hi)))
            widths = rng.random(size) * (rng.random(size) < 0.7)
            got = cover_2d(ranges, widths)
            assert covered(ranges, got, size)
            best = next(m for m in range(1, len(ranges) + 1)
                        if any(covered(ranges, {r.tuple_id for r in combo}, size)
                               for combo in itertools.combinations(ranges, m)))
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

#: floats put the crossings of these values in an order that is not exact
SEVENTHS = np.array([[3, 7], [5, 2], [7, 1], [1, 4], [6, 6], [2, 7], [3, 2],
                     [6, 6], [0, 1], [0, 2]]) / 7


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
        # to n: identical to the float walk where it lists the same sets;
        # elsewhere every set is an exact k-set and the walk's are kept
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
        differ = 0
        for vals, k in inputs:
            got = [(s.members, tuple(s.witness.weights))
                   for s in enumerate_ksets_2d(Dataset(vals), k).sets]
            walk = sweep_ksets_2d(vals, k)
            if [m for m, _ in got] == [m for m, _ in walk]:
                assert got == walk
                continue
            differ += 1
            exact = rational_ksets_2d(vals, k)
            assert all(m in exact for m, _ in got)
            assert {m for m, _ in walk} <= {m for m, _ in got}
        assert differ < len(inputs) // 10

    @pytest.mark.parametrize("vals, k", [(MISORDERED, 23), (SEVENTHS, 6)],
                             ids=["misordered", "sevenths"])
    def test_near_ties_match_the_rational_oracle(self, vals, k):
        # floats misorder crossings of these i/7 inputs; the float walk
        # misses a set of MISORDERED that holds for one float step
        got = [s.members for s in enumerate_ksets_2d(Dataset(vals), k).sets]
        assert got == rational_ksets_2d(vals, k)

    def test_ratio_of_the_doubles(self):
        # the integer form against the difference of Fractions of floats,
        # on uniform, 3-decimal, i/7 and tied doubles and extreme exponents
        rng = np.random.default_rng(14)
        points = np.concatenate([
            rng.random((100, 2)), np.round(rng.random((100, 2)), 3),
            rng.integers(0, 8, (100, 2)) / 7,
            grid_with_duplicates(rng, 100, 2),
            [[0.0, 1.0], [1.0, 0.0], [5e-324, 2.0 ** -60], [1 - 2.0 ** -53, 0.5]]])
        for t, u in rng.integers(0, len(points), (4000, 2)).tolist():
            if points[t, 1] != points[u, 1]:
                expected = ((Fraction(points[u, 0]) - Fraction(points[t, 0]))
                            / (Fraction(points[t, 1]) - Fraction(points[u, 1])))
                assert sweep2d._ratio(points, t, u) == expected

    def test_floats_decide_away_from_near_ties(self, monkeypatch):
        calls, ratio = [], sweep2d._ratio

        def counting_ratio(*args):
            calls.append(args)
            return ratio(*args)

        monkeypatch.setattr(sweep2d, "_ratio", counting_ratio)
        rng = np.random.default_rng(58)
        # benchmark-sized uniform (n=250, k=10) and anti-correlated inputs
        for vals, k in [(rng.random((250, 2)), 10), (rng.random((60, 2)), 3),
                        (anticorrelated(rng, 250, 2), 10),
                        (anticorrelated(rng, 400, 2), 40)]:
            enumerate_ksets_2d(Dataset(vals), k)
        assert calls == []
        enumerate_ksets_2d(Dataset(MISORDERED), 23)
        assert calls

    def test_a_group_leaving_other_than_k_raises(self, monkeypatch):
        # ordered by floats alone, these crossings put 7 tuples in the top 6
        monkeypatch.setattr(sweep2d, "NEAR_TIE_ULPS", 0)
        with pytest.raises(RuntimeError, match="other than k"):
            enumerate_ksets_2d(Dataset(SEVENTHS), 6)

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
        # in between, so the cover {0, 5}, which leaves that gap out, has
        # rank-regret 3 there
        vals = np.array([[1, 5], [2, 4], [0, 2], [1, 5], [2, 4], [5, 1],
                         [1, 5]]) / 5
        ds = Dataset(vals)
        rep = rrr_2d(ds, 1)
        assert exact_rank_regret_2d(ds, rep.members) <= 2

    def test_sliver_without_a_float_angle_is_covered(self):
        # tuples 5, 7 and 2 cross near atan(2): the range of 5 ends one
        # double before that of 2 begins, and in exact arithmetic tuple 7
        # alone holds the top rank between the two crossings, where no
        # double lies; {2, 5} has rank-regret 3 there
        vals = np.array([[2, 1], [0, 5], [1, 5], [2, 0], [0, 2], [5, 3],
                         [3, 3], [3, 4], [1, 3], [2, 0], [1, 1], [5, 3],
                         [3, 4], [2, 1]]) / 5
        rep = rrr_2d(Dataset(vals), 1)
        assert rep.members >= {2, 5, 7}
        assert rational_rank_regret_2d(vals, rep.members) <= 2

    def test_2k_bound_against_the_rational_oracle(self):
        # values i/q on small grids, where crossings and axis ties coincide
        # exactly and floats cannot order them
        rng = np.random.default_rng(61)
        for _ in range(600):
            q = int(rng.choice([3, 4, 5, 7]))
            n = int(rng.integers(2, 15))
            k = int(rng.integers(1, min(3, n) + 1))
            vals = rng.integers(0, q + 1, size=(n, 2)) / q
            rep = rrr_2d(Dataset(vals), k)
            assert rational_rank_regret_2d(vals, rep.members) <= 2 * k

    def test_size_never_exceeds_the_exact_optimum(self):
        # an optimal representative hits the exact top k of every open
        # interval between crossings and of every point: the axes and
        # each crossing, where ties resolve by id
        rng = np.random.default_rng(62)
        for _ in range(300):
            q = int(rng.choice([3, 4, 5, 7]))
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(3, n) + 1))
            vals = rng.integers(0, q + 1, size=(n, 2)) / q
            sets = rational_ksets_2d(vals, k) + rational_point_topk_2d(vals, k)
            assert rrr_2d(Dataset(vals), k).size <= exhaustive_min_hitting_size(sets)


#: five tuples on the line x1 + x2 = 1, all tied at pi/4, where the id
#: tie-break ranks tuple 0 first; tuples 3 and 4 hold the top rank on
#: either side
PENCIL = np.array([[3, 1], [2, 2], [1, 3], [4, 0], [0, 4]]) / 4


def pencils(rng, draws):
    """Tie-heavy inputs: 3-6 distinct points i/q on one line x1 + x2 = c
    and 0-5 more grid rows, shuffled."""
    for _ in range(draws):
        q = int(rng.choice([4, 8]))
        c = int(rng.integers(q // 2, q + 1))
        x = rng.choice(c + 1, size=min(int(rng.integers(3, 7)), c + 1),
                       replace=False)
        extra = rng.integers(0, q + 1, size=(int(rng.integers(0, 6)), 2))
        yield rng.permutation(np.concatenate([np.column_stack([x, c - x]),
                                              extra])) / q


class TestCrossingPoints:
    """At an exact crossing shared by several tuples ids decide the order,
    so a tuple can rank within k there alone, or far behind a member whose
    range ends there."""

    def test_pencil(self):
        rep = rrr_2d(Dataset(PENCIL), 1)
        assert rational_rank_regret_2d(PENCIL, rep.members) <= 2
        assert rep.members == {0, 3, 4}
        # tuple 0 alone ranks first at pi/4, where 3 and 4 rank 4th and 5th
        assert exact_rank_regret_2d(Dataset(PENCIL), {3, 4}) == 4
        ranges = {r.tuple_id: r for r in find_ranges(Dataset(PENCIL), 1)}
        assert (ranges[0].first, ranges[0].last) == (2, 2)
        assert ranges[0].begin == ranges[0].end == ranges[3].end

    @pytest.mark.parametrize("vals", [
        np.array([[0, 3], [2, 3], [2, 3], [3, 3], [0, 2], [1, 2], [1, 3], [1, 2],
                  [3, 1], [1, 0], [1, 3], [1, 0], [1, 0]]) / 3,
        np.array([[2, 0], [0, 3], [1, 1], [5, 2], [2, 1], [1, 3], [1, 3],
                  [2, 3]]) / 5], ids=["thirds", "fifths"])
    def test_no_larger_than_the_exact_optimum(self, vals):
        sets = rational_ksets_2d(vals, 1) + rational_point_topk_2d(vals, 1)
        rep = rrr_2d(Dataset(vals), 1)
        assert rep.size <= exhaustive_min_hitting_size(sets)
        assert rational_rank_regret_2d(vals, rep.members) <= 2

    def test_pencil_fuzz(self):
        for vals in pencils(np.random.default_rng(13), 300):
            ds = Dataset(vals)
            for k in range(1, min(3, len(vals)) + 1):
                rep = rrr_2d(ds, k)
                regret = rational_rank_regret_2d(vals, rep.members)
                assert regret <= 2 * k
                assert exact_rank_regret_2d(ds, rep.members) == regret
                sets = rational_ksets_2d(vals, k) + rational_point_topk_2d(vals, k)
                assert rep.size <= exhaustive_min_hitting_size(sets)


def some_members(rng, n, most=6):
    return rng.choice(n, size=int(rng.integers(1, min(n, most) + 1)),
                      replace=False)


def on_an_edge(rng, count):
    """``count`` points j/4 of the way along a segment between two points
    of the grid i/q, j = 0..4, rounded to 3 decimals: exactly collinear
    for q = 8, as all are multiples of 1/32, and collinear but for the
    rounding of decimals to doubles for q = 10."""
    q = rng.choice([8, 10])
    a, b = rng.integers(0, q + 1, size=(2, 2)) / q
    return np.round(a + rng.integers(0, 5, size=(count, 1)) / 4 * (b - a), 3)


def grids(rng):
    """values i/q, q = 2..7"""
    n, q = int(rng.integers(2, 30)), int(rng.integers(2, 8))
    return rng.integers(0, q + 1, size=(n, 2)) / q, None


def duplicated_members(rng):
    """members copied to other rows, one copy at a smaller id"""
    n = int(rng.integers(3, 30))
    values = (rng.integers(0, 6, size=(n, 2)) / 5 if rng.random() < 0.5
              else rng.random((n, 2)))
    members = some_members(rng, n)
    copies = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
    values[copies] = values[rng.choice(members, size=copies.size)]
    top = int(members.max())
    values[rng.integers(0, top) if top else -1] = values[top]
    return values, members


def collinear_members(rng):
    """members on one segment, rows of the grid i/16 around them"""
    n = int(rng.integers(3, 30))
    values = rng.integers(0, 17, size=(n, 2)) / 16
    members = some_members(rng, n)
    values[members] = on_an_edge(rng, members.size)
    return values, members


def rows_on_an_edge(rng):
    """members and rows on one segment"""
    n = int(rng.integers(4, 30))
    values = rng.integers(0, 17, size=(n, 2)) / 16
    rows = rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False)
    values[rows] = on_an_edge(rng, rows.size)
    return values, rows[:int(rng.integers(1, 4))]


def rows_on_a_line(rng):
    """every row on the segment from (1, 0) to (0, s), s = 1/2, 1 or 2,
    scaled into the unit square, up to 2-decimal rounding: every pair of
    rows crosses within a few ulps of one angle"""
    n = int(rng.integers(2, 30))
    x, s = rng.random(n), rng.choice([0.5, 1.0, 2.0])
    return np.round(np.column_stack((x, s * (1 - x))) / max(1.0, s), 2), None


def shared_attributes(rng):
    """rows equal to a member in one attribute, so that their ends lie
    exactly on an axis"""
    n = int(rng.integers(3, 30))
    values = np.round(rng.random((n, 2)), int(rng.integers(1, 4)))
    members = some_members(rng, n)
    rows = rng.choice(n, size=n // 2, replace=False)
    axis = rng.integers(0, 2, size=rows.size)
    values[rows, axis] = values[rng.choice(members, size=rows.size), axis]
    return values, members


def zeros_on_the_axes(rng):
    """values i/5 or uniform, with a third of them 0"""
    n = int(rng.integers(2, 30))
    values = (rng.integers(0, 6, size=(n, 2)) / 5 if rng.random() < 0.5
              else rng.random((n, 2)))
    values[rng.random((n, 2)) < 0.3] = 0.0
    return values, None


TIE_FAMILIES = [grids, duplicated_members, collinear_members, rows_on_an_edge,
                rows_on_a_line, shared_attributes, zeros_on_the_axes]


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
        # values i/5, where equal crossings get float angles an ulp apart
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(3, 41))
            vals = rng.integers(0, 6, size=(n, 2)) / 5
            subset = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                replace=False)
            assert exact_rank_regret_2d(Dataset(vals), subset) == \
                rational_rank_regret_2d(vals, subset)

    @pytest.mark.parametrize("family", TIE_FAMILIES,
                             ids=[f.__name__ for f in TIE_FAMILIES])
    def test_tie_families_match_rational_oracle(self, family):
        rng = np.random.default_rng(TIE_FAMILIES.index(family) + 90)
        for _ in range(100):
            values, members = family(rng)
            if members is None:
                members = some_members(rng, len(values))
            assert exact_rank_regret_2d(Dataset(values), members) == \
                rational_rank_regret_2d(values, members)

    # every row on x1 + x2 = 1 up to the rounding of decimals to doubles,
    # so that the ends of all the rows' intervals lie within a few ulps of
    # pi/4 and only their exact ratios order them
    @pytest.mark.parametrize("vals, subset, regret", [
        ([[0.94, 0.06], [0.1, 0.9], [0.35, 0.65]], [0, 1], 1),
        ([[0.2, 0.8], [0.2, 0.8], [0.6, 0.4], [0.7, 0.3], [0.5, 0.5]], [1, 3], 4),
        ([[0.5, 0.5], [0.4, 0.6], [1.0, 0.0], [0.9, 0.1]], [1, 2, 3], 1),
        ([[0.13, 0.87], [0.1, 0.9], [0.35, 0.65], [0.7, 0.3]], [0, 2], 2)])
    def test_ends_within_ulps_are_ordered_exactly(self, vals, subset, regret):
        assert rational_rank_regret_2d(np.array(vals), subset) == regret
        assert exact_rank_regret_2d(Dataset(vals), subset) == regret

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
