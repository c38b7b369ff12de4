import importlib

import numpy as np
import pytest

from rankregret import (
    Dataset,
    HyperRectangle,
    angles_to_weights,
    corners,
    estimate_rank_regret,
    exact_rank_regret_2d,
    mdrc,
    partition_function_space,
    ranks,
    top_k,
)
from rankregret.core import NUMERIC_TOL, angle_weights
from rankregret.errors import KOutOfRange

from conftest import anticorrelated, grid_with_duplicates, random_dataset
from oracles import recursive_partition

HALF_PI = np.pi / 2
# the package re-exports the function mdrc under the module's name
mdrc_module = importlib.import_module("rankregret.mdrc")
core_module = importlib.import_module("rankregret.core")


def tied_at(angles, n, rng):
    """n rows that score equally under the function at ``angles``, spread
    around the centre of [0, 1]^d in random directions on its level set."""
    w = angles_to_weights(angles).weights
    plane = np.linalg.svd(w[None, :])[2][1:]  # orthonormal, perpendicular to w
    u = rng.normal(size=(n, w.size - 1))
    return 0.5 + 0.3 * (u / np.linalg.norm(u, axis=1, keepdims=True)) @ plane


class TestCorners:
    def test_1d_interval(self):
        rect = HyperRectangle(((0.0, HALF_PI),))
        assert corners(rect) == [(0.0,), (HALF_PI,)]

    def test_3d_root(self):
        rect = HyperRectangle(((0.0, HALF_PI), (0.0, HALF_PI)))
        assert corners(rect) == [
            (0.0, 0.0), (0.0, HALF_PI), (HALF_PI, 0.0), (HALF_PI, HALF_PI)]

    def test_level1_left_child(self):
        # after one split of the first angle: ranges [0, pi/4] x [0, pi/2]
        rect = HyperRectangle(((0.0, HALF_PI / 2), (0.0, HALF_PI)), level=1)
        got = corners(rect)
        assert all(c[0] in (0.0, HALF_PI / 2) for c in got)
        assert len(got) == 4

    def test_round_robin_split_dimension(self, monkeypatch):
        # a leaf at level L has been halved along angle i once for each
        # j < L with j % 3 == i
        monkeypatch.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", 2)
        leaves = partition_function_space(
            random_dataset(np.random.default_rng(9), 40, 4), 1)
        for leaf in leaves:
            halvings = [len(range(i, leaf.box.level, 3)) for i in range(3)]
            assert [hi - lo for lo, hi in leaf.box.ranges] == pytest.approx(
                [HALF_PI / 2 ** h for h in halvings])
        assert max(leaf.box.level for leaf in leaves) == 6


class TestMdrc:
    def test_fig1(self, fig1):
        rep = mdrc(fig1, 2)
        assert rep.algorithm == "mdrc"
        assert rep.bound_guaranteed
        assert exact_rank_regret_2d(fig1, rep.members) <= 2
        assert rep.size == 2  # matches the optimal 2-D output size here

    def test_k_equals_n(self, fig1):
        rep = mdrc(fig1, 7)
        assert rep.size == 1

    def test_k_out_of_range(self, fig1):
        with pytest.raises(KOutOfRange):
            mdrc(fig1, 0)

    def test_estimated_regret_within_dk_3d(self):
        rng = np.random.default_rng(60)
        ds = random_dataset(rng, 1000, 3)
        k = 10
        rep = mdrc(ds, k)
        est = estimate_rank_regret(ds, rep.members, 10_000, rng)
        assert est <= 3 * k

    def test_depth_cap_fallback(self, monkeypatch):
        # two axis points never share a top-1 on boxes straddling pi/4,
        # so the recursion dives until the cap closes the box
        monkeypatch.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", 10)
        ds = Dataset([[1.0, 0.0], [0.0, 1.0]])
        rep = mdrc(ds, 1)
        assert rep.members == {0, 1}
        assert not rep.bound_guaranteed
        leaves = partition_function_space(ds, 1)
        assert any(not leaf.guaranteed for leaf in leaves)
        assert any(leaf.box.level == 10 for leaf in leaves)

    def test_cap_in_force_reported(self, fig1, monkeypatch):
        assert mdrc(fig1, 2).params["depth_cap"] == 48
        rep = mdrc(Dataset(np.random.default_rng(0).random((30, 4))), 6)
        assert rep.params["depth_cap"] == 144
        assert rep.params["stopped"] == "complete"
        monkeypatch.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", 3)
        assert mdrc(fig1, 2).params["depth_cap"] == 3

    def test_depth_capped_leaves_logged_once_and_counted(self, caplog,
                                                         monkeypatch):
        monkeypatch.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", 3)
        ds = Dataset(grid_with_duplicates(np.random.default_rng(0), 56, 5))
        leaves = partition_function_space(ds, 5)
        caplog.clear()
        with caplog.at_level("WARNING", logger="rankregret.mdrc"):
            rep = mdrc(ds, 5)
        assert len(caplog.records) == 1
        capped = sum(not leaf.guaranteed for leaf in leaves)
        assert capped > 1
        assert rep.params["capped_leaves"] == capped
        assert f"in {capped} leaves" in caplog.records[0].getMessage()
        assert not rep.bound_guaranteed
        assert rep.params["stopped"] == "depth_cap"


class TestBoxBudget:
    @staticmethod
    def inputs(monkeypatch):
        """(dataset, k) pairs, each with the depth cap per angle it runs at
        set in ``mdrc``."""
        rng = np.random.default_rng(72)
        for ds, k, cap_per_dim in (
                (random_dataset(rng, 80, 3), 4, 48),
                (Dataset(anticorrelated(rng, 120, 4)), 3, 48),
                (Dataset(grid_with_duplicates(rng, 60, 3)), 3, 5),
                (Dataset(rng.random((50, 3))), 1, 8),
                (Dataset(anticorrelated(rng, 400, 3)), 4, 48)):
            monkeypatch.undo()
            monkeypatch.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", cap_per_dim)
            yield ds, k

    def test_a_budget_the_run_fits_changes_nothing(self, monkeypatch):
        for ds, k in self.inputs(monkeypatch):
            free = mdrc(ds, k)
            free_leaves = partition_function_space(ds, k)
            assert free.params["stopped"] != "budget"
            need = free.params["leaves"]
            for budget in (need, need + 1, 10 * need):
                monkeypatch.setattr(mdrc_module, "MAX_BOXES", budget)
                rep = mdrc(ds, k)
                assert rep.members == free.members
                assert rep.bound_guaranteed == free.bound_guaranteed
                assert rep.params == {**free.params, "max_boxes": budget}
                assert partition_function_space(ds, k) == free_leaves

    def test_a_tight_budget_closes_the_open_boxes(self, caplog, monkeypatch):
        rng = np.random.default_rng(73)
        for ds, k in self.inputs(monkeypatch):
            need = mdrc(ds, k).params["leaves"]
            for budget in (1, 2, need // 3, need - 1):
                monkeypatch.setattr(mdrc_module, "MAX_BOXES", budget)
                leaves = partition_function_space(ds, k)
                caplog.clear()
                with caplog.at_level("WARNING", logger="rankregret.mdrc"):
                    rep = mdrc(ds, k)
                assert rep.params["stopped"] == "budget"
                assert not rep.bound_guaranteed
                assert len(leaves) == rep.params["leaves"] <= budget
                capped = [leaf for leaf in leaves if not leaf.guaranteed]
                assert len(capped) == rep.params["capped_leaves"] > 0
                assert rep.members == {leaf.assigned for leaf in leaves}
                for leaf in capped:
                    centroid = [(lo + hi) / 2.0 for lo, hi in leaf.box.ranges]
                    assert leaf.assigned == min(
                        top_k(ds, angles_to_weights(centroid), 1))
                assert_tiles(leaves, ds.d, rng)
                assert len(caplog.records) == 1
                assert f"box budget {budget}" in caplog.records[0].getMessage()


def assert_depth_first(leaves, dims):
    """The leaves are those of a full binary tree, listed depth first with
    the low half first: the leaf at ``offset`` (in units of 2^-top, top
    the deepest level) and level L is aligned to 2^-L, and its box is the
    one the L bits of offset / 2^(top-L) reach, bit j halving angle
    j % dims at its float midpoint."""
    top = max(leaf.box.level for leaf in leaves)
    offset = 0
    for leaf in leaves:
        level = leaf.box.level
        unit = 1 << (top - level)
        assert offset % unit == 0
        path = offset // unit
        lo, hi = [0.0] * dims, [HALF_PI] * dims
        for j in range(level):
            i = j % dims
            mid = (lo[i] + hi[i]) / 2.0
            if path >> (level - 1 - j) & 1:
                lo[i] = mid
            else:
                hi[i] = mid
        assert leaf.box.ranges == tuple(zip(lo, hi))
        offset += unit
    assert offset == 1 << top


def assert_tiles(leaves, d, rng):
    """The leaf boxes fill the angle box and overlap only on faces."""
    volumes = [np.prod([hi - lo for lo, hi in leaf.box.ranges])
               for leaf in leaves]
    assert sum(volumes) == pytest.approx(HALF_PI ** (d - 1), abs=1e-12)
    for _ in range(100):
        point = rng.random(d - 1) * HALF_PI
        holders = [
            leaf for leaf in leaves
            if all(lo <= x <= hi for x, (lo, hi) in zip(point, leaf.box.ranges))
        ]
        assert len(holders) == 1


class TestPartition:
    def test_leaves_tile_the_angle_box(self):
        rng = np.random.default_rng(61)
        for d in (2, 3):
            ds = random_dataset(rng, 60, d)
            leaves = partition_function_space(ds, 4)
            assert_tiles(leaves, d, rng)

    def test_assignment_is_in_every_corner_topk(self):
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, 80, 3)
        k = 5
        leaves = partition_function_space(ds, k)
        for leaf in leaves:
            assert leaf.guaranteed
            for corner in corners(leaf.box):
                assert leaf.assigned in top_k(ds, angles_to_weights(corner), k)

    def test_rank_bound_inside_every_leaf(self):
        rng = np.random.default_rng(63)
        ds = random_dataset(rng, 80, 3)
        k = 5
        leaves = partition_function_space(ds, k)
        for leaf in leaves:
            lows = np.array([lo for lo, _ in leaf.box.ranges])
            highs = np.array([hi for _, hi in leaf.box.ranges])
            for _ in range(100):
                angles = lows + rng.random(ds.d - 1) * (highs - lows)
                f = angles_to_weights(angles)
                assert ranks(ds, f, [leaf.assigned])[0] <= ds.d * k

    def test_tree_shape(self):
        rng = np.random.default_rng(64)
        leaves = partition_function_space(random_dataset(rng, 50, 3), 3)
        assert all(isinstance(leaf.assigned, int) for leaf in leaves)
        assert_depth_first(leaves, 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_leaves_of_a_run_at_the_depth_cap_are_depth_first(self, d):
        # 2(d-1) rows tie under one function, and around it their top-(d-1)
        # sets share no row: the boxes holding it split to the cap
        ds = Dataset(tied_at([0.6, 0.9, 0.7][:d - 1], 2 * (d - 1),
                             np.random.default_rng(0)))
        leaves = partition_function_space(ds, d - 1)
        assert mdrc(ds, d - 1).params["stopped"] == "depth_cap"
        assert max(leaf.box.level for leaf in leaves) == 48 * (d - 1)
        assert_depth_first(leaves, d - 1)


class TestSameAsDepthFirst:
    """The level-by-level partition against a depth-first recursion that
    scores one corner at a time: same leaves in the same order, and
    mdrc's members and counters are those of the recursion's leaves."""

    @staticmethod
    def check(values, k, cap_per_dim=48):
        values = np.asarray(values, dtype=np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdrc_module, "DEPTH_CAP_PER_DIM", cap_per_dim)
            leaves = partition_function_space(Dataset(values), k)
            rep = mdrc(Dataset(values), k)
        expected_leaves, expected_corners = recursive_partition(
            values, k, cap_per_dim * (values.shape[1] - 1))
        assert [(leaf.box.ranges, leaf.box.level, leaf.assigned, leaf.guaranteed)
                for leaf in leaves] == expected_leaves
        assert rep.params["depth_cap"] == cap_per_dim * (values.shape[1] - 1)
        capped = sum(not guaranteed for *_, guaranteed in expected_leaves)
        assert rep.members == {assigned for _, _, assigned, _ in expected_leaves}
        assert rep.params["leaves"] == len(expected_leaves)
        assert rep.params["corners"] == expected_corners
        assert rep.params["capped_leaves"] == capped
        assert rep.bound_guaranteed == (capped == 0)
        return leaves, rep

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_uniform_and_anticorrelated(self, d):
        rng = np.random.default_rng(65 + d)
        for make in (lambda g, n, dim: g.random((n, dim)), anticorrelated):
            n = int(rng.integers(30, 150))
            self.check(make(rng, n, d), int(rng.integers(d, 9)))

    def test_grid_data(self):
        # exact ties put corners on top-k boundaries, so boxes along them
        # split to the cap; a low cap keeps the recursion small
        rng = np.random.default_rng(70)
        for d in (2, 3):
            for _ in range(4):
                n = int(rng.integers(20, 100))
                self.check(grid_with_duplicates(rng, n, d),
                           int(rng.integers(2, 6)), cap_per_dim=6)

    def test_depth_capped_run(self):
        leaves, _ = self.check(np.array([[1.0, 0.0], [0.0, 1.0]]), 1,
                               cap_per_dim=10)
        assert not all(leaf.guaranteed for leaf in leaves)
        leaves, _ = self.check(
            grid_with_duplicates(np.random.default_rng(71), 60, 4), 4,
            cap_per_dim=2)
        assert not all(leaf.guaranteed for leaf in leaves)

    @pytest.mark.parametrize("d, k", [(3, 1), (4, 2)])
    def test_capped_small_k_uniform(self, d, k):
        # with k <= d-2, uniform data without ties still has curves where
        # the top-k sets around share no member; the boxes on them are
        # split until the cap closes them
        leaves, _ = self.check(np.random.default_rng(0).random((50, d)), k,
                               cap_per_dim=12 // (d - 1))
        assert not all(leaf.guaranteed for leaf in leaves)

    @pytest.mark.parametrize("values", [
        [[1.0, 0.0], [0.0, 1.0]],  # the top-1 boundary at pi/4
        [[0.001, 0.999999], [0.0, 1.0]],  # near pi/2
        [[1.0, 0.0], [0.999999, 0.001]],  # near 0
    ])
    def test_midpoints_inside_their_boxes_at_the_default_cap(self, values):
        # the boxes on the top-1 boundary split to the cap, and every
        # float midpoint stays strictly between its box's ends
        leaves, _ = self.check(values, 1)
        assert max(leaf.box.level for leaf in leaves) == 48
        assert all(lo < hi for leaf in leaves for lo, hi in leaf.box.ranges)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_shortlists(self, d):
        # n well above the shortlist length: most face corners are scored
        # over the union of their parents' shortlists alone
        rng = np.random.default_rng(75 + d)
        for make in (lambda g, n, dim: g.random((n, dim)), anticorrelated,
                     lambda g, n, dim: np.round(anticorrelated(g, n, dim), 2)):
            n = int(rng.integers(200, 1001))
            _, rep = self.check(make(rng, n, d), int(rng.integers(d + 1, 10)))
            assert rep.params["full_corners"] < rep.params["corners"]

    def test_shortlists_of_k_plus_one_rows(self):
        # k + 1 above SHORTLIST: the shortlists hold k + 1 rows
        rng = np.random.default_rng(78)
        values = np.round(anticorrelated(rng, 700, 5), 2)
        k = mdrc_module.SHORTLIST + 8
        _, rep = self.check(values, k)
        assert rep.params["full_corners"] < rep.params["corners"]

    def test_shortlists_on_tied_data(self, monkeypatch):
        # exact ties make corners whose k-th and (k+1)-th scores are
        # equal, whose sets only top_k itself can settle
        calls = []

        def counted(dataset, function, k):
            calls.append(k)
            return top_k(dataset, function, k)

        monkeypatch.setattr(core_module, "top_k", counted)
        rng = np.random.default_rng(79)
        for d in (3, 4):
            _, rep = self.check(grid_with_duplicates(rng, 400, d), 4,
                                cap_per_dim=6)
            assert rep.params["full_corners"] < rep.params["corners"]
        assert calls

    def test_shortlists_in_a_depth_capped_run(self):
        leaves, rep = self.check(
            grid_with_duplicates(np.random.default_rng(80), 300, 3), 3,
            cap_per_dim=3)
        assert rep.params["stopped"] == "depth_cap"
        assert not all(leaf.guaranteed for leaf in leaves)
        assert rep.params["full_corners"] < rep.params["corners"]

    def test_no_shortlists_at_small_n(self, fig1):
        # n at most the shortlist length, max(SHORTLIST, k + 1): every
        # corner is scored over all rows
        rng = np.random.default_rng(81)
        for values, k in ((fig1.values, 2), (rng.random((16, 3)), 3),
                          (rng.random((40, 3)), 39)):
            _, rep = self.check(values, k)
            assert rep.params["full_corners"] == rep.params["corners"]

    def test_corners_counted(self, fig1):
        rep = mdrc(fig1, 2)
        leaves = partition_function_space(fig1, 2)
        distinct = {c for leaf in leaves for c in corners(leaf.box)}
        # every corner of a leaf was scored; 2-D leaves share their ends
        assert rep.params["corners"] == len(distinct) == len(leaves) + 1


class TestArcBound:
    """mdrc._arc_bound against the computed scores it bounds: a face
    corner's score is at most the bound of its two parents' scores, for
    every row, every float product and every box."""

    @staticmethod
    def boxes(rng, dims, count):
        """(lo, hi, i) of random boxes at depths 0-40, halved on angle
        depth % dims as mdrc does, i the angle of the next split; one box
        in four keeps the low half, and one in four the high half, every
        time, so that it touches the faces at angle 0 or pi/2."""
        for b in range(count):
            depth = int(rng.integers(0, 41))
            lo, hi = np.zeros(dims), np.full(dims, HALF_PI)
            for level in range(depth):
                j = level % dims
                mid = (lo[j] + hi[j]) / 2.0
                if b % 4 == 0 or (b % 4 > 1 and rng.random() < 0.5):
                    hi[j] = mid
                else:
                    lo[j] = mid
            yield lo, hi, depth % dims

    @staticmethod
    def products(values, weights):
        """Scores of every row at each weight vector, (n, 3), by three
        float products that sum in different orders."""
        yield values @ weights.T
        yield np.stack([values @ w for w in weights], axis=1)
        yield np.stack([(values * w).sum(axis=1) for w in weights], axis=1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_face_corner_scores_are_bounded(self, d):
        rng = np.random.default_rng(90 + d)
        values = rng.random((300, d))
        values[rng.random(values.shape) < 0.2] = -NUMERIC_TOL
        values[rng.random(values.shape) < 0.2] = 1 + NUMERIC_TOL
        values[:2] = [[-NUMERIC_TOL] * d, [1 + NUMERIC_TOL] * d]
        values[2:2 + d] = np.where(np.eye(d, dtype=bool), 1 + NUMERIC_TOL,
                                   -NUMERIC_TOL)
        dataset = Dataset(values)  # the range the proof takes
        for lo, hi, i in self.boxes(rng, d - 1, 150):
            corner = np.where(rng.random(d - 1) < 0.5, lo, hi)
            a, b, f = corner.copy(), corner.copy(), corner.copy()
            a[i], b[i], f[i] = lo[i], hi[i], (lo[i] + hi[i]) / 2.0
            weights = angle_weights(np.array([a, b, f]))
            arc = weights[2, i:].sum()
            products = list(self.products(dataset.values, weights))
            for pa, pb, pf in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                s_a, s_b, s_f = (products[pa][:, 0], products[pb][:, 1],
                                 products[pf][:, 2])
                bound = mdrc_module._arc_bound(s_a + s_b, (hi[i] - lo[i]) / 2.0,
                                               arc, d)
                assert np.all(s_f <= bound)
