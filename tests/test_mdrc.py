import json

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
from rankregret.errors import KOutOfRange

from conftest import anticorrelated, grid_with_duplicates, random_dataset
from oracles import recursive_partition

HALF_PI = np.pi / 2


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

    def test_round_robin_split_dimension(self):
        rect = HyperRectangle(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), level=4)
        assert rect.split_dim == 1


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

    def test_depth_cap_fallback(self):
        # two axis points never share a top-1 on boxes straddling pi/4,
        # so the recursion dives until the cap closes the box
        ds = Dataset([[1.0, 0.0], [0.0, 1.0]])
        rep = mdrc(ds, 1, depth_cap=10)
        assert rep.members == {0, 1}
        assert not rep.bound_guaranteed
        leaves, _ = partition_function_space(ds, 1, depth_cap=10)
        assert any(not leaf.guaranteed for leaf in leaves)
        assert any(leaf.box.level == 10 for leaf in leaves)

    def test_depth_capped_leaves_logged_once_and_counted(self, caplog):
        ds = Dataset(grid_with_duplicates(np.random.default_rng(0), 56, 5))
        leaves, _ = partition_function_space(ds, 5, depth_cap=12)
        caplog.clear()
        with caplog.at_level("WARNING", logger="rankregret.mdrc"):
            rep = mdrc(ds, 5, depth_cap=12)
        assert len(caplog.records) == 1
        capped = sum(not leaf.guaranteed for leaf in leaves)
        assert capped > 1
        assert rep.params["capped_leaves"] == capped
        assert f"in {capped} leaves" in caplog.records[0].getMessage()
        assert not rep.bound_guaranteed


class TestPartition:
    def test_leaves_tile_the_angle_box(self):
        rng = np.random.default_rng(61)
        for d in (2, 3):
            ds = random_dataset(rng, 60, d)
            leaves, _ = partition_function_space(ds, 4)
            volumes = [
                np.prod([hi - lo for lo, hi in leaf.box.ranges])
                for leaf in leaves
            ]
            assert sum(volumes) == pytest.approx(HALF_PI ** (d - 1), abs=1e-12)
            for _ in range(100):
                point = rng.random(d - 1) * HALF_PI
                holders = [
                    leaf for leaf in leaves
                    if all(lo <= x <= hi
                           for x, (lo, hi) in zip(point, leaf.box.ranges))
                ]
                assert len(holders) == 1

    def test_assignment_is_in_every_corner_topk(self):
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, 80, 3)
        k = 5
        leaves, _ = partition_function_space(ds, k)
        for leaf in leaves:
            assert leaf.guaranteed
            for corner in corners(leaf.box):
                assert leaf.assigned in top_k(ds, angles_to_weights(corner), k)

    def test_rank_bound_inside_every_leaf(self):
        rng = np.random.default_rng(63)
        ds = random_dataset(rng, 80, 3)
        k = 5
        leaves, _ = partition_function_space(ds, k)
        for leaf in leaves:
            lows = np.array([lo for lo, _ in leaf.box.ranges])
            highs = np.array([hi for _, hi in leaf.box.ranges])
            for _ in range(100):
                angles = lows + rng.random(ds.d - 1) * (highs - lows)
                f = angles_to_weights(angles)
                assert ranks(ds, f, [leaf.assigned])[0] <= ds.d * k

    def test_tree_shape(self):
        rng = np.random.default_rng(64)
        ds = random_dataset(rng, 50, 3)
        leaves, tree = partition_function_space(ds, 3)

        def walk(node):
            if "children" in node:
                assert len(node["children"]) == 2
                assert "assigned" not in node
                return sum(walk(child) for child in node["children"])
            assert isinstance(node["assigned"], int)
            return 1

        assert walk(tree) == len(leaves)

    def test_tree_is_json_serializable(self, fig1):
        _, tree = partition_function_space(fig1, 2)
        parsed = json.loads(json.dumps(tree))
        assert parsed["ranges"] == [[0.0, HALF_PI]]


class TestSameAsDepthFirst:
    """The level-by-level partition against a depth-first recursion that
    scores one corner at a time: same leaves, same order, same tree."""

    @staticmethod
    def check(values, k, depth_cap=None):
        leaves, tree = partition_function_space(Dataset(values), k, depth_cap)
        expected_leaves, expected_tree = recursive_partition(values, k, depth_cap)
        assert [(leaf.box.ranges, leaf.box.level, leaf.assigned, leaf.guaranteed)
                for leaf in leaves] == expected_leaves
        assert json.dumps(tree) == json.dumps(expected_tree)
        return leaves

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
                           int(rng.integers(2, 6)), depth_cap=6 * (d - 1))

    def test_depth_capped_run(self):
        leaves = self.check(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, depth_cap=10)
        assert not all(leaf.guaranteed for leaf in leaves)
        leaves = self.check(grid_with_duplicates(np.random.default_rng(71), 60, 4),
                            4, depth_cap=6)
        assert not all(leaf.guaranteed for leaf in leaves)

    def test_corners_counted(self, fig1):
        rep = mdrc(fig1, 2)
        leaves, _ = partition_function_space(fig1, 2)
        distinct = {c for leaf in leaves for c in corners(leaf.box)}
        # every corner of a leaf was scored; 2-D leaves share their ends
        assert rep.params["corners"] == len(distinct) == len(leaves) + 1
