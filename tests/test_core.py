import numpy as np
import pytest

import rankregret.core as core

from rankregret import (
    Dataset,
    LinearFunction,
    angles_to_weights,
    exchange_angle,
    normalize,
    rank_list,
    ranks,
    score,
    top_k,
    top_k_ids,
    top_k_many,
    weights_to_angles,
)
from rankregret.errors import (
    AngleOutOfRange,
    ConstantAttribute,
    DimensionMismatch,
    DimensionNot2D,
    KOutOfRange,
    NonFiniteValue,
)

from conftest import (
    FIG1_VALUES,
    T,
    anticorrelated,
    grid_with_duplicates,
    random_dataset,
    tids,
)
from oracles import rank_by_definition

HALF_PI = np.pi / 2


class TestNormalize:
    def test_higher_preferred_endpoints(self):
        ds = normalize([[10.0], [20.0]], ["higher"])
        assert ds.values[:, 0].tolist() == [0.0, 1.0]

    def test_lower_preferred_flips(self):
        ds = normalize([[10.0], [20.0]], ["lower"])
        assert ds.values[:, 0].tolist() == [1.0, 0.0]

    def test_affine_map(self):
        ds = normalize([[1.0], [2.0], [3.0]], ["higher"])
        assert ds.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantAttribute):
            normalize([[1.0, 5.0], [2.0, 5.0]], ["higher", "higher"])

    def test_constant_column_named(self):
        with pytest.raises(ConstantAttribute, match="'flat'"):
            normalize([[1.0, 5.0], [2.0, 5.0]], ["higher", "higher"],
                      names=["good", "flat"])
        with pytest.raises(ConstantAttribute, match="column 1 "):
            normalize([[1.0, 5.0], [2.0, 5.0]], ["higher", "higher"])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            normalize([[1.0], [np.nan]], ["higher"])

    def test_direction_count_checked(self):
        with pytest.raises(DimensionMismatch):
            normalize([[1.0, 2.0], [3.0, 4.0]], ["higher"])

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(scale=50.0, size=(40, 3))
        ds = normalize(raw, ["higher", "lower", "higher"])
        assert ds.values.min() >= 0.0 and ds.values.max() <= 1.0


class TestScore:
    def test_equal_weight_sum(self):
        assert score(FIG1_VALUES[T["t1"]], LinearFunction([1, 1])) == pytest.approx(1.08)

    def test_axis_projection(self):
        assert score(FIG1_VALUES[T["t1"]], LinearFunction([1, 0])) == pytest.approx(0.8)

    def test_second_tuple(self):
        assert score(FIG1_VALUES[T["t7"]], LinearFunction([1, 1])) == pytest.approx(1.34)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score(FIG1_VALUES[0], LinearFunction([1, 1, 1]))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LinearFunction([1, -1])
        with pytest.raises(ValueError):
            LinearFunction([0, 0])


class TestRankList:
    def test_equal_weights_order(self, fig1):
        got = rank_list(fig1, LinearFunction([1, 1])).order
        want = [T[x] for x in ("t7", "t3", "t5", "t1", "t2", "t6", "t4")]
        assert got.tolist() == want

    def test_first_axis_order(self, fig1):
        got = rank_list(fig1, LinearFunction([1, 0])).order
        want = [T[x] for x in ("t7", "t1", "t3", "t2", "t5", "t4", "t6")]
        assert got.tolist() == want

    def test_single_tuple(self):
        ds = Dataset([[0.3, 0.7]])
        assert rank_list(ds, LinearFunction([2, 1])).order.tolist() == [0]

    def test_tie_broken_by_id(self):
        ds = Dataset([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
        assert rank_list(ds, LinearFunction([1, 1])).order.tolist() == [0, 1, 2]

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ds = random_dataset(rng, int(rng.integers(2, 60)), int(rng.integers(2, 5)))
            w = rng.random(ds.d) + 0.01
            c = float(rng.random() * 9.9 + 0.1)
            a = rank_list(ds, LinearFunction(w)).order
            b = rank_list(ds, LinearFunction(c * w)).order
            assert a.tolist() == b.tolist()

    def test_ranks_match_definition(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 40, 3)
        w = rng.random(3) + 0.01
        f = LinearFunction(w)
        got = ranks(ds, f)
        for t in range(ds.n):
            assert got[t] == rank_by_definition(ds.values, w, t)

    def test_ranks_of_ids_match_definition_under_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            ds = Dataset(rng.integers(0, 4, size=(n, 3)) / 3)
            w = rng.integers(0, 3, size=3).astype(float)
            w[0] += 1.0
            ids = rng.choice(n, size=int(rng.integers(1, n + 1)))
            got = ranks(ds, LinearFunction(w), ids)
            assert got.tolist() == [rank_by_definition(ds.values, w, int(t))
                                    for t in ids]


class TestTopK:
    def test_equal_weights_top2(self, fig1):
        assert top_k(fig1, LinearFunction([1, 1]), 2) == tids("t7", "t3")

    def test_axis_top2(self, fig1):
        assert top_k(fig1, LinearFunction([1, 0]), 2) == tids("t7", "t1")

    def test_k_equals_n(self, fig1):
        assert top_k(fig1, LinearFunction([1, 1]), 7) == frozenset(range(7))

    def test_k_out_of_range(self, fig1):
        with pytest.raises(KOutOfRange):
            top_k(fig1, LinearFunction([1, 1]), 0)
        with pytest.raises(KOutOfRange):
            top_k(fig1, LinearFunction([1, 1]), 8)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(3, 50)), int(rng.integers(2, 5)))
            f = LinearFunction(rng.random(ds.d) + 0.01)
            for k in range(1, ds.n):
                assert top_k(ds, f, k) < top_k(ds, f, k + 1)

    def test_matches_rank_list_prefix_under_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            # quantized values force plenty of score ties
            ds = Dataset(rng.integers(0, 4, size=(n, 2)) / 3.0)
            f = LinearFunction(rng.integers(1, 4, size=2).astype(float))
            order = rank_list(ds, f).order
            for k in (1, n // 2 + 1, n):
                assert top_k(ds, f, k) == frozenset(order[:k].tolist())


class TestTopKMany:
    """top_k_many and top_k_ids against top_k, row by row: the slack test
    must send every row whose set rounding could change to top_k itself."""

    @staticmethod
    def weights(rng, d):
        axes = np.eye(d)
        return np.vstack([axes, np.ones((1, d)),
                          np.abs(rng.standard_normal((60, d))),
                          rng.integers(0, 3, size=(20, d)) + axes[0]])

    @pytest.mark.parametrize("make", [
        lambda rng, n, d: rng.random((n, d)), anticorrelated,
        grid_with_duplicates])
    def test_matches_top_k_row_by_row(self, make):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4, 5):
            n = int(rng.integers(20, 120))
            ds = Dataset(make(rng, n, d))
            w = self.weights(rng, d)
            for k in (1, 2, n // 3, n - 1, n):
                expected = [top_k(ds, LinearFunction(row), k) for row in w]
                assert top_k_many(ds, w, k) == expected
                ids = top_k_ids(ds, w, k)
                assert ids.shape == (len(w), k)
                assert ids.tolist() == [sorted(s) for s in expected]

    def test_ties_go_to_top_k(self, monkeypatch):
        calls = []

        def counted(dataset, function, k):
            calls.append(k)
            return top_k(dataset, function, k)

        monkeypatch.setattr(core, "top_k", counted)
        rng = np.random.default_rng(18)
        ds = Dataset(grid_with_duplicates(rng, 80, 3))
        w = self.weights(rng, 3)
        expected = [top_k(ds, LinearFunction(row), 5) for row in w]
        assert top_k_many(ds, w, 5) == expected
        assert 0 < len(calls) < len(w)
        assert top_k_ids(ds, w, 5).tolist() == [sorted(s) for s in expected]

    def test_blocks_and_empty_input(self, monkeypatch):
        monkeypatch.setattr(core, "SCORE_BLOCK_BYTES", 8 * 40 * 3)
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 40, 3)
        w = np.abs(rng.standard_normal((10, 3)))
        assert top_k_many(ds, w, 4) == [top_k(ds, LinearFunction(row), 4)
                                        for row in w]
        assert top_k_many(ds, np.empty((0, 3)), 4) == []
        assert top_k_ids(ds, np.empty((0, 3)), 4).shape == (0, 4)

    def test_checks(self, fig1):
        with pytest.raises(KOutOfRange):
            top_k_many(fig1, [[1.0, 1.0]], 8)
        with pytest.raises(DimensionMismatch):
            top_k_many(fig1, [[1.0, 1.0, 1.0]], 2)
        with pytest.raises(NonFiniteValue):
            top_k_many(fig1, [[np.nan, 1.0]], 2)
        for bad in ([[-1.0, 1.0]], [[0.0, 0.0]]):
            with pytest.raises(ValueError):
                top_k_many(fig1, bad, 2)


class TestAngles:
    def test_diagonal(self):
        f = angles_to_weights([np.pi / 4])
        assert np.allclose(f.weights, [np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_axis(self):
        assert np.allclose(angles_to_weights([0.0]).weights, [1.0, 0.0])

    def test_3d_axis(self):
        assert np.allclose(angles_to_weights([HALF_PI, 0.0]).weights, [0, 1, 0],
                           atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            angles_to_weights([2.0])

    def test_unit_norm_and_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = rng.random(d - 1) * HALF_PI
            w = angles_to_weights(a).weights
            assert np.linalg.norm(w) == pytest.approx(1.0)
            assert w.min() >= 0.0

    def test_round_trip_interior(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            a = 0.05 + rng.random(d - 1) * (HALF_PI - 0.1)
            back = weights_to_angles(angles_to_weights(a))
            assert np.max(np.abs(back - a)) < 1e-9

    def test_rows_match_single_vectors(self):
        rng = np.random.default_rng(20)
        for d in (2, 3, 5):
            angles = rng.random((50, d - 1)) * HALF_PI
            angles[:5] = rng.choice([0.0, HALF_PI], size=(5, d - 1))
            rows = core.angle_weights(angles)
            for a, row in zip(angles, rows):
                assert angles_to_weights(a).weights.tobytes() == row.tobytes()

    def test_diagonal_matches_equal_weights_ranking(self, fig1):
        f = angles_to_weights([np.pi / 4])
        assert rank_list(fig1, f).order.tolist() == \
            rank_list(fig1, LinearFunction([1, 1])).order.tolist()


class TestExchangeAngle:
    def test_dominated_pair_has_no_crossing(self):
        assert exchange_angle(FIG1_VALUES[T["t1"]], FIG1_VALUES[T["t7"]]) is None

    def test_crossing_equalizes_scores(self):
        # oracle: tan(theta) = (a1 - b1) / (b2 - a2), then both scores agree
        a, b = FIG1_VALUES[T["t7"]], FIG1_VALUES[T["t5"]]
        theta = exchange_angle(a, b)
        assert theta == pytest.approx(np.arctan((0.91 - 0.46) / (0.72 - 0.43)))
        w = (np.cos(theta), np.sin(theta))
        assert abs(float(a @ w) - float(b @ w)) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = rng.random(2), rng.random(2)
            assert exchange_angle(a, b) == exchange_angle(b, a)

    def test_requires_2d(self):
        with pytest.raises(DimensionNot2D):
            exchange_angle([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])

    def test_boundary_ties_are_not_crossings(self):
        assert exchange_angle([0.5, 0.2], [0.5, 0.8]) is None  # equal x1
        assert exchange_angle([0.2, 0.5], [0.8, 0.5]) is None  # equal x2


def test_rank_bound_between_functions():
    # For t ranked k1 by f and k2 by f', any function whose ray crosses a
    # segment between the two rays ranks t at worst k1 + k2.  1,000 triples.
    from rankregret import sample_function

    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(20):
        n = int(rng.integers(10, 501))
        d = int(rng.integers(2, 6))
        ds = random_dataset(rng, n, d)
        for _ in range(50):
            f1 = sample_function(rng, d)
            f2 = sample_function(rng, d)
            t = int(rng.integers(0, n))
            k1 = int(ranks(ds, f1, [t])[0])
            k2 = int(ranks(ds, f2, [t])[0])
            lam = rng.random()
            stretch_a, stretch_b = 0.1 + 9.9 * rng.random(2)
            w = lam * stretch_a * f1.weights + (1 - lam) * stretch_b * f2.weights
            k12 = int(ranks(ds, LinearFunction(w), [t])[0])
            if k12 > k1 + k2:
                violations += 1
    assert violations == 0
