import csv
import io
import json
import logging

import numpy as np
import pytest

from rankregret import (
    Dataset,
    dual_problem,
    estimate_rank_regret,
    exact_rank_regret_2d,
    resolve_k,
    rrr_2d,
    run_algorithm,
    run_benchmark,
    sample_functions,
)
from rankregret import core, evaluate
from rankregret.core import (
    HALF_PI,
    NUMERIC_TOL,
    RankRegretKernel,
    member_survivors,
)
from rankregret.errors import EmptySubset, KOutOfRange
from rankregret.evaluate import (
    CSV_COLUMNS,
    evaluate_representative,
    reports_to_csv,
    reports_to_jsonl,
)
from rankregret import sweep2d
from rankregret.kset import (float32_directions, sample_uniforms,
                             save_collection, uniform_directions)

from conftest import anticorrelated, grid_with_duplicates, random_dataset, tids
from oracles import (
    one_product_ranks,
    rank_by_definition,
    rational_rank_regret_2d,
    rational_sampled_rank_regret,
    reaches_best_member,
    sampled_rank_regret,
)


class TestEstimate:
    def test_full_set_is_one(self, fig1):
        rng = np.random.default_rng(0)
        assert estimate_rank_regret(fig1, range(7), 100, rng) == 1

    def test_fig1_cover_output(self, fig1):
        rng = np.random.default_rng(1)
        assert estimate_rank_regret(fig1, tids("t3", "t1"), 10_000, rng) <= 2

    def test_empty_subset(self, fig1):
        with pytest.raises(EmptySubset):
            estimate_rank_regret(fig1, set(), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("subset", [[0, 7], [-1, 2]])
    @pytest.mark.parametrize("measure", [estimate_rank_regret,
                                         exact_rank_regret_2d])
    def test_unknown_ids_rejected(self, fig1, measure, subset):
        with pytest.raises(ValueError, match="unknown tuple ids"):
            measure(fig1, subset)

    def test_single_sample_matches_definition(self):
        # with one sampled function the estimate is exactly the best
        # member rank under that function (beyond 2-D, where it samples)
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(3, 5))
            ds = random_dataset(rng, n, d)
            subset = sorted(rng.choice(n, size=int(rng.integers(1, 4)),
                                       replace=False))
            seed = int(rng.integers(0, 2**31))
            w = sample_functions(np.random.default_rng(seed), d, 1)[0]
            want = min(rank_by_definition(ds.values, w, int(t)) for t in subset)
            got = estimate_rank_regret(ds, subset, 1, np.random.default_rng(seed))
            assert got == want

    def test_monotone_in_sample_count(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 120, 3)
        subset = [4, 77]
        values = [estimate_rank_regret(ds, subset, m, np.random.default_rng(9))
                  for m in (10, 100, 1000, 5000)]
        assert values == sorted(values)

    def test_never_exceeds_exact_2d_and_usually_matches(self):
        # in 2-D the estimate is the exact value
        trials = 30
        for t in range(trials):
            g = np.random.default_rng(500 + t)
            n = int(g.integers(20, 120))
            k = int(g.integers(1, 5))
            ds = random_dataset(g, n, 2)
            members = rrr_2d(ds, k).members
            exact = exact_rank_regret_2d(ds, members)
            assert estimate_rank_regret(ds, members, 10_000, g) == exact
        # tie-heavy inputs: i/q grids with copied rows, and a member with
        # an exact duplicate of larger id
        for t in range(trials):
            g = np.random.default_rng(600 + t)
            n = int(g.integers(20, 200))
            values = grid_with_duplicates(g, n, 2)
            members = rrr_2d(Dataset(values), int(g.integers(1, 5))).members
            for subset in (members, [int(g.integers(n - 1))]):
                values[-1] = values[min(subset)]
                ds = Dataset(values)
                assert (estimate_rank_regret(ds, subset, 5000, g)
                        == exact_rank_regret_2d(ds, subset))


class TestEstimateMatchesTwoPass:
    """Beyond 2-D, the estimate against the same functions ranked over all
    rows by the two-pass estimator over one float product
    (``oracles.sampled_rank_regret``), value for value.  In 2-D the
    estimate is the exact value, at least the same functions ranked by
    exact scores (``oracles.rational_sampled_rank_regret``)."""

    @staticmethod
    def check(values, subset, samples, seed):
        got = estimate_rank_regret(Dataset(values), subset, samples,
                                   np.random.default_rng(seed))
        if np.shape(values)[1] == 2:
            assert got == exact_rank_regret_2d(Dataset(values), subset)
            assert got >= rational_sampled_rank_regret(
                values, subset, samples, np.random.default_rng(seed))
        else:
            assert got == sampled_rank_regret(values, subset, samples,
                                              np.random.default_rng(seed))
        return got

    @pytest.mark.parametrize("make", [
        lambda rng, n, d: rng.random((n, d)), anticorrelated,
        grid_with_duplicates])
    def test_data_kinds_d2_to_5(self, make):
        rng = np.random.default_rng(60)
        for d in range(2, 6):
            for _ in range(6):
                n = int(rng.integers(2, 400))
                values = make(rng, n, d)
                subset = rng.choice(n, size=int(rng.integers(1, min(n, 12) + 1)),
                                    replace=False)
                self.check(values, subset, 700, int(rng.integers(2**31)))

    def test_bounds_far_from_ranks(self):
        # member 0 is ahead of rows 1-149 everywhere, and rows 150-153 lie
        # within 1e-7 of it, inside the bound pass's margin under every
        # function, so every bound is 5.  Rows 150-153 are member +
        # 1e-7 (+-u + w/1000) for two directions u orthogonal to w, the
        # first sampled function: under most functions one row of each
        # pair is ahead (rank 3), and all four only near w (rank 5).  Every
        # chunk's largest bound is 5 and the first chunk is visited last,
        # so every chunk goes to float64
        rng = np.random.default_rng(85)
        values = rng.random((154, 3)) * 0.9
        values[0] = 0.95
        for seed in range(3):
            w = sample_functions(np.random.default_rng(seed), 3, 1)[0]
            across = np.linalg.svd(w[None, :])[2][1:]  # orthonormal, normal to w
            values[150:] = values[0] + 1e-7 * (
                np.vstack([across, -across]) + w / 1000)
            assert self.check(values, [0], 3000, seed) == 5

    @pytest.mark.parametrize("window", [1000, 2500])
    def test_window_edges(self, monkeypatch, window):
        # windows of one and two chunks of 1024 (n < 4096); the running
        # maximum carries from one window to the next
        monkeypatch.setattr(evaluate, "WINDOW", window)
        rng = np.random.default_rng(86)
        values = grid_with_duplicates(rng, 120, 4)
        subset = rng.choice(120, size=3, replace=False)
        for samples in (1023, 2048, 2049, 5000):
            self.check(values, subset, samples, int(rng.integers(2**31)))

    def test_block_edges(self):
        rng = np.random.default_rng(61)
        for d in (2, 4):
            values = grid_with_duplicates(rng, 300, d)
            subset = rng.choice(300, size=5, replace=False)
            block = RankRegretKernel(values, sorted(subset)).block
            for samples in (1, block - 1, block + 1, 1023, 1025):
                self.check(values, subset, samples, int(rng.integers(2**31)))

    def test_member_dominated_by_member(self):
        rng = np.random.default_rng(62)
        values = rng.random((80, 3)) * 0.8
        values[3] = [0.95, 0.9, 0.92]
        values[50] = [0.5, 0.45, 0.6]  # beaten by member 3 everywhere
        for seed in range(5):
            self.check(values, [3, 50], 300, seed)
            self.check(values, [50, 3, 17], 1, seed)

    def test_duplicate_of_member_with_smaller_id(self):
        rng = np.random.default_rng(63)
        values = rng.random((120, 2))
        values[4] = values[90]
        values[30] = values[90]
        for seed in range(5):
            self.check(values, [90], 500, seed)
            self.check(values, [30, 90], 500, seed)

    def test_row_one_ulp_below_a_member_is_kept(self):
        # row 0 is below member 1 by one ulp on each attribute, so float
        # scores often tie them and row 0 then ranks first by id
        values = np.random.default_rng(66).random((50, 3)) * 0.5
        values[0] = [0.7, 0.8, 0.9]
        values[1] = np.nextafter(values[0], 1.0)
        assert 0 in member_survivors(values, np.array([1]))
        self.check(values, [1], 2000, 0)
        assert estimate_rank_regret(Dataset(values), [1], 2000,
                                    np.random.default_rng(0)) == 2

    def test_rows_float32_cannot_order(self):
        # each member has a shadow 2**-26 above it on every attribute,
        # with a larger id: rounded to float32 the two mostly score alike,
        # while in float64 the shadow is ahead by far more than score_slack
        rng = np.random.default_rng(68)
        for d in range(2, 6):
            values = rng.random((200, d)) * 0.9
            members = rng.choice(100, size=4, replace=False)
            values[100 + members] = values[members] + 2.0 ** -26
            for seed in range(3):
                self.check(values, members, 3000, seed)
                self.check(values, members[:1], 500, seed)

    def test_every_non_member_pruned(self):
        values = np.random.default_rng(64).random((200, 4)) * 0.9
        values[7] = 1.0
        assert member_survivors(values, np.array([7])).tolist() == [7]
        assert estimate_rank_regret(Dataset(values), [7], 400,
                                    np.random.default_rng(0)) == 1
        self.check(values, [7], 400, 0)


class TestEstimate2DSteps:
    """The 2-D estimate, which is the exact value, against the same
    functions ranked by exact scores
    (``oracles.rational_sampled_rank_regret``)."""

    check = staticmethod(TestEstimateMatchesTwoPass.check)

    @pytest.mark.parametrize("make", [
        grid_with_duplicates,
        lambda rng, n, d: np.round(anticorrelated(rng, n, d), 2),
        lambda rng, n, d: rng.random((n, d))])
    def test_data_kinds(self, make):
        rng = np.random.default_rng(70)
        for _ in range(30):
            n = int(rng.integers(2, 400))
            values = make(rng, n, 2)
            if rng.random() < 0.5:
                k = int(rng.integers(1, max(2, n // 10)))
                subset = sorted(rrr_2d(Dataset(values), k).members)
            else:
                subset = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)),
                                    replace=False)
            self.check(values, subset, 1500, int(rng.integers(2**31)))

    @pytest.mark.parametrize("n", [196, 1500])
    def test_member_duplicated_in_last_row(self, n):
        # a BLAS product can score the last row's copy above its member,
        # but the exact value ranks the copy behind it, by id
        rng = np.random.default_rng(71)
        values = rng.random((n, 2))
        values[-1] = values[n // 2]
        for members in ([n // 2], [n - 1], [3, n // 2]):
            exact = exact_rank_regret_2d(Dataset(values), members)
            for seed in range(3):
                assert self.check(values, members, 10_000, seed) <= exact

    def test_all_rows_and_one_row(self):
        rng = np.random.default_rng(72)
        values = rng.random((60, 2))
        self.check(values, range(60), 500, 0)
        assert estimate_rank_regret(Dataset(values), range(60), 500) == 1
        self.check(grid_with_duplicates(rng, 60, 2), range(60), 500, 1)
        self.check(rng.random((1, 2)), [0], 500, 2)

    # member 0 is passed by row 1 at pi/4, by row 3 at arctan(5/3) and by
    # row 2 at arctan(3)
    TIE_VALUES = np.array([[0.6, 0.2], [0.2, 0.6], [0.3, 0.3], [0.1, 0.5]])

    def test_samples_read_the_step_at_their_angle(self, monkeypatch):
        # member 0 ranks 1, 2, 3 and 4 between the crossings; the 2-D
        # estimate is the largest, 4, also where every sampled function
        # would put it first
        crossings = np.array([0.0, np.pi / 4, np.arctan(5 / 3), np.arctan(3),
                              HALF_PI])
        middles = (crossings[:-1] + crossings[1:]) / 2
        assert [rank_by_definition(self.TIE_VALUES, [np.cos(a), np.sin(a)], 0)
                for a in middles] == [1, 2, 3, 4]
        assert rational_rank_regret_2d(self.TIE_VALUES, [0]) == 4
        monkeypatch.setattr(evaluate, "sample_functions",
                            lambda rng, d, count: np.eye(d)[[0] * count])
        assert estimate_rank_regret(Dataset(self.TIE_VALUES), [0], 5) == 4

    def test_merged_runs_end_on_exact_groups(self, monkeypatch):
        # rounded values put ends of the rows' intervals in near runs,
        # which are ordered by exact ratio; the value is the exact one
        rng = np.random.default_rng(74)
        exact_keys = []
        end_key = sweep2d._end_key
        monkeypatch.setattr(sweep2d, "_end_key",
                            lambda *a: exact_keys.append(a) or end_key(*a))
        for _ in range(40):
            n = int(rng.integers(5, 60))
            values = np.round(anticorrelated(rng, n, 2), int(rng.integers(1, 3)))
            members = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)),
                                 replace=False)
            assert estimate_rank_regret(Dataset(values), members) == \
                rational_rank_regret_2d(values, members)
        assert exact_keys


def bound_then_add(kernel, values, weights):
    """Fold float64 unit ``weights`` into ``kernel`` over ``values`` as the
    estimate does: bound every function from its float32 copy (within its
    l1 rounding), then score in float64 those whose bound exceeds the
    maximum, with their scores over all of ``values`` as the reference."""
    approx = weights.astype(np.float32)
    errors = np.abs(approx - weights).sum(axis=1)
    hot = kernel.rank_bounds(approx, errors) > kernel.worst
    kernel.add(weights[hot] @ kernel.kept.T, lambda: weights[hot] @ values.T)


class TestRankRegretKernel:
    def test_survivors_match_definition(self):
        # the survivors are some of the rows no member beats by more than
        # NUMERIC_TOL on every attribute, the members among them, and each
        # dropped row is beaten by some member under every weight vector
        rng = np.random.default_rng(65)
        beyond = 0  # rows dropped that no member beats on every attribute
        for trial in range(24):
            n, d = int(rng.integers(1, 150)), int(rng.integers(2, 5))
            values = (grid_with_duplicates(rng, n, d) if trial % 2
                      else np.round(anticorrelated(rng, n, d), 2))
            members = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)),
                                         replace=False))
            beaten = ((values[members][:, None, :] - values[None, :, :])
                      > NUMERIC_TOL).all(axis=2).any(axis=0)
            beaten[members] = False
            kept = member_survivors(values, members)
            assert np.all(np.diff(kept) > 0)
            assert set(kept.tolist()) <= set(np.flatnonzero(~beaten).tolist())
            assert set(members.tolist()) <= set(kept.tolist())
            dropped = np.setdiff1d(np.arange(n), kept)
            for row in dropped.tolist():
                assert reaches_best_member(values, members, row) < -NUMERIC_TOL / 2
            beyond += np.count_nonzero(~beaten[dropped])
        assert beyond > 100

    def test_rows_within_tol_of_the_best_member_at_a_vertex_stay(self):
        # members 0 and 1 cross at w = (1/2, 1/2), a vertex of the 2-D grid,
        # where both score 1/2: row 2 comes within NUMERIC_TOL of them
        # there, row 3 (which neither member beats on both attributes)
        # stays more than NUMERIC_TOL below the better one everywhere
        values = np.array([[1.0, 0.0], [0.0, 1.0],
                           [0.5 - 1e-12, 0.5 - 1e-12], [0.5 - 2e-9, 0.5 - 2e-9]])
        assert member_survivors(values, np.array([0, 1])).tolist() == [0, 1, 2]
        assert reaches_best_member(values, [0, 1], 3) < -NUMERIC_TOL

    def test_reference_decides_ties_within_slack(self):
        # row 0 scores one ulp below member 1 in the block, within the
        # kernel's slack score_slack(2), but ties it in the reference
        # arithmetic, so it ranks ahead by id
        values = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]])
        kernel = RankRegretKernel(values, [1])
        block = np.array([[np.nextafter(0.5, 0.0), 0.5, 0.1]])
        kernel.add(block, lambda: np.array([[0.5, 0.5, 0.1]]))
        assert kernel.worst == 2

    def test_screen_counts_rows_float32_misorders(self):
        # member 0 holds float32 values with spacing u = 2**-25; row 1 is
        # 0.45 u above it on the first attribute and 0.55 u below it on the
        # second, so it is ahead in float64 wherever w1 >= 1.25 w2, while
        # its float32 copy equals the member but for one u less on the
        # second attribute
        rng = np.random.default_rng(69)
        u = 2.0 ** -25
        for d in range(2, 6):
            for _ in range(50):
                member = rng.uniform(0.25, 0.5, d).astype(np.float32)
                row = member.astype(np.float64)
                row[0] += 0.45 * u
                row[1] -= 0.55 * u
                values = np.vstack([member, row])
                kernel = RankRegretKernel(values, [0])
                bound_then_add(kernel, values, np.eye(d)[1:2])  # row 1 behind
                assert kernel.worst == 1
                w = np.abs(rng.standard_normal(d))
                w[0] = max(w[0], 1.25 * w[1])
                bound_then_add(kernel, values, w[None, :] / np.linalg.norm(w))
                assert kernel.worst == 2


class TestRankBounds:
    """``RankRegretKernel.rank_bounds`` over ``float32_directions`` against
    the rank each sampled function gives the best member in
    ``oracles.sampled_rank_regret``'s one-product arithmetic."""

    KINDS = (lambda rng, n, d: rng.random((n, d)),
             grid_with_duplicates,
             lambda rng, n, d: np.round(anticorrelated(rng, n, d), 2))

    @pytest.mark.parametrize("block_bytes", [core.SCORE_BLOCK_BYTES, 4096])
    def test_bound_holds_on_every_sample(self, monkeypatch, block_bytes):
        # 4096 bytes make tiles of 4 rows: members past the first tile
        monkeypatch.setattr(core, "SCORE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(82)
        below = 0
        for trial in range(72):
            d = 3 + trial % 6
            n = int(rng.integers(2, 300))
            values = self.KINDS[trial // 6 % 3](rng, n, d)
            members = rng.choice(n, size=int(rng.integers(1, min(n, 10) + 1)),
                                 replace=False)
            if trial // 18 % 2:  # copies of members at smaller and larger ids
                values[0], values[-1] = values[members.max()], values[members.min()]
            kernel = RankRegretKernel(values, members)
            uniforms = sample_uniforms(rng, d, 1024)
            near_zero = uniforms[::8, 0::2]  # |z| small against the radii
            uniforms[::8, 0::2] = np.maximum(
                near_zero * 10.0 ** -rng.integers(4, 16, near_zero.shape),
                2.0 ** -53)
            bounds = kernel.rank_bounds(*float32_directions(uniforms, d))
            ranks = one_product_ranks(values, members,
                                      uniform_directions(uniforms, d))
            assert np.all(ranks <= bounds)
            below += np.count_nonzero(ranks < bounds)
            if trial % 8 == 0:
                TestEstimateMatchesTwoPass.check(values, members, 300, trial)
        assert below  # some bounds count rows behind the best member

    def test_rows_the_float32_direction_misorders_are_counted(self):
        # of 10^5 draws with radius uniforms scaled towards 0, take the one
        # whose float32 direction errs most (by D = approx - w; for odd d,
        # where a last cosine near 0 can leave |z| short against its
        # radius, |D| reaches 1e-4 to 1e-3).  Row 1 = member + delta, with
        # delta 1e-9 w along w and the rest against D's part orthogonal to
        # w, is ahead of the member under w and behind by 2e-5, more than
        # the kernel's margin, under the float32 direction
        rng = np.random.default_rng(84)
        for d in (3, 5, 7):
            uniforms = sample_uniforms(rng, d, 100_000)
            uniforms[:, 0::2] = np.maximum(
                uniforms[:, 0::2] * 10.0 ** -rng.integers(
                    0, 16, uniforms[:, 0::2].shape), 2.0 ** -53)
            approx, errors = float32_directions(uniforms, d)
            exact = uniform_directions(uniforms, d)
            i = np.argmax(np.abs(approx - exact).sum(axis=1))
            w = exact[i]
            across = approx[i] - w
            across -= (across @ w) * w
            member = np.full(d, 0.5)
            delta = 1e-9 * w - 2e-5 * across / (across @ across)
            values = np.vstack([member, member + delta])
            kernel = RankRegretKernel(values, [0])
            assert one_product_ranks(values, [0], exact[i:i + 1]).tolist() == [2]
            scores = kernel.kept32 @ approx[i]
            assert scores[1] < scores[0] - kernel.margin
            assert kernel.rank_bounds(approx[i:i + 1], errors[i:i + 1]) == 2

    def test_logs_the_functions_scored_in_float64(self, caplog):
        values = np.random.default_rng(83).random((300, 3))
        with caplog.at_level(logging.DEBUG, logger="rankregret.evaluate"):
            estimate_rank_regret(Dataset(values), [1, 2], 5000,
                                 np.random.default_rng(0))
        (message,) = [r.getMessage() for r in caplog.records
                      if "scored in float64" in r.getMessage()]
        scored, rest = message.split(" ", 1)
        assert rest == "of 5000 sampled functions scored in float64"
        assert 0 < int(scored) < 5000


class TestSurvivorOutputs:
    """Estimates and exact 2-D values over the kernel's survivors against
    oracles that rank every row: ``oracles.sampled_rank_regret`` for
    d > 2, ``rational_sampled_rank_regret`` and ``rational_rank_regret_2d``
    for d = 2."""

    KINDS = (lambda rng, n, d: rng.random((n, d)),
             lambda rng, n, d: np.round(anticorrelated(rng, n, d), 2),
             lambda rng, n, d: rng.integers(0, 6, size=(n, d)) / 5)

    def test_fuzz(self):
        rng = np.random.default_rng(76)
        for trial in range(300):
            d = 2 + trial % 4
            n = 1 if trial % 25 == 0 else int(rng.integers(2, 41 if d == 2 else 151))
            values = self.KINDS[trial // 4 % 3](rng, n, d)
            members = rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)),
                                 replace=False)
            case = trial // 12 % 3
            if case == 1:  # a member with a copy in the last row
                values[-1] = values[members[0]]
            elif case == 2:
                members = np.arange(n)
            TestEstimateMatchesTwoPass.check(values, members, 300, trial)
            if d == 2:
                assert exact_rank_regret_2d(Dataset(values), members) == \
                    rational_rank_regret_2d(values, members)


class TestResolveK:
    def test_absolute(self):
        assert resolve_k(100, k=7) == 7

    def test_percentage_rounds_up(self):
        assert resolve_k(457, k_pct=1.0) == 5
        assert resolve_k(10_000, k_pct=1.0) == 100
        assert resolve_k(50, k_pct=0.1) == 1

    def test_exactly_one_of_k_and_pct(self):
        with pytest.raises(ValueError):
            resolve_k(10)
        with pytest.raises(ValueError):
            resolve_k(10, k=1, k_pct=1.0)

    def test_out_of_range(self):
        with pytest.raises(KOutOfRange):
            resolve_k(10, k=11)


class TestDualProblem:
    def test_budget_n_gives_k1(self, fig1):
        k, rep = dual_problem(fig1, 7, solver="2drrr")
        assert k == 1
        assert rep.size <= 7

    def test_matches_linear_scan(self, fig1):
        sizes = {k: rrr_2d(fig1, k).size for k in range(1, 8)}
        for budget in (1, 2, 3, 7):
            k, rep = dual_problem(fig1, budget, solver="2drrr")
            assert rep.size <= budget
            assert k == min(kk for kk in range(1, 8) if sizes[kk] <= budget)

    def test_k_non_increasing_in_budget(self, fig1):
        ks = [dual_problem(fig1, budget, solver="2drrr")[0]
              for budget in (1, 2, 3, 4, 5)]
        assert ks == sorted(ks, reverse=True)

    def test_budget_validation(self, fig1):
        with pytest.raises(ValueError):
            dual_problem(fig1, 0)


class TestRunAlgorithm:
    def test_dispatch_names(self, fig1):
        for name in ("2drrr", "mdrrr", "mdrc"):
            rep = run_algorithm(name, fig1, 2, seed=5)
            assert rep.algorithm == name
            assert exact_rank_regret_2d(fig1, rep.members) <= 4

    def test_unknown_name(self, fig1):
        with pytest.raises(ValueError):
            run_algorithm("newton", fig1, 2)
        with pytest.raises(ValueError, match="kset source"):
            run_algorithm("mdrrr", fig1, 2, kset_source="newton")

    def test_mdrrr_sources(self, fig1):
        for source in ("sweep2d", "graph", "random"):
            rep = run_algorithm("mdrrr", fig1, 2, seed=7, kset_source=source)
            assert rep.params["kset_source"] == source
            assert exact_rank_regret_2d(fig1, rep.members) <= 2

    def test_mdrrr_guarantee_follows_the_collection(self, fig1, tmp_path):
        # rank-regret <= k is guaranteed over a complete collection only
        for source, complete in (("sweep2d", True), ("graph", True),
                                 ("random", False)):
            rep = run_algorithm("mdrrr", fig1, 2, seed=7, kset_source=source)
            assert rep.bound_guaranteed is complete is rep.params["complete"]
        path = tmp_path / "sets"
        save_collection(sweep2d.enumerate_ksets_2d(fig1, 2), path)
        rep = run_algorithm("mdrrr", fig1, 2, seed=7, ksets_file=str(path))
        assert rep.bound_guaranteed is False

    def test_deterministic_under_seed(self):
        ds = random_dataset(np.random.default_rng(70), 40, 3)
        a = run_algorithm("mdrrr", ds, 4, seed=11)
        b = run_algorithm("mdrrr", ds, 4, seed=11)
        assert a.members == b.members


class TestBenchmark:
    def test_empty_algorithm_list(self, fig1):
        assert run_benchmark(fig1, [], [2], [0]) == []

    def test_reports_and_determinism(self, fig1):
        a = run_benchmark(fig1, ["2drrr", "mdrc"], [2], [3], samples=500)
        b = run_benchmark(fig1, ["2drrr", "mdrc"], [2], [3], samples=500)
        assert len(a) == 2
        for ra, rb in zip(a, b):
            assert ra.subset_size == rb.subset_size
            assert ra.rank_regret == rb.rank_regret
            assert ra.error is None
            assert ra.exact  # 2-D and small, so the sweep value is used
            assert 1 <= ra.rank_regret <= fig1.n

    def test_estimate_mode_records_samples(self):
        # beyond 2-D the benchmark estimates
        ds = random_dataset(np.random.default_rng(70), 30, 3)
        (report,) = run_benchmark(ds, ["mdrc"], [2], [0], samples=300)
        assert not report.exact
        assert report.samples == 300

    def test_errors_recorded_not_raised(self):
        ds = random_dataset(np.random.default_rng(71), 20, 3)
        (report,) = run_benchmark(ds, ["2drrr"], [2], [0])
        assert report.error is not None
        assert "DimensionNot2D" in report.error
        assert report.subset_size is None

    def test_serialization(self, fig1):
        reports = run_benchmark(fig1, ["2drrr"], [2], [0], samples=200)
        lines = reports_to_jsonl(reports).strip().splitlines()
        parsed = json.loads(lines[0])
        assert parsed["algorithm"] == "2drrr"
        assert parsed["dataset_fingerprint"].startswith("n7-d2-")
        table = list(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert table[0] == CSV_COLUMNS
        assert table[1][0] == "2drrr"


def test_evaluate_representative_modes(fig1):
    # 2-D evaluation is exact in every mode; beyond 2-D "auto" and
    # "estimate" sample
    rep = rrr_2d(fig1, 2)
    for mode in ("exact", "auto", "estimate"):
        report = evaluate_representative(fig1, rep, mode=mode, samples=2000,
                                         seed=1)
        assert report.exact and report.samples is None
        assert report.rank_regret == 2
    ds = random_dataset(np.random.default_rng(73), 40, 3)
    rep = run_algorithm("mdrc", ds, 3)
    for mode in ("auto", "estimate"):
        report = evaluate_representative(ds, rep, mode=mode, samples=2000,
                                         seed=1)
        assert not report.exact and report.samples == 2000
