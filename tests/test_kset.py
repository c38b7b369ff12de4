import numpy as np
import pytest

from rankregret import (
    Dataset,
    LinearFunction,
    collect_ksets_random,
    enumerate_ksets_2d,
    enumerate_ksets_graph,
    is_valid_kset,
    sample_functions,
    top_k,
)
from rankregret import core, kset
from rankregret.errors import LPNumericalFailure, MalformedKSetFile
from rankregret.kset import (
    collection_from_lines,
    collection_to_lines,
    float32_directions,
    load_collection,
    sample_uniforms,
    save_collection,
    uniform_directions,
)

from conftest import (
    anticorrelated,
    grid_with_duplicates,
    random_dataset,
    tids,
)
from oracles import (
    FullExchangeSweep,
    exhaustive_lp_ksets,
    has_weakly_dominated_member,
    lp_graph_ksets,
    lp_ksets_graph,
    separation_lp,
    sequential_ksets_random,
)

HALF_PI = np.pi / 2


class TestValidity:
    def test_fig1_t7_t3_valid_with_witness_in_wedge(self, fig1):
        witness = is_valid_kset(fig1, tids("t7", "t3"))
        assert witness is not None
        assert top_k(fig1, witness, 2) == tids("t7", "t3")
        # that set owns the angle wedge between the two boundary exchanges
        angle = np.arctan2(witness.weights[1], witness.weights[0])
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
            f = LinearFunction(sample_functions(rng, ds.d, 1)[0])
            k = int(rng.integers(1, ds.n))
            members = top_k(ds, f, k)
            witness = is_valid_kset(ds, members)
            assert witness is not None
            assert top_k(ds, witness, k) == members

    @pytest.mark.parametrize("family", ["grid", "duplicates", "collinear",
                                        "uniform", "anticorrelated"])
    def test_decides_as_the_equality_lp(self, family):
        # sum(v) <= 1 in place of sum(v) = 1 leaves the optimal margin at
        # max(delta*, 0): the same decision on every candidate, and where
        # delta* is positive the same margin and a witness of sum 1
        rng = np.random.default_rng([24, len(family)])
        decided = []
        for trial in range(12):
            d = 2 + trial % 3
            n = int(rng.integers(5, 14))
            if family == "uniform":
                values = rng.random((n, d))
            elif family == "anticorrelated":
                values = anticorrelated(rng, n, d)
            else:
                values = _tie_family(rng, family, n, d)
            ds = Dataset(values)
            k = int(rng.integers(1, n))
            drawn = [top_k(ds, LinearFunction(w), k)
                     for w in sample_functions(rng, d, 4)]
            swapped = [s - {min(s)} | {min(set(range(n)) - s)} for s in drawn]
            random = [frozenset(rng.choice(n, k, replace=False).tolist())
                      for _ in range(4)]
            for members in drawn + swapped + random:
                margin, _ = separation_lp(values, members, equality=True)
                witness = is_valid_kset(ds, members)
                valid = margin > kset.VALIDITY_TOL
                assert (witness is not None) == valid
                decided.append(valid)
                if valid:
                    scores = values @ witness.weights
                    inside = np.isin(np.arange(n), list(members))
                    ours = scores[inside].min() - scores[~inside].max()
                    assert abs(ours - margin) <= 1e-12
                    assert abs(witness.weights.sum() - 1.0) <= 1e-12
                    assert top_k(ds, witness, k) == members
        assert any(decided) and not all(decided)

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

    @pytest.mark.parametrize("family", ["grid", "duplicates", "collinear"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_certificates_reject_only_what_the_lp_rejects(self, family, d,
                                                           monkeypatch):
        # against deciding every distinct candidate by is_valid_kset: the
        # same sets, order and witness bits, one decision per candidate
        # (lps + filtered), and every candidate rejected without an LP is
        # one the LP rejects
        solved = []
        real = kset.is_valid_kset

        def counted(dataset, members):
            solved.append(frozenset(members))
            return real(dataset, members)

        monkeypatch.setattr(kset, "is_valid_kset", counted)
        rng = np.random.default_rng([d, len(family), 22])
        certified = 0
        for trial in range(6):
            n = int(rng.integers(5, 12))
            values = _tie_family(rng, family, n, d)
            k = 1 + trial * (n - 2) // 5  # 1 ... n - 1
            ds = Dataset(values)
            solved.clear()
            expected, decisions = lp_ksets_graph(
                values, k, lambda members: real(ds, members))
            if not expected:
                with pytest.raises(LPNumericalFailure):
                    enumerate_ksets_graph(ds, k)
                continue
            got = enumerate_ksets_graph(ds, k)
            assert [s.members for s in got.sets] == [m for m, _ in expected]
            for s, (_, w) in zip(got.sets, expected):
                assert s.witness.weights.tobytes() == w.weights.tobytes()
            assert got.lps + got.filtered == len(decisions)
            assert len(solved) == len(set(solved)) == got.lps
            skipped = set(decisions) - set(solved)
            assert len(skipped) == got.filtered
            assert all(decisions[c] is None for c in skipped)
            certified += len(skipped)
        assert certified > 0

    def test_segment_certificates(self):
        # row 2 is the midpoint of rows 0 and 1 and row 3 lies above it, so
        # no 2-set holds 2 without 0 or 1, nor 0 and 1 without 3, though no
        # non-member of {2, 3} or {0, 1} dominates a member
        ds = Dataset([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.6, 0.6]])
        col = enumerate_ksets_graph(ds, 2)
        tables = kset._SegmentTables(ds.values)
        assert tables.certify(frozenset({2, 3}))  # 2 below the segment 0-1
        assert tables.certify(frozenset({0, 1}))  # 3 above the segment 0-1
        assert not tables.certify(frozenset({0, 3}))
        assert {s.members for s in col.sets} == \
            {frozenset({0, 3}), frozenset({1, 3})}

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

    @pytest.mark.parametrize("d", range(2, 8))
    def test_bits_of_the_box_muller_formula(self, d):
        # each pair of uniforms gives a cosine and a sine normal, and for
        # odd d the last pair's sine is dropped; the stream moves on alike
        rng, ref = np.random.default_rng(14 + d), np.random.default_rng(14 + d)
        got = sample_functions(rng, d, 500)
        pairs = (d + 1) // 2
        u = ref.random((500, 2 * pairs))
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
        phase = 2.0 * np.pi * u[:, 1::2]
        z = np.empty((500, 2 * pairs))
        z[:, 0::2] = radius * np.cos(phase)
        z[:, 1::2] = radius * np.sin(phase)
        w = np.abs(z[:, :d])
        assert got.tobytes() == (w / np.linalg.norm(w, axis=1)[:, None]).tobytes()
        assert rng.random() == ref.random()

    def test_d_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sample_functions(np.random.default_rng(0), 1, 3)

    def test_rows_without_a_radius_are_drawn_again(self):
        # row 1 of the first draw has both radius uniforms 0, so |z| = 0;
        # row 0 has one, and its other pair still gives a normal
        first = np.array([[0.0, 0.3, 0.5, 0.7], [0.0, 0.2, 0.0, 0.9]])
        again = np.array([[0.4, 0.1, 0.6, 0.8]])
        draws = iter([first.copy(), again.copy()])

        class Fixed:
            def random(self, shape):
                out = next(draws)
                assert out.shape == shape
                return out

        uniforms = sample_uniforms(Fixed(), 4, 2)
        assert np.array_equal(uniforms, [first[0], again[0]])
        w = uniform_directions(uniforms, 4)
        assert w[0, 0] == w[0, 1] == 0.0
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_directions_of_any_rows_are_those_of_the_draw(self, d):
        rng = np.random.default_rng(40 + d)
        uniforms = sample_uniforms(np.random.default_rng(d), d, 3000)
        whole = sample_functions(np.random.default_rng(d), d, 3000)
        assert uniform_directions(uniforms, d).tobytes() == whole.tobytes()
        for m in (1, 2, 7, 32, 500):
            rows = rng.choice(3000, size=m, replace=False)
            assert (uniform_directions(uniforms[rows], d).tobytes()
                    == whole[rows].tobytes())

    @pytest.mark.parametrize("d", range(3, 13))
    def test_float32_directions_within_their_stated_error(self, d):
        # 10^6 draws; in one block of four the radius uniforms are scaled
        # towards 0, so |z| is small against some radii (for odd d also a
        # long last radius under a cosine near 0 happens by chance), where
        # the float32 directions err most
        rng = np.random.default_rng(20 + d)
        for block in range(8):
            uniforms = sample_uniforms(rng, d, 125_000)
            if block % 4 == 3:
                radii = uniforms[:, 0::2]
                radii *= 10.0 ** -rng.integers(0, 16, radii.shape)
                uniforms[:, 0::2] = np.maximum(radii, 2.0 ** -53)
            approx, errors = float32_directions(uniforms, d)
            assert approx.dtype == np.float32 and approx.shape == (125_000, d)
            gap = np.abs(approx - uniform_directions(uniforms, d)).sum(axis=1)
            assert np.all(gap <= errors)


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
            expected, draws = sequential_ksets_random(values, k, c, theirs)
            assert [s.members for s in got.sets] == [m for m, _ in expected]
            for s, (_, w) in zip(got.sets, expected):
                assert s.witness.weights.tobytes() == w.tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert got.draws == draws

    @pytest.mark.parametrize("family", ["grid", "duplicates", "collinear"])
    def test_same_run_as_sequential_top_k(self, family, monkeypatch):
        # against drawing one function at a time and taking core.top_k, on
        # tie-heavy inputs where top_k_ids sends rows to top_k: the same
        # sets, order, witness bits, draws and next draw of the generator
        real = core.top_k
        fallbacks = []

        def counted(dataset, function, k):
            fallbacks.append(k)
            return real(dataset, function, k)

        monkeypatch.setattr(core, "top_k", counted)
        rng = np.random.default_rng([23, len(family)])
        for trial in range(8):
            d = 2 + trial % 3
            n = int(rng.integers(6, 60))
            k = int(rng.integers(1, n))
            c = int(rng.choice([1, 5, 40]))
            values = _tie_family(rng, family, n, d)
            ds = Dataset(values)
            ours = np.random.default_rng([trial, 1])
            theirs = np.random.default_rng([trial, 1])
            got = collect_ksets_random(ds, k, c, ours)
            expected, draws = sequential_ksets_random(
                values, k, c, theirs,
                lambda w: real(ds, LinearFunction(w), k))
            assert [s.members for s in got.sets] == [m for m, _ in expected]
            for s, (_, w) in zip(got.sets, expected):
                assert s.witness.weights.tobytes() == w.tobytes()
            assert got.draws == draws
            assert ours.random() == theirs.random()
        assert fallbacks

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


def _tie_family(rng, family, n, d):
    """Tie-heavy values: i/q grids (q = 2-4), a random input with a third
    of its rows copied, or rows at i/8 along a few segments (collinear up
    to rounding)."""
    if family == "grid":
        q = int(rng.integers(2, 5))
        return rng.integers(0, q + 1, size=(n, d)) / q
    if family == "duplicates":
        values = rng.random((n, d))
        copies = rng.choice(n, size=max(1, n // 3), replace=False)
        values[copies] = values[rng.choice(n, size=copies.size)]
        return values
    ends = rng.random((3, 2, d))
    line = rng.integers(0, 3, size=n)
    lam = rng.integers(0, 9, size=(n, 1)) / 8
    return lam * ends[line, 0] + (1 - lam) * ends[line, 1]


def _min_wedge(ds, k):
    sweep = FullExchangeSweep(ds.values)
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
            f = LinearFunction(sample_functions(rng, d, 1)[0])
            assert top_k(ds, f, k) in enumerated


class TestSerialization:
    def test_round_trip_lines(self, fig1):
        col = enumerate_ksets_2d(fig1, 2)
        lines = collection_to_lines(col)
        assert all(line.startswith("k=2;members=") for line in lines)
        back = collection_from_lines(lines)
        assert back.k == 2 and back.d == 2 and not back.complete
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
        back = load_collection(path)
        assert not back.complete
        assert {s.members for s in back.sets} == {s.members for s in col.sets}

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            collection_from_lines(["k=2;members=1,3", "k=3;members=0,1,2"])

    def test_witness_of_another_dimension_rejected(self):
        with pytest.raises(MalformedKSetFile, match="line 2 has a witness of 3"):
            collection_from_lines(["k=2;members=1,3;witness=0.6,0.8",
                                   "k=2;members=0,2;witness=0.6,0.8,0"])
        with pytest.raises(MalformedKSetFile, match="line 1 has a witness of 3"):
            collection_from_lines(["k=2;members=1,3;witness=0.6,0.8,0"], d=2)

    @pytest.mark.parametrize("witness", ["nan,1", "1,inf", "-0.5,1", "0,0"])
    def test_witness_that_is_no_function_names_its_line(self, witness):
        with pytest.raises(MalformedKSetFile, match="^k-set line 2: "):
            collection_from_lines(["k=2;members=1,3;witness=0.6,0.8",
                                   f"k=2;members=0,2;witness={witness}"])
