"""End-to-end acceptance criteria.

Each test covers one numbered criterion at its stated tolerance and
prints a single PASS line (visible with ``pytest -s``).  Some criteria
run at scale and take minutes; deselect with ``-m "not acceptance"``
for quick iterations.
"""

import time

import numpy as np
import pytest

from rankregret import (
    LinearFunction,
    collect_ksets_random,
    enumerate_ksets_2d,
    enumerate_ksets_graph,
    estimate_rank_regret,
    exact_rank_regret_2d,
    is_valid_kset,
    mdrc,
    mdrrr,
    ranks,
    rrr_2d,
    sample_functions,
)

from conftest import T, random_dataset, tids
from oracles import (
    exhaustive_lp_ksets,
    exhaustive_min_hitting_size,
    greedy_cover_bound,
)

pytestmark = pytest.mark.acceptance

HALF_PI = np.pi / 2


def _pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# --- criterion 1: toy exactness --------------------------------------------

def test_criterion_1a_toy_rankings(fig1):
    got_11 = np.argsort(ranks(fig1, LinearFunction([1, 1])), kind="stable").tolist()
    assert got_11 == [T[x] for x in ("t7", "t3", "t5", "t1", "t2", "t6", "t4")]
    got_10 = np.argsort(ranks(fig1, LinearFunction([1, 0])), kind="stable").tolist()
    assert got_10 == [T[x] for x in ("t7", "t1", "t3", "t2", "t5", "t4", "t6")]
    _pass("1a", "toy rankings under (1,1) and (1,0) match exactly")


def test_criterion_1b_toy_ksets(fig1):
    expected = {tids("t1", "t7"), tids("t7", "t3"), tids("t3", "t5")}
    assert {s.members for s in enumerate_ksets_2d(fig1, 2).sets} == expected
    assert {s.members for s in enumerate_ksets_graph(fig1, 2).sets} == expected
    agree = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        got = {s.members for s in collect_ksets_random(fig1, 2, 100, rng).sets}
        agree += got == expected
    assert agree >= 99
    _pass("1b", f"all three 2-sets found by sweep, graph, and sampler "
                f"({agree}/100 seeds)")


def test_criterion_1c_toy_representative(fig1):
    start = time.perf_counter()
    rep = rrr_2d(fig1, 2)
    elapsed = time.perf_counter() - start
    assert rep.members == tids("t3", "t1")
    assert exact_rank_regret_2d(fig1, rep.members) <= 2
    assert elapsed < 1.0
    _pass("1c", f"2drrr returns {{t3,t1}} with rank-regret <= 2 "
                f"in {elapsed:.3f}s")


# --- criterion 2 (and 4): small-instance oracle equivalence ----------------

N_SMALL_INSTANCES = 50


@pytest.fixture(scope="module")
def small_instances():
    """50 random instances with exhaustive, graph (and 2-D sweep) k-sets."""
    rng = np.random.default_rng(20_240_001)
    out = []
    start = time.perf_counter()
    for _ in range(N_SMALL_INSTANCES):
        n = int(rng.integers(4, 13))
        d = int(rng.choice([2, 3]))
        k = min(int(rng.integers(1, 4)), n)
        ds = random_dataset(rng, n, d)
        exhaustive = exhaustive_lp_ksets(ds, k, is_valid_kset)
        graph = enumerate_ksets_graph(ds, k)
        sweep = enumerate_ksets_2d(ds, k) if d == 2 else None
        out.append((ds, k, exhaustive, graph, sweep))
    elapsed = time.perf_counter() - start
    return {"instances": out, "elapsed": elapsed}


def test_criterion_2_enumeration_oracle_equivalence(small_instances):
    mismatches = 0
    for ds, k, exhaustive, graph, sweep in small_instances["instances"]:
        if {s.members for s in graph.sets} != exhaustive:
            mismatches += 1
        if sweep is not None and {s.members for s in sweep.sets} != exhaustive:
            mismatches += 1
    assert mismatches == 0
    assert small_instances["elapsed"] < 60.0
    _pass("2", f"{N_SMALL_INSTANCES} instances, graph BFS == exhaustive LP "
               f"(== 2-D sweep where d=2), 0 mismatches "
               f"in {small_instances['elapsed']:.1f}s")


# --- criterion 3: 2drrr guarantees ------------------------------------------

def test_criterion_3_2drrr_guarantees():
    rng = np.random.default_rng(20_240_003)
    within_k = 0
    optimal_checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        k = min(int(rng.integers(1, 11)), n)
        ds = random_dataset(rng, n, 2)
        rep = rrr_2d(ds, k)
        regret = exact_rank_regret_2d(ds, rep.members)
        assert regret <= 2 * k
        within_k += regret <= k
        if n <= 50:
            sets = enumerate_ksets_2d(ds, k).member_sets()
            if len(frozenset().union(*sets)) <= 25:
                assert rep.size <= exhaustive_min_hitting_size(sets)
                optimal_checked += 1
    # the stronger observation (regret <= k) is reported, not gated
    _pass("3", f"200 instances: rank-regret <= 2k always, <= k on "
               f"{within_k}/200; size <= optimum on all {optimal_checked} "
               f"oracle-feasible instances")


# --- criterion 4: mdrrr guarantees ------------------------------------------

def test_criterion_4_mdrrr_guarantees(small_instances):
    for _, _, _, graph, _ in small_instances["instances"]:
        sets = graph.member_sets()
        members = mdrrr(graph)
        assert all(members & s for s in sets)
        assert len(members) <= greedy_cover_bound(sets)
    _pass("4", f"mdrrr hit all sets on {N_SMALL_INSTANCES} complete "
               f"collections within greedy's H(D) size bound")


# --- criterion 5: mdrc bound at benchmark scale ------------------------------

def test_criterion_5_mdrc_bound():
    n, k = 10_000, 100
    dims = [2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3]
    within_k = 0
    for run, d in enumerate(dims):
        rng = np.random.default_rng(20_240_005 + run)
        ds = random_dataset(rng, n, d)
        start = time.perf_counter()
        rep = mdrc(ds, k)
        estimate = estimate_rank_regret(ds, rep.members, 10_000, rng)
        elapsed = time.perf_counter() - start
        assert estimate <= d * k
        assert rep.size < 40
        assert elapsed < 10.0
        within_k += estimate <= k
    assert within_k >= 18  # >= 90% of the 20 runs
    _pass("5", f"20 runs at n=10,000: estimate <= d*k always, <= k on "
               f"{within_k}/20, sizes < 40")


# --- criterion 6: rank bound between functions -------------------------------

def test_criterion_6_rank_bound_between_functions():
    rng = np.random.default_rng(20_240_006)
    violations = 0
    for _ in range(20):
        n = int(rng.integers(10, 501))
        d = int(rng.integers(2, 6))
        ds = random_dataset(rng, n, d)
        for _ in range(50):
            f1, f2 = (LinearFunction(sample_functions(rng, d, 1)[0])
                      for _ in range(2))
            t = int(rng.integers(0, n))
            k1 = int(ranks(ds, f1, [t])[0])
            k2 = int(ranks(ds, f2, [t])[0])
            lam = rng.random()
            stretch = 0.1 + 9.9 * rng.random(2)
            w = lam * stretch[0] * f1.weights + (1 - lam) * stretch[1] * f2.weights
            if int(ranks(ds, LinearFunction(w), [t])[0]) > k1 + k2:
                violations += 1
    assert violations == 0
    _pass("6", "1,000 between-function triples, 0 rank-bound violations")


# --- criterion 7: sampler uniformity -----------------------------------------

def test_criterion_7_sampler_uniformity():
    w = sample_functions(np.random.default_rng(20_240_007), 2, 10_000)
    angles = np.sort(np.arctan2(w[:, 1], w[:, 0]))
    n = angles.size
    cdf = angles / HALF_PI
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    assert ks < 0.02
    _pass("7", f"KS statistic {ks:.4f} < 0.02 on 10,000 draws")


# --- criterion 8: scale sanity ------------------------------------------------

def test_criterion_8a_mdrc_at_scale():
    n, d, k = 100_000, 3, 1000
    rng = np.random.default_rng(20_240_008)
    ds = random_dataset(rng, n, d)
    start = time.perf_counter()
    rep = mdrc(ds, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    estimate = estimate_rank_regret(ds, rep.members, 10_000, rng)
    assert estimate <= d * k
    assert rep.size < 40
    _pass("8a", f"mdrc at n=100,000 in {elapsed:.1f}s, size {rep.size}, "
                f"estimated rank-regret {estimate} <= {d * k}")


def test_criterion_8b_2drrr_at_scale():
    n, k = 100_000, 1000
    rng = np.random.default_rng(20_240_009)
    ds = random_dataset(rng, n, 2)
    start = time.perf_counter()
    rep = rrr_2d(ds, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert rep.size >= 1
    sampled = estimate_rank_regret(ds, rep.members, 10_000, rng)
    assert sampled <= 2 * k
    _pass("8b", f"2drrr at n=100,000 in {elapsed:.1f}s, size {rep.size}")
