import numpy as np
import pytest

from rankregret.simplex import PIVOT_TOL, _pivot_loop, simplex_max

from oracles import loop_simplex_max


def test_basic_maximization():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    res = simplex_max([1, 1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert res.ok
    assert res.objective == pytest.approx(2.8)
    assert np.allclose(res.x, [1.6, 1.2])

def test_unbounded():
    res = simplex_max([1, 0], A_ub=[[-1, 0]], b_ub=[0])
    assert res.status == "unbounded"

def test_degenerate_zero_rhs():
    # heavily degenerate: all inequality rows have b = 0, like the
    # separation problems this solver exists for
    res = simplex_max([0, 0, 1], A_ub=[[-1, 0, 1], [0, -1, 1], [1, 1, 0]],
                      b_ub=[0, 0, 1])
    assert res.ok
    # x3 <= min(x1, x2) and x1 + x2 <= 1 -> best is x1 = x2 = x3 = 1/2
    assert res.objective == pytest.approx(0.5)

def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_max([1], A_ub=[[1]], b_ub=[-1])

def test_matches_vertex_enumeration():
    # random bounded LPs, checked against brute-force vertex enumeration
    rng = np.random.default_rng(4)
    for _ in range(25):
        nvar = int(rng.integers(2, 5))
        nrow = int(rng.integers(2, 6))
        A = rng.random((nrow, nvar))
        b = rng.random(nrow) + 0.5
        c = rng.random(nvar)
        # box bound keeps it bounded
        A_full = np.vstack([A, np.eye(nvar)])
        b_full = np.concatenate([b, np.full(nvar, 2.0)])
        res = simplex_max(c, A_ub=A_full, b_ub=b_full)
        assert res.ok
        best = _brute_force_vertex_max(c, A_full, b_full)
        assert res.objective == pytest.approx(best, abs=1e-7)


@pytest.mark.parametrize("offset", [0.0, 0.5 * PIVOT_TOL])
def test_ratio_tie_leaves_the_smaller_basic_index(offset):
    # columns x0, x1, s0, s1 | rhs; row 0 has s0 (index 2) basic, row 1
    # has x1 (index 1).  x0 enters, and both rows bound it at ratio 1, the
    # second within PIVOT_TOL of the first.  Bland's rule leaves row 1,
    # the smaller basic index, although row 0 comes first.
    T = np.array([[2.0, 0.0, 1.0, 0.0, 2.0],
                  [1.0, 1.0, 0.0, 0.0, 1.0 + offset],
                  [1.0, 0.0, 0.0, 0.0, 0.0]])
    basis = np.array([2, 1])
    assert _pivot_loop(T, basis, max_iter=1) == "iteration_limit"
    assert basis.tolist() == [2, 0]


def test_degenerate_lps_match_the_loop_solver():
    # as in the k-set separation LPs: rows t.v - s <= 0 with b = 0 and a
    # free s = s+ - s-, then sum(v) <= 1 with b = 1.  Half of the rows come
    # from i/q grids, so ratios tie exactly.  The status and every bit of
    # x match a solver that pivots row by row.
    rng = np.random.default_rng(8)
    statuses = []
    for trial in range(200):
        d = int(rng.integers(2, 6))
        nrow = int(rng.integers(2, 12))
        if trial % 2:
            q = int(rng.integers(2, 6))
            values = rng.integers(-q, q + 1, size=(nrow, d)) / q
        else:
            values = rng.standard_normal((nrow, d))
        A = np.hstack([values, -np.ones((nrow, 1)), np.ones((nrow, 1))])
        A = np.vstack([A, np.append(np.ones(d), [0.0, 0.0])])
        b = np.append(np.zeros(nrow), 1.0)
        c = np.append(rng.integers(-1, 2, size=d), rng.integers(-1, 2, size=2))
        res = simplex_max(c, A, b)
        status, x = loop_simplex_max(c, A, b, np.zeros((0, d + 2)), np.zeros(0))
        assert res.status == status
        if status == "optimal":
            assert res.x.tobytes() == x.tobytes()
        statuses.append(status)
    assert statuses.count("optimal") > 100 and "unbounded" in statuses


def _brute_force_vertex_max(c, A, b):
    # enumerate all basic feasible points of {Ax <= b, x >= 0}
    import itertools

    nvar = A.shape[1]
    rows = np.vstack([A, -np.eye(nvar)])
    rhs = np.concatenate([b, np.zeros(nvar)])
    best = 0.0  # origin is feasible here
    for combo in itertools.combinations(range(rows.shape[0]), nvar):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(rows @ x <= rhs + 1e-9):
            best = max(best, float(c @ x))
    return best
