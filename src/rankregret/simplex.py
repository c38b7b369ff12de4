"""A small dense two-phase simplex solver.

Solves   maximize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
with all right-hand sides non-negative.  Pivoting uses Bland's rule
throughout, which makes the solver deterministic and immune to cycling on
the heavily degenerate separation problems it is used for (every
inequality row has b = 0).  Problem sizes here are tiny (d + a handful of
variables, n + 1 rows), so a dense tableau is the right tool.

Each pivot step is a few array operations: the entering column is the
first reduced cost above PIVOT_TOL, the eligible rows of the ratio test
are found in one comparison, and the pivot is one rank-1 update of the
rows with a non-zero entry in the pivot column.  Every tableau entry
gets the same multiply and subtract as in a row-by-row loop, so the
pivots, and with them the solution bits, are those of the loop.  Only
the choice of the leaving row stays a sequential fold: Bland's rule
with a PIVOT_TOL tie band is not an argmin.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray]
    objective: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def simplex_max(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                max_iter: Optional[int] = None) -> SimplexResult:
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=np.float64)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=np.float64)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=np.float64)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=np.float64)
    if b_ub.min(initial=0.0) < 0 or b_eq.min(initial=0.0) < 0:
        raise ValueError("right-hand sides must be non-negative")

    m_ub, m_eq = A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    # columns: [x (n) | slack (m_ub) | artificial (m_eq) | rhs]
    n_slack = m_ub
    n_art = m_eq
    width = n + n_slack + n_art + 1
    T = np.zeros((m + 1, width))
    T[:m_ub, :n] = A_ub
    T[:m_ub, n:n + n_slack] = np.eye(m_ub)
    T[:m_ub, -1] = b_ub
    T[m_ub:m, :n] = A_eq
    T[m_ub:m, n + n_slack:n + n_slack + n_art] = np.eye(m_eq)
    T[m_ub:m, -1] = b_eq
    basis = np.concatenate([
        np.arange(n, n + n_slack),
        np.arange(n + n_slack, n + n_slack + n_art),
    ]).astype(np.int64)

    if max_iter is None:
        max_iter = 2000 + 50 * (m + n)

    if n_art:
        # phase 1: maximize -(sum of artificials)
        obj = np.zeros(width)
        obj[n + n_slack:n + n_slack + n_art] = -1.0
        _set_objective(T, basis, obj)
        status = _pivot_loop(T, basis, width - 1, max_iter)
        if status != "optimal":
            return SimplexResult(status, None, np.nan)
        # the objective row's rhs is the negative of the phase-1 optimum
        if T[-1, -1] > FEAS_TOL:
            return SimplexResult("infeasible", None, np.nan)
        _evict_artificials(T, basis, n + n_slack)

    # phase 2 on the real objective, restricted to non-artificial columns
    obj = np.zeros(width)
    obj[:n] = c
    _set_objective(T, basis, obj)
    status = _pivot_loop(T, basis, n + n_slack, max_iter)
    if status != "optimal":
        return SimplexResult(status, None, np.nan)

    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T[:m][real, -1]
    return SimplexResult("optimal", x, float(c @ x))


def _set_objective(T, basis, obj) -> None:
    """Load ``obj`` as reduced costs by subtracting each basic row that
    carries a cost, one row at a time in row order."""
    T[-1, :] = obj
    for i in obj[basis].nonzero()[0]:
        T[-1, :] -= obj[basis[i]] * T[i, :]


def _pivot_loop(T, basis, limit: int, max_iter: int) -> str:
    """Run Bland-rule pivots until optimal, unbounded, or out of budget.

    The objective row holds reduced costs for maximization: optimal when
    none of the first ``limit`` columns exceeds the tolerance.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        entering = (T[-1, :limit] > PIVOT_TOL).nonzero()[0]
        if entering.size == 0:
            return "optimal"
        enter = entering[0]
        column = T[:m, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        leave = _leaving_row(rows.tolist(), (T[rows, -1] / column[rows]).tolist(),
                             basis[rows].tolist())
        _pivot(T, basis, leave, enter)
    return "iteration_limit"


def _leaving_row(rows, ratios, basics) -> int:
    """Bland's ratio test over the eligible rows, in row order.

    A ratio more than PIVOT_TOL below the best so far takes over; one
    within PIVOT_TOL of it takes over only with a smaller basic index.
    The band moves with the best ratio, so the winner can depend on the
    order the rows are seen in, which an argmin would not reproduce.
    """
    best_ratio = np.inf
    leave = best_basic = -1
    for i, ratio, basic in zip(rows, ratios, basics):
        if ratio < best_ratio - PIVOT_TOL or (
            abs(ratio - best_ratio) <= PIVOT_TOL
            and (leave < 0 or basic < best_basic)
        ):
            best_ratio = ratio
            leave, best_basic = i, basic
    return leave


def _pivot(T, basis, row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    # rows with a zero factor are left alone, so no -0.0 turns into 0.0
    np.subtract(T, np.multiply.outer(factors, T[row]), out=T,
                where=(factors != 0.0)[:, None])
    basis[row] = col


def _evict_artificials(T, basis, n_real: int) -> None:
    """Pivot zero-valued artificial basics onto real columns when possible.

    A row with no usable real column is linearly dependent; zeroing it out
    is safe because its basic artificial is 0.
    """
    m = T.shape[0] - 1
    for i in range(m):
        if basis[i] >= n_real:
            usable = (np.abs(T[i, :n_real]) > PIVOT_TOL).nonzero()[0]
            if usable.size:
                _pivot(T, basis, i, usable[0])
            else:
                T[i, :] = 0.0
