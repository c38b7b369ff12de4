"""A small dense simplex solver, one phase from the slack basis.

Solves   maximize c.x   subject to   A_ub x <= b_ub,  x >= 0
with b_ub >= 0.  The slack basis (x = 0, every slack at its b) is then
feasible, so the solver starts there and needs no phase 1 (Chvatal,
*Linear Programming*, 1983, ch. 3).  Pivoting uses Bland's rule
throughout, which makes the solver deterministic and immune to cycling on
the heavily degenerate separation problems it is used for (every
inequality row but one has b = 0).  Problem sizes here are tiny (d + a
handful of variables, n + 1 rows), so a dense tableau is the right tool.

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


@dataclass
class SimplexResult:
    status: str  # "optimal" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray]
    objective: float

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def simplex_max(c, A_ub, b_ub) -> SimplexResult:
    c = np.asarray(c, dtype=np.float64)
    A_ub = np.asarray(A_ub, dtype=np.float64)
    b_ub = np.asarray(b_ub, dtype=np.float64)
    if b_ub.min(initial=0.0) < 0:
        raise ValueError("right-hand sides must be non-negative")

    m, n = A_ub.shape
    # columns: [x (n) | slack (m) | rhs]; no slack carries a cost, so the
    # reduced costs of the slack basis are c itself
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b_ub
    T[-1, :n] = c
    basis = np.arange(n, n + m)
    status = _pivot_loop(T, basis, 2000 + 50 * (m + n))
    if status != "optimal":
        return SimplexResult(status, None, np.nan)

    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T[:m][real, -1]
    return SimplexResult("optimal", x, float(c @ x))


def _pivot_loop(T, basis, max_iter: int) -> str:
    """Run Bland-rule pivots until optimal, unbounded, or out of budget.

    The objective row holds reduced costs for maximization: optimal when
    none of the columns left of the rhs exceeds the tolerance.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        entering = (T[-1, :-1] > PIVOT_TOL).nonzero()[0]
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
