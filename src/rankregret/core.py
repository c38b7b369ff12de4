"""Dataset model, linear ranking functions, scoring, and angle geometry.

Tuples are rows of a normalized value matrix; the tuple id is the row
index (0-based, dense).  A linear ranking function is a non-negative
weight vector, equivalently an origin-starting ray identified by d-1
angles in [0, pi/2].  Ranking is by descending score with ties broken by
ascending tuple id, uniformly across the whole package.
"""

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AngleOutOfRange,
    ConfigError,
    ConstantAttribute,
    DimensionMismatch,
    EmptySubset,
    KOutOfRange,
    NonFiniteValue,
)

HALF_PI = float(np.pi / 2)

#: absolute tolerance for score and angle comparisons on normalized data
NUMERIC_TOL = 1e-9

#: size of one block of scores in :class:`RankRegretKernel`; blocks
#: between 256 KB and 1 MB score fastest
SCORE_BLOCK_BYTES = 1 << 19


def block_rows(width: int) -> int:
    """Rows of ``width`` float64 values in about SCORE_BLOCK_BYTES."""
    return max(1, SCORE_BLOCK_BYTES // (8 * width))


class Dataset:
    """An immutable n x d matrix of tuples with values normalized to [0, 1].

    Tuple ids are the row indices.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError("dataset values must be a 2-D array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("dataset must have at least one row and one column")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("dataset contains non-finite values")
        if arr.min() < -NUMERIC_TOL or arr.max() > 1 + NUMERIC_TOL:
            raise ValueError("dataset values must lie in [0, 1]; normalize first")
        arr.setflags(write=False)
        self.values = arr

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def fingerprint(self) -> str:
        """Short content hash used to tag evaluation reports."""
        digest = hashlib.sha256(self.values.tobytes()).hexdigest()
        return f"n{self.n}-d{self.d}-{digest[:12]}"

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


def _check_weights(w: np.ndarray) -> None:
    """Raise unless every weight vector (the last axis of ``w``) is finite
    and non-negative with a positive entry."""
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weights contain non-finite values")
    if w.size and w.min() < 0:
        raise ValueError("weights must be non-negative")
    if not np.all(w.max(axis=-1) > 0):
        raise ValueError("at least one weight must be positive")


class LinearFunction:
    """A ranking function ``score(t) = sum_i w_i * t[i]`` with w >= 0.

    At least one weight must be positive.  Scores are scale invariant:
    ``c * w`` induces the same ranking for any c > 0.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.array(weights, dtype=np.float64, copy=True)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a 1-D vector")
        _check_weights(w)
        w.setflags(write=False)
        self.weights = w

    @classmethod
    def from_rows(cls, weights) -> list:
        """One function per row of the (m, d) ``weights``: the block is
        copied and checked once, and each function holds a read-only view
        of its row, bit for bit."""
        w = np.array(weights, dtype=np.float64, copy=True)
        if w.ndim != 2 or w.shape[1] < 1:
            raise ValueError("weights must be an (m, d) array")
        _check_weights(w)
        w.setflags(write=False)
        functions = []
        for row in w:
            function = cls.__new__(cls)
            function.weights = row
            functions.append(function)
        return functions

    @property
    def d(self) -> int:
        return self.weights.size

    def score(self, values) -> np.ndarray | float:
        """Dot product against a single tuple (1-D) or a value matrix (2-D)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape[-1] != self.d:
            raise DimensionMismatch(
                f"function has d={self.d} but values have d={arr.shape[-1]}"
            )
        return arr @ self.weights

    def __repr__(self):
        return f"LinearFunction({np.array2string(self.weights, precision=6)})"


@dataclass(frozen=True)
class Representative:
    """A solver output: member ids plus provenance.

    ``bound_guaranteed`` is False only when a partitioning run hit its depth
    cap or box budget and fell back to centroid assignment for some box.
    Evaluation results are attached separately (see the evaluate module).
    """

    members: frozenset
    algorithm: str
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None
    bound_guaranteed: bool = True

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members)


def normalize(raw, directions: Sequence[str],
              names: Optional[Sequence[str]] = None) -> Dataset:
    """Map raw attribute columns onto [0, 1] respecting preference direction.

    Higher-preferred columns map as (v - min) / (max - min); lower-preferred
    as (max - v) / (max - min), so larger normalized values are always
    better.  Constant columns are rejected: they carry no ranking
    information and the affine map is undefined.  The error names the
    column by ``names`` when given, by its index otherwise.
    """
    arr = np.array(raw, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("raw data must be a non-empty 2-D table")
    if len(directions) != arr.shape[1]:
        raise DimensionMismatch(
            f"{len(directions)} directions given for {arr.shape[1]} columns"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("raw data contains non-finite values")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    constant = np.flatnonzero(hi == lo)
    if constant.size:
        j = int(constant[0])
        label = repr(names[j]) if names is not None else j
        raise ConstantAttribute(f"column {label} is constant (max == min)")
    dirs = [_parse_direction(x) for x in directions]
    span = hi - lo
    out = (arr - lo) / span
    for j, direction in enumerate(dirs):
        if direction == "lower":
            out[:, j] = (hi[j] - arr[:, j]) / span[j]
    return Dataset(out)


def _parse_direction(value: str) -> str:
    v = str(value).strip().lower()
    if v in ("higher", "high", "h", "+"):
        return "higher"
    if v in ("lower", "low", "l", "-"):
        return "lower"
    raise ConfigError(f"unknown preference direction {value!r}")


def ranks(dataset: Dataset, function: LinearFunction, ids=None) -> np.ndarray:
    """Ranks (1-based) of the given tuple ids; all tuples when ids is None.

    rank(t) = 1 + #{u : score(u) > score(t)} + #{u : tie with t and u < t}.
    The position in the order by descending score, then ascending id, is
    exactly that count.
    """
    scores = function.score(dataset.values)
    order = np.lexsort((np.arange(dataset.n), -scores))
    out = np.empty(dataset.n, dtype=np.int64)
    out[order] = np.arange(1, dataset.n + 1)
    if ids is None:
        return out
    return out[np.atleast_1d(np.asarray(ids, dtype=np.int64))]


def check_k(k: int, n: int) -> None:
    """Raise KOutOfRange unless 1 <= k <= n: every solver, enumerator and
    top-k kernel checks its k here."""
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in [1, {n}]")


def top_k(dataset: Dataset, function: LinearFunction, k: int) -> frozenset:
    """The ids of the k best tuples under ``function`` (tie rule applied)."""
    check_k(k, dataset.n)
    scores = function.score(dataset.values)
    return frozenset(_select_top_k(scores, k).tolist())


def score_slack(d: int) -> float:
    """Twice the most by which two d-term float products of a unit weight
    vector and values in [0, 1], summed in different orders, can differ:
    each errs by at most about d machine epsilons times the weights' sum,
    which is at most sqrt(d)."""
    return 4 * d * math.sqrt(d) * math.ulp(1.0)


def top_k_ids(dataset: Dataset, weights, k: int) -> np.ndarray:
    """The :func:`top_k` set of every row of the (m, d) ``weights``, as
    an (m, k) array of ids, ascending along each row: the k+1 best
    columns of :func:`best_columns`, settled by :func:`settle_top_k`.
    With k = n every row holds every id, without scoring.
    """
    n, d = dataset.n, dataset.d
    check_k(k, n)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != d:
        raise DimensionMismatch(f"weights must be an (m, {d}) array")
    _check_weights(w)
    if k == n:
        return np.tile(np.arange(n, dtype=np.intp), (len(w), 1))
    return settle_top_k(dataset, w, *best_columns(dataset, w, k + 1))


def best_columns(dataset: Dataset, w: np.ndarray, count: int):
    """(cols, scores): the ``count`` best rows of ``dataset`` under each
    row of the (m, d) weights ``w``, 1 <= count <= n, and their scores.
    Column 0 holds the count-th best, the other columns the count - 1
    better ones in no order.

    Blocks of about SCORE_BLOCK_BYTES of scores are taken by one matrix
    product.  Each row's best are selected from group maxima: with G = 8
    columns per group where n >= 8(count+1) (else G = 1) and g = ceil(n/G)
    groups, group j holds columns j, j+g, j+2g, ...  (padded past n with
    scores below every row's).  One argpartition finds the count groups
    with the largest maxima, and one more keeps the count best of their
    count*G columns.  A score above the count-th largest group maximum
    lies in a chosen group, and a score in another group is at most every
    chosen group's maximum, so these are the count best values of the
    whole row.  Both gathers are one ``np.take`` of flat indices (row *
    width + column) into the block, the same picks as 2-D fancy indexing
    at less cost.
    """
    n, d = dataset.n, dataset.d
    size = 8 if n >= 8 * (count + 1) else 1  # so that g >= count + 1
    groups = -(-n // size)
    # a padding column scores -sum(w), below every row's score
    values_t = np.full((d, size * groups), -1.0)
    values_t[:, :n] = dataset.values.T
    offsets = groups * np.arange(size)[:, None]
    width = count * size
    cols = np.empty((len(w), count), dtype=np.intp)
    picked = np.empty((len(w), count))
    block = block_rows(values_t.shape[1])
    for lo in range(0, len(w), block):
        scores = w[lo:lo + block] @ values_t
        m = len(scores)
        maxima = scores.reshape(m, size, groups).max(axis=1)
        chosen = np.argpartition(maxima, groups - count, axis=1)[:, groups - count:]
        candidate_cols = (chosen[:, None, :] + offsets).reshape(m, width)
        candidates = np.take(scores, candidate_cols
                             + values_t.shape[1] * np.arange(m)[:, None])
        best = np.argpartition(candidates, width - count, axis=1)[:, width - count:]
        best += width * np.arange(m)[:, None]
        picked[lo:lo + block] = np.take(candidates, best)
        cols[lo:lo + block] = np.take(candidate_cols, best)
    return cols, picked


def settle_top_k(dataset: Dataset, w: np.ndarray, cols: np.ndarray,
                 scores: np.ndarray) -> np.ndarray:
    """The :func:`top_k` set of each row of the (m, d) weights ``w``, as an
    (m, k) array of ids ascending along each row, from the row's k+1 best
    ids ``cols`` and their ``scores`` under some float product of ``w``,
    the (k+1)-th best in column 0 and the k better ones after it.

    That product may round differently from :func:`top_k`'s, so a row's
    k best are taken only where its k-th and (k+1)-th scores are more than
    :func:`score_slack` times the weight norm apart, which no rounding
    can reorder; every other row (ties and near-ties) is sent to
    :func:`top_k` itself.
    """
    k = cols.shape[1] - 1
    slack = score_slack(dataset.d) * np.linalg.norm(w, axis=1)
    unclear = scores[:, 1:].min(axis=1) - scores[:, 0] <= slack
    out = cols[:, 1:].astype(np.intp)
    for r in np.flatnonzero(unclear).tolist():
        out[r] = sorted(top_k(dataset, LinearFunction(w[r]), k))
    out.sort(axis=1)
    return out


def _select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties resolved by ascending index.

    O(n) selection: strictly-above entries are always in; the remainder is
    filled from the boundary-score ties in ascending id order.
    """
    n = scores.size
    if k >= n:
        return np.arange(n)
    kth = np.partition(scores, n - k)[n - k]
    above = np.flatnonzero(scores > kth)
    need = k - above.size
    ties = np.flatnonzero(scores == kth)[:need]
    return np.concatenate([above, ties])


#: the steps per side g of the simplicial grid of :func:`member_survivors`
#: are the largest with g^d at most this, which gives the grid g^(d-1)
#: cells: g = 64, 16 and 8 at d = 2, 3 and 4, where the evaluators' time
#: is flat from 16-64, 14-22 and 8-10 steps, and g = 1 (the simplex
#: itself) from d = 13 on
GRID_BUDGET = 4096


def grid_steps(d: int) -> int:
    """The largest g >= 1 with g^d <= GRID_BUDGET."""
    g = 1
    while (g + 1) ** d <= GRID_BUDGET:
        g += 1
    return g


@functools.cache
def simplex_grid(d: int):
    """(vertices, cells, owners, starts): the Freudenthal-Kuhn grid of the
    weight simplex {w >= 0, sum(w) = 1} of d attributes with g =
    :func:`grid_steps` steps per side, built on first use.

    ``vertices`` (V x d) are the points a / g for the vectors a of
    non-negative integers summing to g, and ``cells`` (g^(d-1) x d) hold
    the indices of each cell's vertices.  In the partial sums y_j = a_1 +
    ... + a_j the simplex is the region 0 <= y_1 <= ... <= y_(d-1) <= g
    of the cube [0, g]^(d-1).  Kuhn's triangulation ("Some combinatorial
    lemmas in topology", 1960) cuts the unit cube of low corner c into
    the simplices c, c + e_p1, c + e_p1 + e_p2, ..., c + 1, one per order
    p of the coordinates.  Permuting the coordinates by p carries the
    simplex of order p onto the one of the identity order, so the
    region's cells are the simplices of the identity order with each
    corner's coordinates sorted, by (c_i, -i).  A vertex's index is the
    sum over j of C(y_j + j - 1, j), which numbers the V vertices 0 to
    V - 1 (the combinatorial number system).  Vertex v lies in the cells
    ``owners[starts[v]:starts[v + 1]]``.
    """
    g, m = grid_steps(d), d - 1
    low = np.arange(g ** m)[:, None] // g ** np.arange(m) % g
    order = np.argsort(low * m + np.arange(m - 1, -1, -1), axis=1)
    corners = low[:, None, :] + np.tri(m + 1, m, -1, dtype=np.int64)
    sums = np.take_along_axis(corners, order[:, None, :], axis=2)
    rank = np.array([[math.comb(y + j, j + 1) for y in range(g + 1)]
                     for j in range(m)], dtype=np.int64).reshape(m, g + 1)
    cells = rank[np.arange(m), sums].sum(axis=2)
    vertices = np.empty((math.comb(g + m, m), d))
    vertices[cells] = np.diff(sums, prepend=0, append=g, axis=2) / g
    owners = np.argsort(cells, axis=None, kind="stable") // d
    starts = np.searchsorted(np.sort(cells, axis=None), np.arange(len(vertices)))
    grid = vertices, cells, owners, starts
    for array in grid:
        array.setflags(write=False)  # shared by every caller
    return grid


def member_survivors(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Ascending ids of the members and of the rows that may come within
    NUMERIC_TOL of the best member under some weight vector, by two passes.

    The threshold pass scores every row at the vertices of
    :func:`simplex_grid` in one product per block.  Each cell c takes
    tau_c, the largest over the members of the member's smallest score
    at c's vertices, and each vertex v takes tau_v, the smallest tau_c of
    the cells that hold v.  A row stays only where it scores at least
    tau_v - NUMERIC_TOL at some vertex v.  The dominance pass then drops
    each row left that some member beats by more than NUMERIC_TOL on
    every attribute: the member-by-member test on the one cell of g = 1,
    which drops rows the threshold pass keeps.

    A dropped row r is never near, tied with or ahead of the best member.
    Let S(t, v) be the exact score of row t at the exact vertex a / g and
    s(t, v) the computed one: the vertex rounds each weight by at most
    half an ulp, and a sum of d products of weights summing to 1 and
    values in [0, 1] errs by about (d / 2) eps, so the two differ by less
    than d eps; forming tau_v - NUMERIC_TOL rounds by at most eps / 2.  For
    a unit weight vector w >= 0, w / |w|_1 lies in some cell c, and the
    member m whose smallest score at c's vertices is tau_c has s(m, v) >=
    tau_c >= tau_v at every vertex v of c, where s(r, v) < tau_v -
    NUMERIC_TOL + eps / 2; so S(m, v) - S(r, v) > NUMERIC_TOL - 3d eps.
    w is a non-negative combination of c's vertices with coefficients
    summing to |w|_1 >= 1, so m scores more than NUMERIC_TOL - 3d eps
    above r under w in exact arithmetic.  A row the dominance pass drops
    is below a member by more than NUMERIC_TOL - eps on every attribute,
    so by that much under w.  A float score errs by about 1e-15, so no
    float product ranks r within ``score_slack`` of the best member
    either, at the axis rays included.
    """
    is_member = np.zeros(values.shape[0], dtype=bool)
    is_member[members] = True
    vertices, cells, owners, starts = simplex_grid(values.shape[1])
    mine = values[members] @ vertices.T
    tau = np.full(len(cells), -np.inf)  # per cell
    step = max(1, (1 << 19) // len(cells))
    for lo in range(0, len(mine), step):
        # (members x cells): each member's smallest score at the vertices
        low = mine[lo:lo + step, cells[:, 0]]
        for column in cells.T[1:]:
            np.minimum(low, mine[lo:lo + step, column], out=low)
        np.maximum(tau, low.max(axis=0), out=tau)
    floor = np.minimum.reduceat(tau[owners], starts)[:, None] - NUMERIC_TOL
    step = block_rows(len(vertices))
    # (vertices x rows) per block: whether the row reaches a vertex's floor
    reach = np.concatenate([(vertices @ values[lo:lo + step].T >= floor).any(axis=0)
                            for lo in range(0, values.shape[0], step)])
    rows = np.flatnonzero(reach & ~is_member)
    rows_t = values[rows].T
    pruners_t = (values[members] - NUMERIC_TOL).T
    step = max(1, (1 << 19) // len(members))
    for lo in range(0, rows.size, step):
        # (rows x members): whether the member beats the row on every attribute
        beaten = rows_t[0, lo:lo + step, None] < pruners_t[0]
        for column, pruner in zip(rows_t[1:], pruners_t[1:]):
            beaten &= column[lo:lo + step, None] < pruner
        is_member[rows[lo:lo + step][~beaten.any(axis=1)]] = True
    return np.flatnonzero(is_member)


class RankRegretKernel:
    """Running maximum, over ranking functions, of the best tie-broken rank
    of any member: the rank-regret kernel of both evaluators.

    Only the rows of :func:`member_survivors` (``rows``, values ``kept``)
    are scored: the members and the rows that may come within NUMERIC_TOL
    of the best member somewhere.  Every other row scores below the best
    member under every function, so the best member's rank is unchanged.
    Callers bound many functions at once in float32 with
    :meth:`rank_bounds`, score in float64 only those whose bound exceeds
    the running maximum ``worst``, and fold their scores in with
    :meth:`add`.  ``scored`` counts the functions folded in.  Per block,
    one pass counts the rows scoring at least the best member's score,
    which bounds its rank from above; ranks are computed only for the
    functions whose bound exceeds ``worst``.

    ``slack`` bounds how far the block scores may round differently from
    the caller's reference arithmetic.  A rank is read off the block only
    where no other row scores within ``slack`` of the best member;
    otherwise the ``reference`` scores over all n rows decide the ties.

    ``subset`` names at least one row of ``values``; ``members`` holds
    its ids distinct and ascending.
    """

    def __init__(self, values: np.ndarray, subset, slack: float = 0.0):
        members = sorted({int(t) for t in subset})
        if not members:
            raise EmptySubset("subset must contain at least one tuple id")
        if members[0] < 0 or members[-1] >= values.shape[0]:
            raise ConfigError("subset contains unknown tuple ids")
        self.members = np.array(members, dtype=np.int64)  # ascending
        self.rows = member_survivors(values, self.members)
        self.kept = values[self.rows]
        self.member_cols = np.searchsorted(self.rows, self.members)
        #: functions per block and rows per tile of :meth:`rank_bounds`,
        #: tiles of about SCORE_BLOCK_BYTES of float32 scores; at least 256
        #: functions, as the count over rows costs 3-11 ns a score with 2-8
        #: functions a block against about 0.5 ns with 256
        self.block = max(256, SCORE_BLOCK_BYTES // (4 * self.rows.size))
        self.tile = max(1, SCORE_BLOCK_BYTES // (4 * self.block))
        self.slack = slack
        self.worst = 0
        self.scored = 0
        d = values.shape[1]
        self.margin = np.float32(slack + score_slack(d) / 2
                                 + 4 * (d + 2) * math.sqrt(d) * 2.0 ** -24)

    @functools.cached_property
    def kept32(self) -> np.ndarray:
        """The kept rows in float32, members first; built on the first
        :meth:`rank_bounds`, as the 2-D evaluators never bound."""
        others = np.ones(self.rows.size, dtype=bool)
        others[self.member_cols] = False
        return np.concatenate((self.kept[self.member_cols],
                               self.kept[others])).astype(np.float32)

    def rank_bounds(self, weights: np.ndarray, errors: np.ndarray) -> np.ndarray:
        """Per function, an upper bound on the best member's rank that
        :meth:`add` would take, from float32 weights alone.

        Row i of the float32 ``weights`` lies within ``errors[i]`` in l1
        of the float64 unit weight vector w that the caller would score,
        so with values in [0, 1] every score under it is within
        ``errors[i]`` of the score under w.  The kept rows, members first,
        are scored in float32 in (rows x functions) tiles of ``tile`` rows
        and ``block`` functions; the tiles holding members give each
        function's best member first.  Rounding the values to float32 and
        summing d products moves a score of at most sqrt(d) by at most
        about (d+2) sqrt(d) 2^-24 (Higham, Accuracy and Stability of
        Numerical Algorithms, section 3.1), while the float64 product errs
        by at most score_slack(d)/4.  A row that :meth:`add` counts scores
        within ``slack`` of the best member in float64, so in float32 it
        scores within ``margin`` = slack + score_slack(d)/2 + 4(d+2)
        sqrt(d) 2^-24 of the float32 best member, widened by
        2 ``errors[i]``: twice each side's error (the best members of the
        two arithmetics may differ, each within the error of the other's
        best), and twice again the float32 term, which also covers
        forming the threshold in float32.  So the count of rows within
        that widened margin bounds the count :meth:`add` takes, which
        bounds the rank in the reference arithmetic too; a function whose
        bound is at most ``worst`` cannot raise it.
        """
        rows, tile, members = self.kept32, self.tile, self.members.size
        widths = self.margin + 2 * errors.astype(np.float32)
        bounds = np.empty(len(weights), dtype=np.min_scalar_type(len(rows)))
        for lo in range(0, len(weights), self.block):
            cols = slice(lo, lo + self.block)
            w = weights[cols].T
            first = rows[:tile] @ w
            best = first[:members].max(axis=0)
            for t in range(tile, members, tile):  # members past the first tile
                best = np.maximum(best, (rows[t:min(t + tile, members)] @ w)
                                  .max(axis=0))
            floor = best - widths[cols]
            bounds[cols] = np.add.reduce((first >= floor).view(np.uint8),
                                         axis=0, dtype=bounds.dtype)
            for t in range(tile, len(rows), tile):
                bounds[cols] += np.add.reduce(
                    (rows[t:t + tile] @ w >= floor).view(np.uint8),
                    axis=0, dtype=bounds.dtype)
        return bounds

    def add(self, scores: np.ndarray, reference) -> None:
        """Fold in the scores of ``kept`` under a block of functions, one
        row per function.  ``reference()`` returns the same block scored
        over every row in the reference arithmetic; it is called only
        where a tie within ``slack`` needs it."""
        self.scored += len(scores)
        best = scores[:, self.member_cols].max(axis=1, keepdims=True)
        bound = np.count_nonzero(scores >= best - self.slack, axis=1)
        hot = np.flatnonzero(bound > self.worst)
        if not hot.size:
            return
        above = np.count_nonzero(scores[hot] > best[hot] + self.slack, axis=1)
        alone = bound[hot] - above == 1  # only the best member is that close
        if alone.any():
            self.worst = max(self.worst, 1 + int(above[alone].max()))
        tied = hot[~alone]
        if tied.size:
            ranks = _best_member_ranks(reference()[tied], self.members)
            self.worst = max(self.worst, int(ranks.max()))


def _best_member_ranks(scores: np.ndarray, member_cols: np.ndarray) -> np.ndarray:
    """Best tie-broken member rank under each row of scores, whose columns
    are in ascending id order and whose members sit at ``member_cols``."""
    member_scores = scores[:, member_cols]
    best_col = np.argmax(member_scores, axis=1)  # first max = smallest id
    best = member_scores[np.arange(len(scores)), best_col][:, None]
    ahead = (scores == best) & (np.arange(scores.shape[1])
                                < member_cols[best_col, None])
    return (1 + np.count_nonzero(scores > best, axis=1)
            + np.count_nonzero(ahead, axis=1))


def angles_to_weights(angles) -> LinearFunction:
    """Spherical-coordinate map from d-1 angles in [0, pi/2] to unit weights.

    w1 = cos(a1), w2 = sin(a1) cos(a2), ..., wd = sin(a1) ... sin(a_{d-1}).
    Bijective on the open orthant and exact on axis rays at boundary angles.
    """
    a = np.atleast_1d(np.asarray(angles, dtype=np.float64))
    if a.ndim != 1 or a.size < 1:
        raise ValueError("angles must be a 1-D vector of length d-1 >= 1")
    if np.any(a < -NUMERIC_TOL) or np.any(a > HALF_PI + NUMERIC_TOL):
        raise AngleOutOfRange("angles must lie in [0, pi/2]")
    return LinearFunction(angle_weights(np.clip(a, 0.0, HALF_PI)[None, :])[0])


def angle_weights(angles: np.ndarray) -> np.ndarray:
    """The map of :func:`angles_to_weights`, row by row, without checks:
    an (m, d-1) array of angles in [0, pi/2] to (m, d) unit weights."""
    a = np.asarray(angles, dtype=np.float64)
    ones = np.ones((a.shape[0], 1))
    sines = np.concatenate((ones, np.cumprod(np.sin(a), axis=1)), axis=1)
    cosines = np.concatenate((np.cos(a), ones), axis=1)
    return sines * cosines
