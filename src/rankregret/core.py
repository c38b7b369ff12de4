"""Dataset model, linear ranking functions, scoring, and angle geometry.

Tuples are rows of a normalized value matrix; the tuple id is the row
index (0-based, dense).  A linear ranking function is a non-negative
weight vector, equivalently an origin-starting ray identified by d-1
angles in [0, pi/2].  Ranking is by descending score with ties broken by
ascending tuple id, uniformly across the whole package.
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AngleOutOfRange,
    ConstantAttribute,
    DimensionMismatch,
    DimensionNot2D,
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

    Tuple ids are the row indices.  The optional ``directions`` record the
    per-attribute preference used during ingestion; they play no role in
    any computation afterwards.
    """

    __slots__ = ("values", "directions")

    def __init__(self, values, directions: Optional[Sequence[str]] = None):
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
        self.directions = tuple(directions) if directions is not None else None

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
        if not np.all(np.isfinite(w)):
            raise NonFiniteValue("weights contain non-finite values")
        if w.min() < 0:
            raise ValueError("weights must be non-negative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        w.setflags(write=False)
        self.weights = w

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
class RankedList:
    """A full ordering of tuple ids, best first, under ``function``."""

    order: np.ndarray
    function: LinearFunction


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
    if len(dirs) != arr.shape[1]:
        raise DimensionMismatch(
            f"{len(dirs)} directions given for {arr.shape[1]} columns"
        )
    span = hi - lo
    out = (arr - lo) / span
    for j, direction in enumerate(dirs):
        if direction == "lower":
            out[:, j] = (hi[j] - arr[:, j]) / span[j]
    return Dataset(out, directions=dirs)


def _parse_direction(value: str) -> str:
    v = str(value).strip().lower()
    if v in ("higher", "high", "h", "+"):
        return "higher"
    if v in ("lower", "low", "l", "-"):
        return "lower"
    raise ValueError(f"unknown preference direction {value!r}")


def score(values, function: LinearFunction):
    """Score one tuple (or a matrix of tuples) under ``function``."""
    return function.score(values)


def rank_list(dataset: Dataset, function: LinearFunction) -> RankedList:
    """Full ordering of the dataset, best first, ties by ascending id."""
    scores = function.score(dataset.values)
    ids = np.arange(dataset.n)
    order = np.lexsort((ids, -scores))
    return RankedList(order=order, function=function)


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


def top_k(dataset: Dataset, function: LinearFunction, k: int) -> frozenset:
    """The ids of the k best tuples under ``function`` (tie rule applied)."""
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    scores = function.score(dataset.values)
    return frozenset(_select_top_k(scores, k).tolist())


def score_slack(d: int) -> float:
    """Twice the most by which two d-term float products of a unit weight
    vector and values in [0, 1], summed in different orders, can differ:
    each errs by at most about d machine epsilons times the weights' sum,
    which is at most sqrt(d)."""
    return 4 * d * math.sqrt(d) * np.finfo(float).eps


def top_k_many(dataset: Dataset, weights, k: int) -> list:
    """The :func:`top_k` set of every row of the (m, d) ``weights``, as
    frozensets; see :func:`top_k_ids`."""
    return [frozenset(row) for row in top_k_ids(dataset, weights, k).tolist()]


def top_k_ids(dataset: Dataset, weights, k: int) -> np.ndarray:
    """The :func:`top_k` set of every row of the (m, d) ``weights``, as
    an (m, k) array of ids, ascending along each row.

    Blocks of about SCORE_BLOCK_BYTES of scores are taken by one matrix
    product, and one argpartition keeps each row's k+1 best.  That product
    may round differently from :func:`top_k`'s, so a row's k best are
    taken only where its k-th and (k+1)-th scores are more than
    :func:`score_slack` times the weight norm apart, which no rounding
    can reorder; every other row (ties, near-ties and k = n) is sent to
    :func:`top_k` itself.
    """
    n, d = dataset.n, dataset.d
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in [1, {n}]")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != d:
        raise DimensionMismatch(f"weights must be an (m, {d}) array")
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("weights contain non-finite values")
    if w.size and (w.min() < 0 or not np.all(w.max(axis=1) > 0)):
        raise ValueError("weights must be non-negative with a positive entry")
    out = np.empty((len(w), k), dtype=np.intp)
    unclear = np.ones(len(w), dtype=bool)
    if k < n:
        slack = score_slack(d) * np.linalg.norm(w, axis=1)
        values_t = dataset.values.T
        block = block_rows(n)
        for lo in range(0, len(w), block):
            scores = w[lo:lo + block] @ values_t
            best = np.argpartition(scores, n - k - 1, axis=1)[:, n - k - 1:]
            picked = np.take_along_axis(scores, best, axis=1)
            unclear[lo:lo + block] = (picked[:, 1:].min(axis=1) - picked[:, 0]
                                      <= slack[lo:lo + block])
            out[lo:lo + block] = best[:, 1:]
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


def member_survivors(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Ascending ids of the rows that no member beats by more than
    NUMERIC_TOL on every attribute; the members always stay.

    A dropped row scores strictly below that member under every
    non-negative unit weight vector: the weights sum to at least 1, so the
    exact score gap exceeds NUMERIC_TOL, while a d-term float dot product
    errs by about 1e-15.  So it never outranks the best member, not even
    by a tie, at the axis rays included.
    """
    n, d = values.shape
    is_member = np.zeros(n, dtype=bool)
    is_member[members] = True
    pruners = values[members] - NUMERIC_TOL
    # the strongest members first, so most rows go in the first blocks
    pruners = pruners[np.argsort(-pruners.sum(axis=1), kind="stable")]
    alive = np.flatnonzero(~is_member)
    lo = 0
    while lo < len(pruners) and alive.size:
        step = max(1, (1 << 18) // (alive.size * d))
        block = pruners[lo:lo + step]
        beaten = (values[alive][None, :, :] < block[:, None, :]).all(axis=2)
        alive = alive[~beaten.any(axis=0)]
        lo += step
    is_member[alive] = True
    return np.flatnonzero(is_member)


class RankRegretKernel:
    """Running maximum, over ranking functions, of the best tie-broken rank
    of any member: the rank-regret kernel of both evaluators.

    Only the rows of :func:`member_survivors` (``rows``, values ``kept``)
    are scored, which leaves the best member's rank unchanged.  Callers
    score blocks of ``block`` functions (about SCORE_BLOCK_BYTES of scores)
    with their own arithmetic and fold each in with :meth:`add`.  Per
    block, one pass counts the rows scoring at least the best member's
    score, which bounds its rank from above; ranks are computed only for
    the functions whose bound exceeds the running maximum ``worst``.

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
            raise ValueError("subset contains unknown tuple ids")
        self.members = np.array(members, dtype=np.int64)  # ascending
        self.rows = member_survivors(values, self.members)
        self.kept = values[self.rows]
        self.member_cols = np.searchsorted(self.rows, self.members)
        self.block = block_rows(self.rows.size)
        self.slack = slack
        self.worst = 0

    def add(self, scores: np.ndarray, reference=None) -> None:
        """Fold in the scores of ``kept`` under a block of functions, one
        row per function.  ``reference()`` returns the same block scored
        over every row in the reference arithmetic; it is called only
        where a tie within ``slack`` needs it, and without it the block's
        own scores resolve ties (exact when ``slack`` is 0)."""
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
            if reference is None:
                ranks = _best_member_ranks(scores[tied], self.member_cols)
            else:
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


def weights_to_angles(function: LinearFunction | np.ndarray) -> np.ndarray:
    """Inverse of :func:`angles_to_weights` for non-negative weight vectors.

    The input need not be unit norm (scale does not affect the ray).  A zero
    suffix maps to zero angles, matching the axis-ray convention.
    """
    w = function.weights if isinstance(function, LinearFunction) else np.asarray(function, float)
    w = w / np.linalg.norm(w)
    d = w.size
    angles = np.zeros(d - 1)
    for i in range(d - 1):
        tail = np.linalg.norm(w[i:])
        if tail <= 0.0:
            break  # remaining angles stay 0
        angles[i] = np.arccos(np.clip(w[i] / tail, -1.0, 1.0))
    return angles


def exchange_angle(ti, tj) -> Optional[float]:
    """Angle in (0, pi/2) where two 2-D tuples score equally, if any.

    The crossing exists exactly when one tuple is strictly better on the
    first attribute and the other strictly better on the second; under
    dominance (or boundary-only ties) there is no crossing in the open
    quadrant and None is returned.  Symmetric in its arguments.
    """
    a = np.asarray(ti, dtype=np.float64)
    b = np.asarray(tj, dtype=np.float64)
    if a.shape != (2,) or b.shape != (2,):
        raise DimensionNot2D("exchange_angle is defined for 2-D tuples only")
    num = a[0] - b[0]
    den = b[1] - a[1]
    if num == 0.0 or den == 0.0 or (num > 0) != (den > 0):
        return None
    return float(np.arctan(num / den))
