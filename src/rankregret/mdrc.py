"""Recursive partitioning of the function space into angle boxes.

Ranking functions in d dimensions form the (d-1)-dimensional angle box
[0, pi/2]^(d-1).  A box whose corner functions share a common top-k tuple
assigns that tuple to every function inside it (its rank anywhere in the
box is at most d*k, by chaining the between-functions rank bound across
the box faces); otherwise the box is bisected at the midpoint of the
round-robin dimension.

The boxes are split level by level, and one level is a few array
operations.  The frontier holds each box's low and high angles and the
rows of its 2^(d-1) corners in one table of top-k ids, which keeps only
the corners of open boxes.  A child inherits its parent's corners except
the 2^(d-2) on the split face.  All boxes of a level have the same width
in each dimension, so those face corners lie at a resolution no earlier
level reached and were never scored: each level dedupes the face corners
of all its boxes by their float bits and scores them in one batch.  No
corner is ever looked up by its angles.

Each corner of an open box also keeps a shortlist: its best ``SHORTLIST``
rows and a bound on every other row's score.  A face corner lies halfway
along one angle between two corners of its box, and the scores along
that arc are concave, so the parents' bounds bound every row outside
their two shortlists (the arc bound, proved in ``_score_corners``).
Where the union's (k+1)-th best score beats that bound, the face corner
is scored over the union alone, with the same top-k set as over all n
rows; elsewhere (about one corner in seven on the ``space-mdrc``
inputs, mostly in the first levels, where the arcs are long) it is
scored over all rows by ``core.best_columns``.  ``params["full_corners"]``
counts the corners scored over all rows.

``mdrc`` reads only the assignments; ``partition_function_space`` lists
the leaf boxes in the depth-first order of the recursion.
Boxes still open at ``DEPTH_CAP_PER_DIM`` halvings per angle, or when the
leaves would pass ``MAX_BOXES``, are closed without the rank bound.
"""

import itertools
import logging
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .core import (
    HALF_PI,
    NUMERIC_TOL,
    Dataset,
    Representative,
    angle_weights,
    best_columns,
    block_rows,
    check_k,
    score_slack,
    settle_top_k,
    top_k,  # noqa: F401  (perfbench's tracer self-test reads mdrc.top_k)
    top_k_ids,
)
from .errors import ConfigError

log = logging.getLogger(__name__)

#: halvings per angle; a box split fewer times has its midpoint strictly inside
DEPTH_CAP_PER_DIM = 48

#: most leaves a run may make: when the next level would take the leaves
#: and open boxes past it, every open box is closed at its centroid.  On
#: uniform data with small k the leaves grow about 4x per two levels long
#: before the depth cap; a run that stops here peaks at about 120 MB at
#: d=4, k=2
MAX_BOXES = 1 << 18

#: rows in the shortlist of each corner of an open box (k + 1 where k is
#: larger): the union of two is 32 rows, the widest numpy sorts row by
#: row at the fastest rate; at 24 the space-mdrc inputs run as fast and a
#: budget-stopped n=300, d=3, k=1 run a quarter slower
SHORTLIST = 16


@dataclass(frozen=True)
class HyperRectangle:
    """A box of angles: d-1 closed intervals inside [0, pi/2]."""

    ranges: Tuple[Tuple[float, float], ...]
    level: int = 0


def corners(rect: HyperRectangle) -> List[Tuple[float, ...]]:
    """All 2^(d-1) corner angle vectors, in lexicographic endpoint order."""
    return list(itertools.product(*rect.ranges))


@dataclass(frozen=True)
class LeafBox:
    """A leaf of the partition: the box, its tuple, and whether the d*k
    rank bound applies (False only for leaves closed by the depth cap or
    the box budget)."""

    box: HyperRectangle
    assigned: int
    guaranteed: bool


class _Level(NamedTuple):
    """The boxes of one level: (m, d-1) low and high angles, the assigned
    tuple of each leaf (-1 for a box split into the next level's boxes
    2r and 2r+1, r its rank among the split boxes), and whether a leaf
    carries the rank bound."""

    lo: np.ndarray
    hi: np.ndarray
    assigned: np.ndarray
    guaranteed: np.ndarray


class _Shortlists(NamedTuple):
    """One row per corner: ``ids``, its SHORTLIST best rows (k + 1 where k
    is larger), and ``bound``, at least every other row's computed score
    there."""

    ids: np.ndarray
    bound: np.ndarray


class _Run(NamedTuple):
    levels: List[_Level]
    corners: int      # distinct corners scored
    full: int         # of them, the corners scored over all rows
    depth_cap: int    # the cap in force
    stopped: str      # "complete", "depth_cap" or "budget"


def partition_function_space(dataset: Dataset, k: int) -> List[LeafBox]:
    """Partition the angle box until every leaf has an assigned tuple.

    Returns the leaf boxes in the depth-first order of the recursion
    (low half first), which with their levels fixes the tree: a box at
    level l is split on angle l % (d-1) into two boxes at level l + 1.  A
    box still open at ``DEPTH_CAP_PER_DIM`` halvings per angle, or when
    the next level would take the leaves and open boxes past ``MAX_BOXES``,
    is closed by assigning the top-1 tuple of its centroid function; such
    leaves are marked as not carrying the rank bound, and one warning per
    run counts them.
    """
    levels = [(lv.lo.tolist(), lv.hi.tolist(), lv.assigned.tolist(),
               lv.guaranteed.tolist(),
               (2 * np.cumsum(lv.assigned < 0) - 2).tolist())  # first child
              for lv in _partition(dataset, k).levels]
    leaves: List[LeafBox] = []
    stack = [(0, 0)]  # (level, box)
    while stack:
        level, b = stack.pop()
        lo, hi, assigned, guaranteed, child = levels[level]
        if assigned[b] < 0:
            stack += [(level + 1, child[b] + 1), (level + 1, child[b])]
        else:
            leaves.append(LeafBox(HyperRectangle(tuple(zip(lo[b], hi[b])), level),
                                  assigned[b], guaranteed[b]))
    return leaves


def _partition(dataset: Dataset, k: int) -> _Run:
    if dataset.d < 2:
        raise ConfigError("partitioning requires d >= 2")
    check_k(k, dataset.n)

    dims = dataset.d - 1
    depth_cap = DEPTH_CAP_PER_DIM * dims
    # corner c takes the high end of dimension i where bit dims-1-i of c
    # is set, which is the order of corners()
    high = ((np.arange(1 << dims)[:, None] >> np.arange(dims)[::-1]) & 1
            ).astype(bool)
    lo = np.zeros((1, dims))
    hi = np.full((1, dims), HALF_PI)
    angles = np.where(high, hi, lo)
    lists = new = None  # without shortlists where n is at most their length
    if dataset.n > max(SHORTLIST, k + 1):
        table, new, _ = _score_corners(dataset, k, angles)
        lists = _Shortlists(new.ids[:0], new.bound[:0])
    else:
        table = top_k_ids(dataset, angle_weights(angles), k)
    # ids and corner rows in int32 halve the frontier's memory
    table = table.astype(np.int32)
    cidx = np.arange(1 << dims, dtype=np.int32)[None, :]
    scored = full = len(table)
    levels: List[_Level] = []
    leaves, stopped = 0, "complete"
    step = block_rows(cidx.shape[1] * k)
    for level in itertools.count():
        assigned = np.concatenate([_shared_member(table[cidx[a:a + step]])
                                   for a in range(0, len(cidx), step)])
        guaranteed = assigned >= 0
        open_ = np.flatnonzero(~guaranteed)
        leaves += len(guaranteed) - len(open_)
        if open_.size and (level >= depth_cap
                           or leaves + 2 * open_.size > MAX_BOXES):
            stopped = "depth_cap" if level >= depth_cap else "budget"
            lists = new = None  # freed before the centroids are scored
            centroids = (lo[open_] + hi[open_]) / 2.0
            assigned[open_] = top_k_ids(dataset, angle_weights(centroids), 1)[:, 0]
            leaves += open_.size
            log.warning("%s reached in %d leaves; each is assigned its "
                        "centroid's top-1 without the rank bound",
                        f"depth cap {depth_cap}" if stopped == "depth_cap"
                        else f"box budget {MAX_BOXES}", open_.size)
            open_ = open_[:0]
        levels.append(_Level(lo, hi, assigned, guaranteed))
        if not open_.size:
            break
        # keep only the rows of the corners that open boxes hold; the
        # shortlists of the last face corners join the others here, so
        # that a split holds one copy of each
        cidx = cidx[open_]
        live = np.zeros(len(table), dtype=bool)
        live[cidx] = True
        cidx = (np.cumsum(live, dtype=np.int32) - 1)[cidx]
        table = table[live]
        if lists is not None:
            old = len(lists.ids)
            lists, new = _Shortlists(*(
                np.concatenate((a[live[:old]], b[live[old:]]))
                for a, b in zip(lists, new))), None
        lo, hi, cidx, table, new, fresh, fresh_full = _split(
            dataset, k, lo[open_], hi[open_], cidx, table, lists,
            level % dims, high)
        scored += fresh
        full += fresh_full
    return _Run(levels, scored, full, depth_cap, stopped)


def _shared_member(ids: np.ndarray) -> np.ndarray:
    """The smallest id in all corner sets of each box, or -1 if none.

    ``ids`` is (m, C, k), C corner sets of k distinct ids per box.  In
    each box's C*k ids, sorted, an id lies in all C sets exactly when it
    fills C places in a row."""
    c = ids.shape[1]
    s = np.sort(ids.reshape(len(ids), -1), axis=1)
    hit = s[:, :s.shape[1] - c + 1] == s[:, c - 1:]
    first = s[np.arange(len(s)), hit.argmax(axis=1)]
    return np.where(hit.any(axis=1), first, -1)


def _split(dataset: Dataset, k: int, lo: np.ndarray, hi: np.ndarray,
           cidx: np.ndarray, table: np.ndarray, lists, dim: int,
           high: np.ndarray):
    """The two halves of every box at the midpoint of dimension ``dim``,
    in box order (low half first): their angles, their corner rows, the
    table with the new face corners appended, their shortlists (None
    without ``lists``), how many there are and how many of them were
    scored over all rows."""
    mid = (lo[:, dim] + hi[:, dim]) / 2.0
    low_side = ~high[:, dim]  # the corners the low half keeps
    inverse, rows, new, full = _face_corners(dataset, k, lo, hi, mid, cidx,
                                             lists, dim, high)
    face_idx = len(table) + inverse.reshape(len(lo), -1)
    table = np.concatenate([table, rows], dtype=table.dtype)
    halves_lo, halves_hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
    halves_hi[::2, dim] = mid
    halves_lo[1::2, dim] = mid
    halves = np.repeat(cidx, 2, axis=0)
    halves[::2, ~low_side] = face_idx
    halves[1::2, low_side] = face_idx
    return halves_lo, halves_hi, halves, table, new, len(rows), full


def _face_corners(dataset: Dataset, k: int, lo: np.ndarray, hi: np.ndarray,
                  mid: np.ndarray, cidx: np.ndarray, lists, dim: int,
                  high: np.ndarray):
    """The distinct corners of the boxes on their faces at ``mid`` of
    dimension ``dim``: the index among them of each box's, their top-k
    rows and shortlists (None without ``lists``), and how many of them
    were scored over all rows."""
    dims, c = lo.shape[1], cidx.shape[1] // 2
    unique, first, inverse = np.unique(_face_keys(lo, hi, mid, dim, high),
                                       return_index=True, return_inverse=True)
    angles = unique.view(np.float64).reshape(-1, dims)
    if lists is None:
        return (inverse, top_k_ids(dataset, angle_weights(angles), k), None,
                len(angles))
    # face corner j of a box lies halfway along angle dim between the
    # box's j-th corner at the low end and its partner at the high end
    corner = np.flatnonzero(~high[:, dim])[first % c, None]
    ends = cidx[first[:, None] // c, corner + [0, 1 << (dims - 1 - dim)]]
    half = np.max(hi[:, dim] - lo[:, dim]) / 2.0
    return (inverse,
            *_score_corners(dataset, k, angles, lists, ends, half, dim))


def _face_keys(lo: np.ndarray, hi: np.ndarray, mid: np.ndarray, dim: int,
               high: np.ndarray) -> np.ndarray:
    """One opaque value per face corner of every box, (m * C/2,), equal
    exactly where the angles' float bits are, so that one 1-D unique
    dedupes the corners of neighbouring boxes (a function of its own, so
    that the face angles are freed before the corners are scored)."""
    face = np.where(high[~high[:, dim]], hi[:, None, :], lo[:, None, :])
    face[:, :, dim] = mid[:, None]
    return face.view(np.dtype((np.void, 8 * lo.shape[1]))).ravel()


def _arc_bound(total, half, arc, d: int):
    """An upper bound on the computed score at a face corner of every row
    whose computed scores at the corner's two parents sum to at most
    ``total``, where ``half`` is at least the half-width of the box along
    the split angle and ``arc`` is the computed sum of the corner's
    weights from that angle's on; the proof is in :func:`_score_corners`."""
    cos = np.cos(half)
    ulp = math.ulp(1.0)
    mean = np.maximum(total, 0.0) / 2.0
    return (mean + np.minimum(
        ((1.0 + 16.0 * ulp) / cos - 1.0) * (mean + math.sqrt(d) * NUMERIC_TOL),
        (1.0 - cos + 8.0 * ulp) * (1.0 + NUMERIC_TOL) * arc)
        + 8.0 * score_slack(d))


def _ascending(ids: np.ndarray, scores: np.ndarray, length: int):
    """The ``length`` + 1 best ``ids`` of each row and their ``scores``,
    by ascending score."""
    order = np.argsort(scores, axis=1)[:, -length - 1:]
    order += scores.shape[1] * np.arange(len(scores))[:, None]
    return np.take(ids, order), np.take(scores, order)


def _score_corners(dataset: Dataset, k: int, angles: np.ndarray, lists=None,
                   ends=None, half=None, dim=None):
    """Top-k rows and shortlists of the corners at ``angles``, and how many
    of them were scored over all rows.  Without ``lists`` every corner is.
    With them, corner f lies halfway along angle ``dim`` between the
    corners of shortlists a, b = ``ends[f]``, in a box whose half-width
    along it is at most ``half``, and f is scored over the union of their
    shortlists wherever the arc bound certifies that union.

    *A shortlist* holds ``length`` = max(SHORTLIST, k + 1) rows of a corner
    and a bound: every other row's computed score there is at most the
    bound.  A corner scored over all rows keeps its ``length`` best rows,
    bounded by the next best score.

    *The arc bound.*  Let lo < hi be the ends of the box along angle
    i = ``dim``, h = (hi - lo)/2 and c = (lo + hi)/2; a takes lo there, b
    takes hi and f the float mid, and all three share the other angles.
    Along angle i the spherical map is w(x) = P + cos(x) Q + sin(x) R,
    where P, Q, R >= 0 are the weights on the attributes before i, at i
    and after i.  As cos lo + cos hi = 2 cos(c) cos h, and likewise for
    sin, w(c) - P = lam ((w(a) - P) + (w(b) - P)) / 2 with lam = 1/cos h.
    So the exact score S(x) = t.w(x) of a row t satisfies

        S(c) = M + (lam - 1) A,   M = (S(a) + S(b))/2,
                                  A = M - t.P = t.(w(c) - P) / lam.

    Values lie in [-NUMERIC_TOL, 1 + NUMERIC_TOL] (``Dataset``) and |P|_1
    <= sqrt(d), so A <= M + sqrt(d) NUMERIC_TOL, and A <= (1 + NUMERIC_TOL)
    rho cos h, with rho = |w(c) - P|_1 the sum of the weights from
    attribute i on.  Hence S(c) <= M + min((lam - 1)(M + sqrt(d)
    NUMERIC_TOL), (1 - cos h)(1 + NUMERIC_TOL) rho), which grows with M.

    *Rounding.*  Write ss = ``score_slack(d)`` = 4 d sqrt(d) eps.  The
    weights of ``angle_weights`` are within about d eps of the exact map
    at the same float angles, relatively (each sine and cosine within a
    few ulps, one product per factor), and a float sum of d products errs
    by at most d eps/2 times sum |t_j w_j| <= (1 + NUMERIC_TOL) sqrt(d); so
    any computed score is within e = 1.5 ss of S at its float angles.
    The float mid is within eps of c, which moves S and rho by at most
    sqrt(d) eps (the map's derivative along an angle has norm at most 1),
    and the computed rho at f errs by at most 6 d sqrt(d) eps more.  A row
    whose computed scores at a and b sum to at most T has M <= T/2 + e,
    and its computed score at f is within e + sqrt(d) eps of S(f'), f'
    the float mid.  In all, it is at most T/2 + min((lam - 1)(T/2 +
    sqrt(d) NUMERIC_TOL), (1 - cos h)(1 + NUMERIC_TOL) rho) plus (lam + 1)
    e + 0.53 ss + sqrt(d) eps < 4.3 ss, as lam <= sqrt(2).
    :func:`_arc_bound` takes the computed cos h of the largest computed
    half-width, raises 1/cos h by 16 ulps and 1 - cos h (exact, as cos h
    >= 1/2) by 8 ulps, which cover the few ulps of the cosine and the
    rounding of h, and adds 8 ss, which covers the 4.3 ss and the few
    roundings of its own sums and products of terms below 3 sqrt(d).

    *Certified corners.*  Let U be that bound with T the sum of the bounds
    of a and b: every row outside the union scores at most U at f, in the
    arithmetic that scores the union too.  Where the union's (k+1)-th best
    score exceeds U, the k+1 best of all rows are the union's, and
    ``settle_top_k`` reads the same k-th and (k+1)-th scores as over all
    rows: clear rows are decided as no rounding can change, the rest go
    to ``top_k``.  So the top-k set is ``top_k``'s, bit for bit.  f keeps
    the union's ``length`` best, bounded by the larger of U and the
    union's next best.  Every other corner is scored over all rows.
    """
    d = dataset.d
    length = max(SHORTLIST, k + 1)
    m = len(angles)
    rows = np.empty((m, k), dtype=np.intp)
    ids = np.empty((m, length), dtype=np.min_scalar_type(dataset.n))
    bound = np.empty(m)
    full = 0
    step = block_rows(2 * length * d)
    for start in range(0, m, step):
        block = slice(start, start + step)
        w = angle_weights(angles[block])
        if lists is None:
            redo = np.arange(len(w))
            cand = np.empty((len(w), length + 1), dtype=ids.dtype)
            scores = np.empty((len(w), length + 1))
            cap = np.empty(len(w))
        else:
            pair = ends[block]
            union = np.sort(lists.ids[pair].reshape(len(w), -1), axis=1)
            s = np.matmul(np.take(dataset.values, union, axis=0),
                          w[:, :, None])[:, :, 0]
            s[:, 1:][union[:, 1:] == union[:, :-1]] = -np.inf  # once each
            cand, scores = _ascending(union, s, length)
            cap = _arc_bound(lists.bound[pair].sum(axis=1), half,
                             w[:, dim:].sum(axis=1), d)
            redo = np.flatnonzero(scores[:, length - k] <= cap)
        if redo.size:
            cand[redo], scores[redo] = _ascending(
                *best_columns(dataset, w[redo], length + 1), length)
            cap[redo] = -np.inf
            full += redo.size
        rows[block] = settle_top_k(dataset, w, cand[:, length - k:],
                                   scores[:, length - k:])
        ids[block] = cand[:, 1:]
        bound[block] = np.maximum(cap, scores[:, 0])
    return rows, _Shortlists(ids, bound), full


def mdrc(dataset: Dataset, k: int) -> Representative:
    """Function-space partitioning representative.

    The deduplicated set of leaf assignments; its rank-regret is at most
    d*k when every leaf carries the bound (in practice usually around k).
    ``params["stopped"]`` says whether the run was "complete" or closed
    boxes at the "depth_cap" (``params["depth_cap"]``, ``DEPTH_CAP_PER_DIM``
    levels per angle) or at the ``MAX_BOXES`` "budget".
    """
    run = _partition(dataset, k)
    assigned = np.concatenate([lv.assigned for lv in run.levels])
    guaranteed = np.concatenate([lv.guaranteed for lv in run.levels])
    leaves = assigned >= 0
    capped = int(np.count_nonzero(leaves & ~guaranteed))
    return Representative(
        members=frozenset(assigned[leaves].tolist()),
        algorithm="mdrc",
        params={"k": k, "depth_cap": run.depth_cap, "max_boxes": MAX_BOXES,
                "leaves": int(np.count_nonzero(leaves)), "corners": run.corners,
                "full_corners": run.full,
                "capped_leaves": capped, "stopped": run.stopped},
        bound_guaranteed=not capped,
    )
