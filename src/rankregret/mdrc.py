"""Recursive partitioning of the function space into angle boxes.

Ranking functions in d dimensions form the (d-1)-dimensional angle box
[0, pi/2]^(d-1).  A box whose corner functions share a common top-k tuple
assigns that tuple to every function inside it (its rank anywhere in the
box is at most d*k, by chaining the between-functions rank bound across
the box faces); otherwise the box is bisected at the midpoint of the
round-robin dimension.

The boxes are split level by level, and one level is a few array
operations.  The frontier holds each box's low and high angles and the
rows of its 2^(d-1) corners in one table of top-k ids.  A child inherits
its parent's corners except the 2^(d-2) on the split face.  All boxes of a
level have the same width in each dimension, so those face corners lie at
a resolution no earlier level reached and were never scored: each level
dedupes the face corners of all its boxes by their float bits and scores
them in one ``core.top_k_ids`` call.  No corner is ever looked up by its
angles.  ``mdrc`` reads only the assignments; the tree of boxes and its
depth-first leaf order are built by ``partition_function_space`` alone.
Boxes still open at ``DEPTH_CAP_PER_DIM`` halvings per angle, or when the
leaves would pass ``MAX_BOXES``, are closed without the rank bound.
"""

import itertools
import logging
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    HALF_PI,
    Dataset,
    Representative,
    angle_weights,
    block_rows,
    top_k,  # noqa: F401  (perfbench's tracer wraps mdrc.top_k)
    top_k_ids,
)
from .errors import KOutOfRange

log = logging.getLogger(__name__)

#: default recursion cap: 48 halvings per angle dimension
DEPTH_CAP_PER_DIM = 48

#: most leaves a run may make: when the next level would take the leaves
#: and open boxes past it, every open box is closed at its centroid.  On
#: uniform data with small k the leaves grow about 4x per two levels long
#: before the depth cap; a run that stops here peaks at about 120 MB at
#: d=4, k=2
MAX_BOXES = 1 << 18


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


class _Run(NamedTuple):
    levels: List[_Level]
    corners: int      # distinct corners scored
    depth_cap: int    # the cap in force
    stopped: str      # "complete", "depth_cap" or "budget"


def partition_function_space(dataset: Dataset, k: int,
                             depth_cap: Optional[int] = None):
    """Partition the angle box until every leaf has an assigned tuple.

    Returns (leaves, tree): the list of leaf boxes, in depth-first order,
    and a JSON-ready nested tree of the recursion (every internal node has
    exactly two children).  A box at depth l is split on angle l % (d-1).
    A box still open at ``depth_cap``, or when the next level would take
    the leaves and open boxes past ``MAX_BOXES``, is closed by assigning
    the top-1 tuple of its centroid function; such leaves are marked as
    not carrying the rank bound, and one warning per run counts them.
    """
    levels = [(lv.lo.tolist(), lv.hi.tolist(), lv.assigned.tolist(),
               lv.guaranteed.tolist(),
               (2 * np.cumsum(lv.assigned < 0) - 2).tolist())  # first child
              for lv in _partition(dataset, k, depth_cap).levels]
    leaves: List[LeafBox] = []
    tree: dict = {}
    stack = [(0, 0, None)]  # (level, box, the parent's children list)
    while stack:
        level, b, siblings = stack.pop()
        lo, hi, assigned, guaranteed, child = levels[level]
        rect = HyperRectangle(tuple(zip(lo[b], hi[b])), level)
        node = {"ranges": [list(r) for r in rect.ranges], "depth": level}
        if siblings is None:
            tree = node
        else:
            siblings.append(node)
        if assigned[b] < 0:
            node["children"] = []
            stack.append((level + 1, child[b] + 1, node["children"]))
            stack.append((level + 1, child[b], node["children"]))
        else:
            node["assigned"] = assigned[b]
            node["guaranteed"] = guaranteed[b]
            leaves.append(LeafBox(rect, assigned[b], guaranteed[b]))
    return leaves, tree


def _partition(dataset: Dataset, k: int, depth_cap: Optional[int]) -> _Run:
    if dataset.d < 2:
        raise ValueError("partitioning requires d >= 2")
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    if depth_cap is None:
        depth_cap = DEPTH_CAP_PER_DIM * (dataset.d - 1)

    dims = dataset.d - 1
    # corner c takes the high end of dimension i where bit dims-1-i of c
    # is set, which is the order of corners()
    high = ((np.arange(1 << dims)[:, None] >> np.arange(dims)[::-1]) & 1
            ).astype(bool)
    lo = np.zeros((1, dims))
    hi = np.full((1, dims), HALF_PI)
    table = top_k_ids(dataset, angle_weights(np.where(high, hi, lo)), k)
    cidx = np.arange(1 << dims)[None, :]
    scored = len(table)
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
        lo, hi, cidx, table, fresh = _split(
            dataset, k, lo[open_], hi[open_], cidx[open_], table,
            level % dims, high)
        scored += fresh
    return _Run(levels, scored, depth_cap, stopped)


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
           cidx: np.ndarray, table: np.ndarray, dim: int, high: np.ndarray):
    """The two halves of every box at the midpoint of dimension ``dim``,
    in box order (low half first): their angles, their corner rows, the
    table with the new face corners appended, and how many those are."""
    mid = (lo[:, dim] + hi[:, dim]) / 2.0
    low_side = ~high[:, dim]  # the corners the low half keeps
    face = np.where(high[low_side], hi[:, None, :], lo[:, None, :])
    face[:, :, dim] = mid[:, None]
    # past ~50 halvings a float midpoint can equal an end; the face
    # corners are then the parent's own corners on that end
    face_idx = np.empty((len(lo), int(low_side.sum())), dtype=np.intp)
    at_lo = mid == lo[:, dim]
    at_hi = (mid == hi[:, dim]) & ~at_lo
    face_idx[at_lo] = cidx[at_lo][:, low_side]
    face_idx[at_hi] = cidx[at_hi][:, ~low_side]
    new = ~(at_lo | at_hi)
    # one opaque value per corner, equal exactly where the angles' float
    # bits are, so one 1-D unique dedupes the corners of neighbouring boxes
    dims, c = lo.shape[1], cidx.shape[1]
    bits = face[new].view(np.dtype((np.void, 8 * dims))).ravel()
    unique, inverse = np.unique(bits, return_inverse=True)
    face_idx[new] = len(table) + inverse.reshape(-1, face_idx.shape[1])
    angles = unique.view(np.float64).reshape(-1, dims)
    table = np.concatenate(
        [table, top_k_ids(dataset, angle_weights(angles), k)])

    lower_hi, upper_lo = hi.copy(), lo.copy()
    lower_hi[:, dim] = mid
    upper_lo[:, dim] = mid
    lower, upper = cidx.copy(), cidx.copy()
    lower[:, ~low_side] = face_idx
    upper[:, low_side] = face_idx
    return (np.stack([lo, upper_lo], axis=1).reshape(-1, dims),
            np.stack([lower_hi, hi], axis=1).reshape(-1, dims),
            np.stack([lower, upper], axis=1).reshape(-1, c),
            table, len(unique))


def mdrc(dataset: Dataset, k: int,
         depth_cap: Optional[int] = None) -> Representative:
    """Function-space partitioning representative.

    The deduplicated set of leaf assignments; its rank-regret is at most
    d*k when every leaf carries the bound (in practice usually around k).
    ``params["stopped"]`` says whether the run was "complete" or closed
    boxes at the "depth_cap" or at the ``MAX_BOXES`` "budget".
    """
    run = _partition(dataset, k, depth_cap)
    assigned = np.concatenate([lv.assigned for lv in run.levels])
    guaranteed = np.concatenate([lv.guaranteed for lv in run.levels])
    leaves = assigned >= 0
    capped = int(np.count_nonzero(leaves & ~guaranteed))
    return Representative(
        members=frozenset(assigned[leaves].tolist()),
        algorithm="mdrc",
        params={"k": k, "depth_cap": run.depth_cap, "max_boxes": MAX_BOXES,
                "leaves": int(np.count_nonzero(leaves)), "corners": run.corners,
                "capped_leaves": capped, "stopped": run.stopped},
        bound_guaranteed=not capped,
    )
