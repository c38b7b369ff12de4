"""Recursive partitioning of the function space into angle boxes.

Ranking functions in d dimensions form the (d-1)-dimensional angle box
[0, pi/2]^(d-1).  A box whose corner functions share a common top-k tuple
assigns that tuple to every function inside it (its rank anywhere in the
box is at most d*k, by chaining the between-functions rank bound across
the box faces); otherwise the box is bisected at the midpoint of the
round-robin dimension.  The boxes are split level by level: children
share corners with their parents and neighbours, so each level scores
only its corners not seen before, all in one ``core.top_k_many`` call.
"""

import itertools
import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    Dataset,
    Representative,
    angle_weights,
    angles_to_weights,
    top_k,
    top_k_many,
)
from .errors import KOutOfRange

log = logging.getLogger(__name__)

#: default recursion cap: 48 halvings per angle dimension
DEPTH_CAP_PER_DIM = 48


@dataclass(frozen=True)
class HyperRectangle:
    """A box of angles: d-1 closed intervals inside [0, pi/2]."""

    ranges: Tuple[Tuple[float, float], ...]
    level: int = 0

    @property
    def split_dim(self) -> int:
        return self.level % len(self.ranges)


def corners(rect: HyperRectangle) -> List[Tuple[float, ...]]:
    """All 2^(d-1) corner angle vectors, in lexicographic endpoint order."""
    return list(itertools.product(*rect.ranges))


@dataclass(frozen=True)
class LeafBox:
    """A leaf of the partition: the box, its tuple, and whether the d*k
    rank bound applies (False only for depth-cap fallback leaves)."""

    box: HyperRectangle
    assigned: int
    guaranteed: bool


def root_box(d: int) -> HyperRectangle:
    from .core import HALF_PI
    return HyperRectangle(tuple((0.0, HALF_PI) for _ in range(d - 1)))


def partition_function_space(dataset: Dataset, k: int,
                             depth_cap: Optional[int] = None):
    """Partition the angle box until every leaf has an assigned tuple.

    Returns (leaves, tree): the list of leaf boxes, in depth-first order,
    and a JSON-ready nested tree of the recursion (every internal node has
    exactly two children).  At ``depth_cap`` a box is closed by assigning
    the top-1 tuple of its centroid function; such leaves are marked as
    not carrying the rank bound, and one warning per run counts them.
    """
    leaves, tree, _ = _partition(dataset, k, depth_cap)
    return leaves, tree


def _partition(dataset: Dataset, k: int, depth_cap: Optional[int]):
    """(leaves, tree, number of distinct corners scored)."""
    if dataset.d < 2:
        raise ValueError("partitioning requires d >= 2")
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    if depth_cap is None:
        depth_cap = DEPTH_CAP_PER_DIM * (dataset.d - 1)

    memo: dict = {}  # corner angles -> top-k set
    root = root_box(dataset.d)
    tree = _node(root)
    leaf_of = {}  # id(node) -> LeafBox
    frontier = [(root, tree)]
    capped = 0
    while frontier:
        fresh = list(dict.fromkeys(
            c for rect, _ in frontier for c in corners(rect) if c not in memo))
        if fresh:
            sets = top_k_many(dataset, angle_weights(np.array(fresh)), k)
            memo.update(zip(fresh, sets))
        below = []
        for rect, node in frontier:
            shared = frozenset.intersection(*(memo[c] for c in corners(rect)))
            if shared:
                assigned, guaranteed = min(shared), True
            elif rect.level >= depth_cap:
                centroid = tuple((lo + hi) / 2.0 for lo, hi in rect.ranges)
                assigned = min(top_k(dataset, angles_to_weights(centroid), 1))
                guaranteed = False
                capped += 1
            else:
                halves = _split(rect)
                node["children"] = [_node(half) for half in halves]
                below.extend(zip(halves, node["children"]))
                continue
            node["assigned"] = assigned
            node["guaranteed"] = guaranteed
            leaf_of[id(node)] = LeafBox(rect, assigned, guaranteed)
        frontier = below
    if capped:
        log.warning("depth cap %d reached in %d leaves; each is assigned its "
                    "centroid's top-1 without the rank bound", depth_cap, capped)

    leaves: List[LeafBox] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if "children" in node:
            stack.extend(reversed(node["children"]))
        else:
            leaves.append(leaf_of[id(node)])
    return leaves, tree, len(memo)


def _node(rect: HyperRectangle) -> dict:
    return {"ranges": [list(r) for r in rect.ranges], "depth": rect.level}


def _split(rect: HyperRectangle) -> Tuple[HyperRectangle, HyperRectangle]:
    """The two halves of ``rect`` at the midpoint of its split dimension."""
    i = rect.split_dim
    lo, hi = rect.ranges[i]
    mid = (lo + hi) / 2.0
    return tuple(
        HyperRectangle(rect.ranges[:i] + (half,) + rect.ranges[i + 1:],
                       rect.level + 1)
        for half in ((lo, mid), (mid, hi)))


def mdrc(dataset: Dataset, k: int, depth_cap: Optional[int] = None) -> Representative:
    """Function-space partitioning representative.

    The deduplicated set of leaf assignments; its rank-regret is at most
    d*k when every leaf carries the bound (in practice usually around k).
    """
    leaves, _, scored = _partition(dataset, k, depth_cap)
    members = frozenset(leaf.assigned for leaf in leaves)
    capped = sum(not leaf.guaranteed for leaf in leaves)
    return Representative(
        members=members,
        algorithm="mdrc",
        params={"k": k, "depth_cap": depth_cap, "leaves": len(leaves),
                "corners": scored, "capped_leaves": capped},
        bound_guaranteed=not capped,
    )
