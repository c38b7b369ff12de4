"""Hitting sets over k-set collections.

A subset hitting every k-set contains a top-k tuple of every linear
ranking function, so a small hitting set is a rank-regret representative.
``mdrrr`` solves the hitting set by greedy set cover (Chvatal, Math.
Oper. Res. 1979): pick the tuple that hits the most open sets until every
set is hit, then drop the picks every one of whose sets another pick also
hits.  The output is a minimal hitting set of size at most H(D) times
the optimum, where D is the largest number of sets that hold one tuple
and H the harmonic number.  It replaces the paper's epsilon-net weight
doubling (Bronnimann & Goodrich, DCG 1995), whose first net already
holds nearly the whole ground set on the benchmark's collections.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import EmptyCollection
from .kset import KSetCollection


@dataclass
class MdrrrStats:
    """What a run did: ``total_rounds`` is the number of greedy picks
    and ``doublings`` is always empty.  Both stay only until the
    benchmark's tracer reads a result's params (ROADMAP item 2 step 2).
    """

    total_rounds: int
    doublings: List[int]


def mdrrr(collection: KSetCollection,
          rng: Optional[np.random.Generator] = None,
          return_stats: bool = False):
    """A minimal hitting set of the collection, by greedy pick and prune.

    Each pick is the tuple that hits the most open sets, ties to the
    smallest id.  The picks are then pruned, last picked first: a pick
    goes when every set it hits holds another pick.  The run is
    deterministic; ``rng`` is accepted and unused, and ``return_stats``
    adds an ``MdrrrStats``; both stay only until the benchmark's tracer
    reads a result's params (ROADMAP item 2 step 2).
    """
    sets = collection.member_sets()
    if not sets:
        raise EmptyCollection("cannot hit an empty collection")
    if any(not s for s in sets):
        raise ValueError("collection contains an empty set")

    sizes = np.array([len(s) for s in sets])
    ids = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                      count=int(sizes.sum()))
    present = np.zeros(ids.max() + 1, dtype=bool)
    present[ids] = True
    ground = np.flatnonzero(present)  # ascending, so slot order is id order
    n_prime = ground.size
    # one row of slots per set; a ragged set is padded with slot n_prime,
    # which is never picked
    slots = np.full((len(sets), sizes.max()), n_prime)
    slots[np.arange(sizes.max()) < sizes[:, None]] = (
        np.cumsum(present) - 1)[ids]

    counts = np.bincount(slots.ravel(), minlength=n_prime + 1)[:n_prime]
    open_sets = np.ones(len(sets), dtype=bool)
    picks = []
    while open_sets.any():
        pick = int(counts.argmax())  # the first maximum: the smallest id
        picks.append(pick)
        closed = open_sets & (slots == pick).any(axis=1)
        counts -= np.bincount(slots[closed].ravel(),
                              minlength=n_prime + 1)[:n_prime]
        open_sets &= ~closed

    chosen = np.zeros(n_prime + 1, dtype=bool)
    chosen[picks] = True
    hits = chosen[slots].sum(axis=1)
    for pick in reversed(picks):
        held = (slots == pick).any(axis=1)
        if hits[held].min() >= 2:
            chosen[pick] = False
            hits[held] -= 1
    members = frozenset(ground[chosen[:n_prime]].tolist())
    if not return_stats:
        return members
    return members, MdrrrStats(len(picks), [])
