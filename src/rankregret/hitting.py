"""Hitting sets over k-set collections.

A subset hitting every k-set contains a top-k tuple of every linear
ranking function, so a small hitting set is a rank-regret representative.
``mdrrr`` runs the epsilon-net weight-doubling scheme for geometric
hitting set (VC dimension d for half-space ranges): guess the optimum c,
repeatedly draw a weighted net, and double the weights of one missed set
until the net hits everything.  ``greedy_hitting`` is the comparison
baseline.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import EmptyCollection
from .kset import KSetCollection

#: per-round allowance for the sampled net failing to be an epsilon-net
NET_FAILURE_BUDGET = 0.1

#: rescale weights when their total passes this, preserving proportions
WEIGHT_RESCALE_LIMIT = 2.0 ** 500


@dataclass
class MdrrrStats:
    """Diagnostics of a weight-doubling run (for tests and reports)."""

    final_guess: int
    rounds_at_final_guess: int
    total_rounds: int
    net_size: int
    raw_net_size: int
    doublings: List[int]
    weight_totals: List[float]


def mdrrr(collection: KSetCollection,
          rng: Optional[np.random.Generator] = None,
          return_stats: bool = False):
    """Weight-doubling hitting set over the collection's ground set.

    For each guess c (doubling from 1) the net must hit every set of
    weight at least eps = 1/(2c) of the total; a miss doubles the weights
    of the first missed set and the round repeats, up to the iteration
    budget for that guess.  The returned net is pruned of redundant
    members (lightest first) so the output is a minimal hitting set.
    """
    sets = collection.member_sets()
    if not sets:
        raise EmptyCollection("cannot hit an empty collection")
    if any(not s for s in sets):
        raise ValueError("collection contains an empty set")
    d = collection.d
    if d is None:
        raise ValueError("collection must carry the dataset dimensionality d")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))

    ground = np.array(sorted(frozenset().union(*sets)))
    n_prime = ground.size
    sizes = np.array([len(s) for s in sets])
    # one row of slots per set, ascending; a ragged set is padded with
    # slot n_prime, which is never in the net
    slots = np.full((len(sets), sizes.max()), n_prime)
    slots[np.arange(sizes.max()) < sizes[:, None]] = np.searchsorted(
        ground, [t for s in sets for t in sorted(s)])
    member_slots = [row[:size] for row, size in zip(slots, sizes.tolist())]
    weights = np.ones(n_prime)

    guess = 1
    total_rounds = 0
    doublings: List[int] = []
    weight_totals: List[float] = [float(n_prime)]
    while True:
        eps = 1.0 / (2.0 * guess)
        budget = math.ceil(4 * guess * max(math.log2(n_prime / guess), 0.0)) + 8
        net_size = (math.ceil((8 * d / eps) * math.log(8 * d / eps))
                    + math.ceil((4 / eps) * math.log(1 / NET_FAILURE_BUDGET)))
        for round_at_guess in range(1, budget + 1):
            total_rounds += 1
            drawn = rng.choice(n_prime, size=net_size, replace=True,
                               p=weights / weights.sum())
            net = np.unique(drawn)
            net_mask = np.zeros(n_prime + 1, dtype=bool)
            net_mask[net] = True
            missed = np.flatnonzero(~net_mask[slots].any(axis=1))
            if not missed.size:
                break
            first = int(missed[0])
            weights[member_slots[first]] *= 2.0
            doublings.append(first)
            total = weights.sum()
            if total > WEIGHT_RESCALE_LIMIT:
                weights /= 2.0 ** 400  # proportions are all that matter
                total = weights.sum()
            weight_totals.append(float(total))
        if not missed.size:
            break
        guess *= 2
        if guess > 2 * n_prime:
            # the guess has overshot any possible optimum; the ground set
            # itself hits everything, so prune that instead of looping
            round_at_guess, net_size, net = 0, n_prime, np.arange(n_prime)
            break
    members = _prune(ground, net, member_slots, weights)
    if not return_stats:
        return members
    return members, MdrrrStats(guess, round_at_guess, total_rounds, net_size,
                               int(net.size), doublings, weight_totals)


def _prune(ground, net, member_slots, weights) -> frozenset:
    """Drop redundant net members, lightest (then smallest id) first."""
    net = set(int(i) for i in net)
    hits = [len(net.intersection(slots.tolist())) for slots in member_slots]
    containing: dict = {i: [] for i in net}
    for j, slots in enumerate(member_slots):
        for i in slots.tolist():
            if i in containing:
                containing[i].append(j)
    for i in sorted(net, key=lambda i: (weights[i], ground[i])):
        if all(hits[j] >= 2 for j in containing[i]):
            net.discard(i)
            for j in containing[i]:
                hits[j] -= 1
    return frozenset(int(ground[i]) for i in net)


def greedy_hitting(collection: KSetCollection) -> frozenset:
    """Pick the id hitting the most unhit sets until everything is hit."""
    sets = collection.member_sets()
    if not sets:
        raise EmptyCollection("cannot hit an empty collection")
    unhit = list(sets)
    chosen = set()
    while unhit:
        counts: dict = {}
        for s in unhit:
            for t in s:
                counts[t] = counts.get(t, 0) + 1
        best = min(counts, key=lambda t: (-counts[t], t))
        chosen.add(best)
        unhit = [s for s in unhit if best not in s]
    return frozenset(chosen)
