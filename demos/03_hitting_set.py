"""
From k-sets to a representative: hitting set
=============================================

A subset hitting every k-set contains a top-k tuple of every linear
ranking function.  ``mdrrr`` finds one by greedy set cover: it picks the
tuple that hits the most sets not yet hit until every set is hit, then
drops the picks that other picks make redundant.  The result is minimal,
and its size is within a factor H(D) = 1 + 1/2 + ... + 1/D of the
smallest hitting set, where D is the largest number of sets that hold
one tuple.
"""

import numpy as np

from rankregret import (
    Dataset,
    enumerate_ksets_2d,
    estimate_rank_regret,
    exact_rank_regret_2d,
    mdrrr,
)

rng = np.random.default_rng(11)
data = Dataset(rng.random((60, 2)))
k = 4

collection = enumerate_ksets_2d(data, k)
sets = collection.member_sets()
print(f"{len(sets)} distinct top-{k} outcomes on n={data.n} tuples")

members, stats = mdrrr(collection, return_stats=True)
most = max(sum(t in s for s in sets) for t in frozenset().union(*sets))
harmonic = sum(1 / i for i in range(1, most + 1))
print(f"hitting set: {sorted(members)} (size {len(members)}, "
      f"{stats.total_rounds} greedy picks before the prune)")
print(f"size bound: H({most}) = {harmonic:.2f} times the optimum")

# hitting every k-set <=> rank-regret at most k, exactly verifiable in 2-D
assert all(members & s for s in sets)
# minimal: each member is the only member in some set
assert all(any(members & s == {t} for s in sets) for t in members)
print(f"\nexact rank-regret: {exact_rank_regret_2d(data, members)} "
      f"(target {k})")
print(f"Monte-Carlo estimate (10,000 functions): "
      f"{estimate_rank_regret(data, members, 10_000, np.random.default_rng(2))}")
