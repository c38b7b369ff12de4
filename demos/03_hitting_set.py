"""
From k-sets to a representative: geometric hitting set
======================================================

A subset hitting every k-set contains a top-k tuple of every linear
ranking function.  The weight-doubling solver samples weighted nets and
doubles the weights of a missed set until a net hits everything; its
output size is within a logarithmic factor of the optimum.  We compare it
against the plain greedy baseline.
"""

import numpy as np

from rankregret import (
    Dataset,
    enumerate_ksets_2d,
    estimate_rank_regret,
    exact_rank_regret_2d,
    greedy_hitting,
    mdrrr,
)

rng = np.random.default_rng(11)
data = Dataset(rng.random((60, 2)))
k = 4

collection = enumerate_ksets_2d(data, k)
print(f"{len(collection)} distinct top-{k} outcomes on n={data.n} tuples")

net, stats = mdrrr(collection, rng=np.random.default_rng(0), return_stats=True)
greedy = greedy_hitting(collection)

print(f"weight-doubling net: {sorted(net)} (size {len(net)})")
print(f"greedy baseline:     {sorted(greedy)} (size {len(greedy)})")
print(f"doubling diagnostics: guess={stats.final_guess}, "
      f"rounds={stats.total_rounds}, net draw size={stats.net_size}")

# hitting every k-set <=> rank-regret at most k, exactly verifiable in 2-D
assert all(net & s for s in collection.member_sets())
print(f"\nexact rank-regret of the net: {exact_rank_regret_2d(data, net)} "
      f"(target {k})")
print(f"Monte-Carlo estimate (10,000 functions): "
      f"{estimate_rank_regret(data, net, 10_000, np.random.default_rng(2))}")
