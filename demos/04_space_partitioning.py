"""
Covering the function space without enumerating k-sets
======================================================

Ranking functions in d dimensions form a (d-1)-dimensional box of angles.
If a tuple is in the top-k of every corner of a box, its rank anywhere
inside is at most d*k, so the box is done; otherwise the box is bisected.
On real-ish data the recursion stops after a handful of splits because
nearby functions share top-k members, which makes this the scalable
solver of the family.
"""

import time
from collections import Counter

import numpy as np

from rankregret import (
    Dataset,
    estimate_rank_regret,
    mdrc,
    partition_function_space,
)

rng = np.random.default_rng(21)
data = Dataset(rng.random((50_000, 3)))
k = 500  # top 1%

start = time.perf_counter()
rep = mdrc(data, k)
elapsed = time.perf_counter() - start
print(f"n={data.n}, d={data.d}, k={k}: representative of size {rep.size} "
      f"in {elapsed:.3f}s (bound guaranteed: {rep.bound_guaranteed})")

estimate = estimate_rank_regret(data, rep.members, 10_000,
                                np.random.default_rng(0))
print(f"estimated rank-regret over 10,000 sampled functions: {estimate} "
      f"(guarantee {data.d * k}, target {k})")

# The leaf decomposition is available for inspection, with one assigned
# tuple per box.
small = Dataset(rng.random((300, 3)))
leaves = partition_function_space(small, 10)
print(f"\nsmaller instance: {len(leaves)} leaf boxes, "
      f"max depth {max(leaf.box.level for leaf in leaves)}")
for leaf in leaves[:4]:
    spans = ", ".join(f"[{lo:.3f},{hi:.3f}]" for lo, hi in leaf.box.ranges)
    print(f"  depth {leaf.box.level}: {spans} -> tuple {leaf.assigned}")
depths = Counter(leaf.box.level for leaf in leaves)
print("leaves by depth:", dict(sorted(depths.items())))
print(f"{len({leaf.assigned for leaf in leaves})} distinct tuples assigned")
