"""
A first tour on a 7-point, 2-attribute dataset
==============================================

Seven tuples, two attributes, already normalized to [0, 1].  We rank them
under a couple of linear preference functions, compute the angle ranges
on which each tuple is in the top 2, cover the function space with the
fewest ranges, and check the exact rank-regret of the result.
"""

import numpy as np

from rankregret import (
    Dataset,
    LinearFunction,
    exact_rank_regret_2d,
    find_ranges,
    ranks,
    rrr_2d,
    top_k,
)

values = np.array([
    [0.80, 0.28],
    [0.54, 0.45],
    [0.67, 0.60],
    [0.32, 0.42],
    [0.46, 0.72],
    [0.23, 0.52],
    [0.91, 0.43],
])
data = Dataset(values)

# Two users, two rankings.  Equal weights versus "only the first attribute
# matters" produce fairly different orders.  Ties go to the smaller id,
# so the ranks are 1..n and sorting by them gives the order.
for w in ([1, 1], [1, 0]):
    order = np.argsort(ranks(data, LinearFunction(w)), kind="stable")
    print(f"w={w}: ranking = {order.tolist()}")
print(f"top-2 under equal weights: {sorted(top_k(data, LinearFunction([1, 1]), 2))}")

# Every function in 2-D is a single angle in [0, pi/2].  For k = 2, each
# tuple is in the top 2 on (at most) one closed angle interval.
print("\ntop-2 angle ranges:")
for r in find_ranges(data, 2):
    print(f"  tuple {r.tuple_id}: [{r.begin:.4f}, {r.end:.4f}]")

# Covering [0, pi/2] with the fewest ranges gives a set containing a
# top-2 tuple for *every* linear preference: the rank-regret representative.
rep = rrr_2d(data, 2)
regret = exact_rank_regret_2d(data, rep.members)
print(f"\nrepresentative: {sorted(rep.members)} (size {rep.size})")
print(f"exact rank-regret over all functions: {regret}")

# Compare with a single tuple: tuple 3 is ranked last or near-last on a
# whole band of angles, so alone it is a terrible representative.
print(f"rank-regret of {{3}} alone: {exact_rank_regret_2d(data, {3})}")
