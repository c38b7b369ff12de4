"""A fixed reference loop that gauges the host's speed during a run.

On a shared host the same request runs up to half again as slow for a
minute or more at a time.  The benchmark times this loop between requests,
outside their timed regions, and divides the median request time by the
loop's median time, which cancels much of that drift.  The loop leans on
what the program leans on: interpreter work on tuples, a heap, sets,
dicts and float math; many small numpy calls; and a numpy gather over a
table larger than the caches.  Interpreter-bound and memory-bound code do
not slow alike, so the loop holds both.  It never changes, so only the
program moves the ratio.
"""

import heapq
import math
import time

import numpy as np


class Reference:
    """The loop's inputs, built once, and the time of every pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = [tuple(p) for p in rng.random((300, 2)).tolist()] * 6
        self.matrix = rng.random((512, 4))
        self.weights = rng.random((64, 4))
        self.table = rng.random(2_000_000)
        self.index = rng.integers(0, self.table.size, 200_000)
        self.lookup = {i * 7919 % 1_000_003: i for i in range(100_000)}
        self.keys = list(self.lookup)[::5]
        self.seconds = []

    def run(self) -> float:
        """One timed pass; its seconds are also kept in ``self.seconds``."""
        start = time.perf_counter()
        heap, seen, counts = [], set(), {}
        total = 0.0
        for i, (x, y) in enumerate(self.points):
            key = (round(x * 97) + 31 * round(y * 89)) % 1009
            heapq.heappush(heap, (x - y, i))
            if len(heap) > 50:
                heapq.heappop(heap)
            seen.add(key)
            counts[key] = counts.get(key, 0) + 1
            total += math.atan2(y, x + 1e-9)
        total += sum(sorted(seen, key=lambda k: (counts[k], -k))[::11])
        for row in self.weights:
            scores = self.matrix @ row
            total += float(scores[np.argmax(scores)])
        for key in self.keys:
            total += self.lookup[key]
        total += float(self.table[self.index].sum())
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed
