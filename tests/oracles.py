"""Independent brute-force oracles the real algorithms are checked against.

Everything here is deliberately naive: dense angle grids, event sweeps
over every tuple, exhaustive subset enumeration, rational arithmetic and
definition-level rank counting.  None of it
shares code with the implementations under test.
"""

import heapq
import itertools

import numpy as np

HALF_PI = np.pi / 2


def rank_by_definition(values, weights, t):
    """1 + number of tuples outranking t (ties resolved by ascending id)."""
    scores = np.asarray(values) @ np.asarray(weights, dtype=float)
    s = scores[t]
    better = np.count_nonzero(scores > s)
    tied_ahead = np.count_nonzero((scores == s) & (np.arange(len(scores)) < t))
    return 1 + better + tied_ahead


def topk_by_definition(values, weights, k):
    scores = np.asarray(values) @ np.asarray(weights, dtype=float)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return frozenset(int(t) for t in order[:k])


def dense_sweep_max_rank(values, subset, grid=100_001):
    """Max over a dense angle grid of the best member rank (a lower bound
    on the exact sweep value, equal on generic data with a fine grid)."""
    subset = sorted(subset)
    worst = 0
    for theta in np.linspace(0.0, HALF_PI, grid):
        w = (np.cos(theta), np.sin(theta))
        worst = max(worst, min(rank_by_definition(values, w, t) for t in subset))
    return worst


def dense_sweep_topk_membership(values, k, grid=10_001):
    """First and last grid angle at which each tuple is in the top k."""
    first, last = {}, {}
    for theta in np.linspace(0.0, HALF_PI, grid):
        members = topk_by_definition(values, (np.cos(theta), np.sin(theta)), k)
        for t in members:
            first.setdefault(t, theta)
            last[t] = theta
    return first, last


def dense_sweep_ksets(values, k, grid=10_001):
    """Distinct top-k sets seen along a dense grid."""
    seen = set()
    for theta in np.linspace(0.0, HALF_PI, grid):
        seen.add(topk_by_definition(values, (np.cos(theta), np.sin(theta)), k))
    return seen


class FullExchangeSweep:
    """The ranking order of all n tuples across the 2-D angular sweep.

    Adjacent transpositions popped from a heap in ascending angle, equal
    angles by ascending id pair; an event whose pair is no longer adjacent
    in the expected orientation is stale and skipped.  O(n^2) events.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        n = self.values.shape[0]
        self.n = n
        ids = np.arange(n)
        self.order = [int(t) for t in np.lexsort((ids, -self.values[:, 0]))]
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = ids
        self._heap = []
        for i in range(n - 1):
            self._push(self.order[i], self.order[i + 1])

    def _push(self, upper, lower):
        du = self.values[upper, 0] - self.values[lower, 0]
        dv = self.values[upper, 1] - self.values[lower, 1]
        if dv < 0.0 and du >= 0.0:
            theta = float(np.arctan(du / -dv)) if du > 0.0 else 0.0
            lo, hi = min(upper, lower), max(upper, lower)
            heapq.heappush(self._heap, (theta, lo, hi, upper))

    def batches(self):
        """Yield (theta, swaps), the order already updated past theta."""
        heap, order, position = self._heap, self.order, self.position
        while heap:
            theta = heap[0][0]
            swaps = []
            while heap and heap[0][0] == theta:
                _, lo, hi, upper = heapq.heappop(heap)
                lower = hi if upper == lo else lo
                i = position[upper]
                if i + 1 >= self.n or order[i + 1] != lower:
                    continue
                order[i], order[i + 1] = lower, upper
                position[upper], position[lower] = i + 1, i
                swaps.append((i, upper, lower))
                if i > 0:
                    self._push(order[i - 1], lower)
                if i + 2 < self.n:
                    self._push(upper, order[i + 2])
            if swaps:
                yield theta, swaps


def sweep_ksets_2d(values, k):
    """(members, witness weights) of every top-k set along a full sweep,
    in order of appearance, each witnessed at the middle of its interval."""
    sweep = FullExchangeSweep(values)
    segments = [(frozenset(sweep.order[:k]), 0.0)]
    for theta, swaps in sweep.batches():
        if any(i == k - 1 for i, _, _ in swaps):
            current = frozenset(sweep.order[:k])
            if current != segments[-1][0]:
                segments.append((current, theta))
    out = {}
    for j, (members, start) in enumerate(segments):
        stop = segments[j + 1][1] if j + 1 < len(segments) else HALF_PI
        if stop > start and members not in out:
            mid = (start + stop) / 2.0
            out[members] = (np.cos(mid), np.sin(mid))
    return list(out.items())


def sweep_find_ranges(values, k):
    """(tuple id, begin, end) of every tuple's top-k angle range, read off
    a full sweep.

    A tuple enters or leaves the top k at the batches that move rank k.
    The order after a batch is the just-after limit, so an endpoint claim
    stays closed while the tuple's tie-broken rank at that exact angle is
    within 2k and is shrunk by one representable angle otherwise.  The
    pi/2 endpoint is scored with the exact axis weights (0, 1).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    safe = min(2 * k, n)

    def topk_at(theta, size):
        w = (0.0, 1.0) if theta == HALF_PI else (np.cos(theta), np.sin(theta))
        scores = values[:, 0] * w[0] + values[:, 1] * w[1]
        order = np.lexsort((np.arange(n), -scores))
        return frozenset(int(t) for t in order[:size])

    sweep = FullExchangeSweep(values)
    begin = {t: 0.0 for t in sweep.order[:k]}
    end = {}
    prev = frozenset(sweep.order[:k])
    for theta, swaps in sweep.batches():
        if not any(i == k - 1 for i, _, _ in swaps):
            continue
        current = frozenset(sweep.order[:k])
        if current == prev:
            continue
        at_theta = topk_at(theta, safe)
        for t in current - prev:
            if t not in begin:
                begin[t] = theta if t in at_theta else np.nextafter(theta, np.inf)
        for t in prev - current:
            end[t] = theta if t in at_theta else np.nextafter(theta, -np.inf)
        prev = current
    at_end = topk_at(HALF_PI, safe)
    for t in prev:
        end[t] = HALF_PI if t in at_end else np.nextafter(HALF_PI, -np.inf)
    for t in topk_at(HALF_PI, k) - prev:
        begin.setdefault(t, HALF_PI)
        end[t] = HALF_PI
    return [(t, float(begin[t]), float(end[t]))
            for t in sorted(begin) if t in end and begin[t] <= end[t]]


def sweep_rank_regret_2d(values, subset):
    """Best member rank, maximized over a full sweep: the order after
    every batch that moves a member, plus the tie-broken rank at those
    batch angles and at both endpoints (exact axis weights there)."""
    values = np.asarray(values, dtype=np.float64)
    members = sorted({int(t) for t in subset})

    is_member = set(members)

    def rank_at(theta):
        w = (0.0, 1.0) if theta == HALF_PI else (np.cos(theta), np.sin(theta))
        scores = values[:, 0] * w[0] + values[:, 1] * w[1]
        return min(1 + int(np.count_nonzero(scores > scores[t]))
                   + int(np.count_nonzero(scores[:t] == scores[t]))
                   for t in members)

    sweep = FullExchangeSweep(values)
    worst = int(sweep.position[members].min()) + 1
    for theta, swaps in sweep.batches():
        if any(u in is_member or v in is_member for _, u, v in swaps):
            worst = max(worst, rank_at(theta),
                        int(sweep.position[members].min()) + 1)
    return max(worst, rank_at(HALF_PI))


def sampled_rank_regret(values, members, samples, rng):
    """Worst best-member rank over ``samples`` functions drawn from ``rng``
    as the package's sampler draws them (Box-Muller normals, absolute
    values, unit length), each chunk of up to 1024 scored against every
    tuple by one matrix product and ranked in two comparison passes."""
    values = np.asarray(values, dtype=np.float64)
    members = np.array(sorted({int(t) for t in members}))
    n, d = values.shape
    ids = np.arange(n)
    chunk = max(1, min(1024, (1 << 22) // n))
    worst = 0
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        pairs = (d + 1) // 2
        u = rng.random((m, 2 * pairs))
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
        z = np.empty((m, 2 * pairs))
        z[:, 0::2] = radius * np.cos(2.0 * np.pi * u[:, 1::2])
        z[:, 1::2] = radius * np.sin(2.0 * np.pi * u[:, 1::2])
        w = np.abs(z[:, :d])
        weights = w / np.linalg.norm(w, axis=1)[:, None]
        scores = weights @ values.T
        member_scores = scores[:, members]
        best_col = np.argmax(member_scores, axis=1)
        best_id = members[best_col]
        best_score = member_scores[np.arange(m), best_col]
        outranked = (scores > best_score[:, None]).sum(axis=1)
        tied_ahead = ((scores == best_score[:, None])
                      & (ids[None, :] < best_id[:, None])).sum(axis=1)
        worst = max(worst, int((1 + outranked + tied_ahead).max()))
    return worst


def dominators_by_definition(values, strict=False):
    """How many tuples are >= on both attributes and > on one (or > on
    both when ``strict``), by comparing every pair."""
    v = np.asarray(values, dtype=np.float64)
    ge = (v[None, :, 0] >= v[:, None, 0]) & (v[None, :, 1] >= v[:, None, 1])
    if strict:
        return ((v[None, :, 0] > v[:, None, 0])
                & (v[None, :, 1] > v[:, None, 1])).sum(axis=1)
    gt = (v[None, :, 0] > v[:, None, 0]) | (v[None, :, 1] > v[:, None, 1])
    return (ge & gt).sum(axis=1)


def exhaustive_min_hitting_size(sets):
    """Minimum hitting-set size by subset enumeration over the ground set."""
    sets = [frozenset(s) for s in sets]
    ground = sorted(frozenset().union(*sets))
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            chosen = frozenset(combo)
            if all(chosen & s for s in sets):
                return size
    raise AssertionError("unhittable collection")


def exhaustive_lp_ksets(dataset, k, validator):
    """All C(n, k) subsets passing the supplied separability validator."""
    out = set()
    for combo in itertools.combinations(range(dataset.n), k):
        if validator(dataset, combo) is not None:
            out.add(frozenset(combo))
    return out


def rational_rank_regret_2d(values, subset):
    """Exact rank-regret in 2-D with rational arithmetic.

    Ranks only change where two tuples score equally.  With w = (1, r),
    r >= 0, and w = (0, 1) for the far end, every such ratio r is
    evaluated, together with a point inside each gap between consecutive
    ratios and one beyond the last, so every piece of the ranking is
    visited and every tie is resolved by id exactly.
    """
    from fractions import Fraction

    pts = [(Fraction(float(a)), Fraction(float(b))) for a, b in values]
    members = sorted({int(t) for t in subset})
    ratios = set()
    for i, (a1, a2) in enumerate(pts):
        for b1, b2 in pts[i + 1:]:
            if a2 != b2:
                r = (a1 - b1) / (b2 - a2)
                if r > 0:
                    ratios.add(r)
    ratios = sorted(ratios)
    probes = [Fraction(0)] + ratios
    probes += [(lo + hi) / 2 for lo, hi in zip(probes, probes[1:])]
    probes.append(probes[-1] + 1 if ratios else Fraction(1))
    weights = [(Fraction(1), r) for r in probes] + [(Fraction(0), Fraction(1))]
    worst = 0
    for w1, w2 in weights:
        scores = [w1 * a + w2 * b for a, b in pts]
        best = min(1 + sum(1 for u, s in enumerate(scores)
                           if s > scores[t] or (s == scores[t] and u < t))
                   for t in members)
        worst = max(worst, best)
    return worst


def rational_ksets_2d(values, k):
    """Every top-k set along the sweep, in exact arithmetic, in order of
    first appearance.

    With w = (1, r), r = tan(theta) >= 0, the ratios r at which two
    tuples score equally are computed exactly from the stored doubles.
    The top k is taken at the midpoint of each open interval between
    consecutive ratios (from 0, and one past the last), with scores in
    integers and ties broken by ascending id, so every set is listed,
    also on intervals too narrow for any float angle.
    """
    from fractions import Fraction

    pts = [(Fraction(float(a)), Fraction(float(b))) for a, b in values]
    n = len(pts)
    ratios = set()
    for i, (a1, a2) in enumerate(pts):
        for b1, b2 in pts[i + 1:]:
            if a2 != b2:
                r = (a1 - b1) / (b2 - a2)
                if r > 0:
                    ratios.add(r)
    cuts = [Fraction(0)] + sorted(ratios)
    probes = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])] + [cuts[-1] + 1]
    # the denominators are powers of two: the largest is a multiple of all
    scale = max(max(a.denominator, b.denominator) for a, b in pts)
    ints = [(int(a * scale), int(b * scale)) for a, b in pts]
    out = []
    for r in probes:
        p, q = r.numerator, r.denominator
        # -score * n + id orders by descending score, then ascending id
        keys = sorted(-(q * a + p * b) * n + t for t, (a, b) in enumerate(ints))
        members = frozenset(key % n for key in keys[:k])
        if members not in out:
            out.append(members)
    return out


def _draw_one_function(rng, d):
    """One unit weight vector as the package's sampler draws it: |Box-Muller
    normals| over the generator's uniform stream, normalized."""
    pairs = (d + 1) // 2
    u = rng.random((1, 2 * pairs))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    phase = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((1, 2 * pairs))
    z[:, 0::2] = radius * np.cos(phase)
    z[:, 1::2] = radius * np.sin(phase)
    w = np.abs(z[:, :d])
    return (w / np.linalg.norm(w, axis=1)[:, None])[0]


def one_at_a_time_ksets(values, k, c, rng):
    """(sets, draws) of the coupon-collector run that draws one function at
    a time, scores it against every tuple and stops after ``c`` draws in a
    row find no new top-k set; ``sets`` holds (members, witness weights)."""
    values = np.asarray(values, dtype=np.float64)
    seen = set()
    out = []
    misses = draws = 0
    while misses < c:
        w = _draw_one_function(rng, values.shape[1])
        draws += 1
        members = topk_by_definition(values, w, k)
        if members in seen:
            misses += 1
        else:
            seen.add(members)
            out.append((members, w))
            misses = 0
    return out, draws


def _angle_map(angles):
    """Spherical angles in [0, pi/2] to unit weights, one vector."""
    a = np.asarray(angles, dtype=np.float64)
    sines = np.concatenate(([1.0], np.cumprod(np.sin(a))))
    cosines = np.concatenate((np.cos(a), [1.0]))
    return sines * cosines


def recursive_partition(values, k, depth_cap=None):
    """(leaves, tree, corners) of the angle-box bisection, recursing depth
    first and scoring each distinct corner once; a leaf is (ranges, level,
    assigned, guaranteed), the tree has the package's JSON layout and
    ``corners`` counts the distinct corners scored."""
    values = np.asarray(values, dtype=np.float64)
    d = values.shape[1]
    if depth_cap is None:
        depth_cap = 48 * (d - 1)
    memo = {}

    def topk_at(angle):
        if angle not in memo:
            memo[angle] = topk_by_definition(values, _angle_map(angle), k)
        return memo[angle]

    leaves = []

    def recurse(ranges, level):
        node = {"ranges": [list(r) for r in ranges], "depth": level}
        shared = frozenset.intersection(
            *(topk_at(c) for c in itertools.product(*ranges)))
        if shared or level >= depth_cap:
            if shared:
                assigned, guaranteed = min(shared), True
            else:
                centroid = [(lo + hi) / 2.0 for lo, hi in ranges]
                assigned = min(topk_by_definition(values, _angle_map(centroid), 1))
                guaranteed = False
            leaves.append((ranges, level, assigned, guaranteed))
            node["assigned"] = assigned
            node["guaranteed"] = guaranteed
            return node
        i = level % len(ranges)
        lo, hi = ranges[i]
        mid = (lo + hi) / 2.0
        node["children"] = [
            recurse(ranges[:i] + (half,) + ranges[i + 1:], level + 1)
            for half in ((lo, mid), (mid, hi))]
        return node

    tree = recurse(tuple((0.0, HALF_PI) for _ in range(d - 1)), 0)
    return leaves, tree, len(memo)


def loop_simplex_max(c, A_ub, b_ub, A_eq, b_eq, tol=1e-9, feas_tol=1e-7):
    """(status, x) of a dense two-phase Bland-rule simplex that walks the
    tableau one row and one column at a time: maximize c.x subject to
    A_ub x <= b_ub, A_eq x = b_eq, x >= 0, with non-negative right-hand
    sides.  ``x`` is None unless the status is "optimal"."""
    c = np.asarray(c, dtype=np.float64)
    A_ub = np.asarray(A_ub, dtype=np.float64).reshape(-1, c.size)
    A_eq = np.asarray(A_eq, dtype=np.float64).reshape(-1, c.size)
    n, m_ub, m_eq = c.size, A_ub.shape[0], A_eq.shape[0]
    m = m_ub + m_eq
    width = n + m + 1
    T = np.zeros((m + 1, width))
    T[:m_ub, :n] = A_ub
    T[:m_ub, n:n + m_ub] = np.eye(m_ub)
    T[:m_ub, -1] = b_ub
    T[m_ub:m, :n] = A_eq
    T[m_ub:m, n + m_ub:n + m] = np.eye(m_eq)
    T[m_ub:m, -1] = b_eq
    basis = list(range(n, n + m))
    max_iter = 2000 + 50 * (m + n)

    def pivot(row, col):
        T[row, :] /= T[row, col]
        for i in range(m + 1):
            if i != row and T[i, col] != 0.0:
                T[i, :] -= T[i, col] * T[row, :]
        basis[row] = col

    def load(obj):
        T[-1, :] = obj
        for i in range(m):
            if obj[basis[i]] != 0.0:
                T[-1, :] -= obj[basis[i]] * T[i, :]

    def run(columns):
        for _ in range(max_iter):
            enter = next((j for j in range(columns) if T[-1, j] > tol), -1)
            if enter < 0:
                return "optimal"
            best, leave = np.inf, -1
            for i in range(m):
                a = T[i, enter]
                if a > tol:
                    ratio = T[i, -1] / a
                    if ratio < best - tol or (
                            abs(ratio - best) <= tol
                            and (leave < 0 or basis[i] < basis[leave])):
                        best, leave = ratio, i
            if leave < 0:
                return "unbounded"
            pivot(leave, enter)
        return "iteration_limit"

    if m_eq:
        obj = np.zeros(width)
        obj[n + m_ub:n + m] = -1.0
        load(obj)
        status = run(width - 1)
        if status != "optimal":
            return status, None
        if T[-1, -1] > feas_tol:
            return "infeasible", None
        for i in range(m):
            if basis[i] >= n + m_ub:
                col = next((j for j in range(n + m_ub) if abs(T[i, j]) > tol), -1)
                if col >= 0:
                    pivot(i, col)
                else:
                    T[i, :] = 0.0
    obj = np.zeros(width)
    obj[:n] = c
    load(obj)
    status = run(n + m_ub)
    if status != "optimal":
        return status, None
    x = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i, -1]
    return "optimal", x


def lp_separation_witness(values, members, margin_tol=1e-7):
    """Weights whose top-|members| is exactly ``members``, by maximizing
    the separating margin with ``loop_simplex_max``; None when the best
    margin is not positive (or the LP fails)."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    inside = sorted(members)
    if len(inside) == n:
        return np.full(d, 1.0 / d)
    outside = sorted(set(range(n)) - set(inside))
    c = np.zeros(d + 4)
    c[d + 2], c[d + 3] = 1.0, -1.0
    rows = [np.concatenate([-values[t], [1.0, -1.0, 1.0, -1.0]]) for t in inside]
    rows += [np.concatenate([values[t], [-1.0, 1.0, 0.0, 0.0]]) for t in outside]
    A_eq = np.concatenate([np.ones(d), np.zeros(4)])[None, :]
    status, x = loop_simplex_max(c, np.array(rows), np.zeros(n), A_eq, np.ones(1))
    if status != "optimal" or float(c @ x) <= margin_tol:
        return None
    return np.clip(x[:d], 0.0, None)


def has_weakly_dominated_member(values, members):
    """Whether some tuple outside ``members`` is >= on every attribute
    than some member (equal rows count)."""
    values = np.asarray(values)
    return any(np.all(values[u] >= values[t])
               for t in members for u in range(len(values)) if u not in members)


def lp_graph_ksets(values, k):
    """[(members, witness weights)] of the k-set graph BFS that solves the
    separation LP for every candidate it generates: seeded by the first
    separable top-k among the first axis and 16 functions drawn from
    PCG64(0), then every swap of one member for one non-member in
    ascending (removed, added) order, keeping the separable ones."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    rng = np.random.Generator(np.random.PCG64(0))
    functions = [np.eye(d)[0]] + [_draw_one_function(rng, d) for _ in range(16)]
    for w in functions:
        seed = topk_by_definition(values, w, k)
        witness = lp_separation_witness(values, seed)
        if witness is not None:
            break
    else:
        raise AssertionError("no separable seed k-set")
    out = [(seed, witness)]
    found = {seed}
    queue = [seed]
    while queue:
        current = queue.pop(0)
        rest = sorted(set(range(n)) - current)
        for removed in sorted(current):
            for added in rest:
                candidate = (current - {removed}) | {added}
                if candidate in found:
                    continue
                witness = lp_separation_witness(values, candidate)
                if witness is not None:
                    found.add(candidate)
                    out.append((candidate, witness))
                    queue.append(candidate)
    return out


def loop_find_ranges(values, k):
    """``sweep2d.find_ranges`` as a per-tuple loop: each skyband tuple's
    rank trajectory, one tuple at a time, as (tuple id, begin, end).

    The trajectory counts only the tuples with fewer than 2k strict
    dominators, which leaves every rank up to 2k exact.  Endpoint claims
    stay closed while the tie-broken rank at the exact endpoint is within
    2k and are shrunk by one representable angle otherwise.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if k >= n:
        return [(t, 0.0, HALF_PI) for t in range(n)]
    candidates = np.flatnonzero(dominators_by_definition(values) < k)
    ids = np.flatnonzero(dominators_by_definition(values, strict=True) < 2 * k)
    x1, x2 = values[ids, 0], values[ids, 1]
    out = []
    for t in candidates:
        du = x1 - values[t, 0]
        dv = x2 - values[t, 1]
        angles, states = _loop_trajectory(du, dv, ids, t)
        rank_at_0 = 1 + int(np.count_nonzero(du > 0)
                            + np.count_nonzero((du == 0) & (ids < t)))
        rank_at_end = 1 + int(np.count_nonzero(dv > 0)
                              + np.count_nonzero((dv == 0) & (ids < t)))
        inside = states <= k
        if not (inside.any() or rank_at_0 <= k or rank_at_end <= k):
            continue
        if rank_at_0 <= k:
            b = 0.0
        elif inside[0]:
            b = 0.0 if rank_at_0 <= 2 * k else float(np.nextafter(0.0, np.inf))
        elif inside.any():
            b = float(angles[np.flatnonzero(inside)[0] - 1])
        else:
            b = HALF_PI
        if rank_at_end <= k:
            e = HALF_PI
        elif inside[-1]:
            e = HALF_PI if rank_at_end <= 2 * k \
                else float(np.nextafter(HALF_PI, -np.inf))
        elif inside.any():
            exits = np.flatnonzero(inside[:-1] & ~inside[1:])
            e = float(angles[exits[-1]])
        else:
            e = 0.0
        if b <= e:
            out.append((int(t), b, e))
    return out


def _loop_trajectory(du, dv, ids, t):
    """Distinct crossing angles of tuple t, ascending, and its ranks:
    ``states[0]`` just after angle 0, ``states[i+1]`` just after
    ``angles[i]``, from the other tuples' offsets ``du``/``dv``."""
    rank0 = 1 + int(
        np.count_nonzero(du > 0)
        + np.count_nonzero((du == 0) & (dv > 0))
        + np.count_nonzero((du == 0) & (dv == 0) & (ids < t))
    )
    crossing = ((du > 0) & (dv < 0)) | ((du < 0) & (dv > 0))
    angles = np.arctan(du[crossing] / -dv[crossing])
    deltas = np.where(dv[crossing] > 0, 1, -1)
    sorter = np.argsort(angles, kind="stable")
    angles = angles[sorter]
    ranksums = rank0 + np.cumsum(deltas[sorter])
    if angles.size:
        last = np.flatnonzero(np.diff(angles) > 0)
        last = np.concatenate([last, [angles.size - 1]])
        angles = angles[last]
        ranksums = ranksums[last]
    return angles, np.concatenate([[rank0], ranksums])
