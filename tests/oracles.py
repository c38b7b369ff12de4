"""Independent brute-force oracles the real algorithms are checked against.

Everything here is deliberately naive: dense angle grids, event sweeps
over every tuple, exhaustive subset enumeration, rational arithmetic and
definition-level rank counting.  None of it
shares code with the implementations under test, except that the
per-row ingest ends in the package's ``normalize``.
"""

import csv
import heapq
import itertools
import logging
from fractions import Fraction

import numpy as np

from rankregret.cli import IngestResult
from rankregret.core import normalize
from rankregret.errors import ConfigError, NoUsableRows

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

    A tuple enters or leaves the top k at the batches that move rank k,
    and its range runs from the angle of the first such batch that takes
    it in (0 for the initial top k) to that of the last one that takes it
    out (pi/2 for the final top k).  A tuple outside the sweep's top k
    claims pi/2 alone where the exact axis weights (0, 1) rank it within
    k.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    sweep = FullExchangeSweep(values)
    begin = {t: 0.0 for t in sweep.order[:k]}
    end = {}
    prev = frozenset(sweep.order[:k])
    for theta, swaps in sweep.batches():
        if not any(i == k - 1 for i, _, _ in swaps):
            continue
        current = frozenset(sweep.order[:k])
        for t in current - prev:
            begin.setdefault(t, theta)
        for t in prev - current:
            end[t] = theta
        prev = current
    for t in prev:
        end[t] = HALF_PI
    order = np.lexsort((np.arange(n), -values[:, 1]))
    for t in frozenset(int(t) for t in order[:k]) - prev:
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


def _sampled_weights(rng, d, m):
    """``m`` unit weight vectors drawn from ``rng`` as the package's
    sampler draws them: Box-Muller normals, absolute values, unit length."""
    pairs = (d + 1) // 2
    u = rng.random((m, 2 * pairs))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    z = np.empty((m, 2 * pairs))
    z[:, 0::2] = radius * np.cos(2.0 * np.pi * u[:, 1::2])
    z[:, 1::2] = radius * np.sin(2.0 * np.pi * u[:, 1::2])
    w = np.abs(z[:, :d])
    return w / np.linalg.norm(w, axis=1)[:, None]


def sampled_rank_regret(values, members, samples, rng):
    """Worst best-member rank over ``samples`` functions drawn from ``rng``
    as the package's sampler draws them, each chunk of up to 1024 scored
    against every tuple by one matrix product and ranked in two
    comparison passes."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    chunk = max(1, min(1024, (1 << 22) // n))
    worst = 0
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        weights = _sampled_weights(rng, d, m)
        worst = max(worst, int(one_product_ranks(values, members, weights).max()))
    return worst


def one_product_ranks(values, members, weights):
    """The best member's rank under each row of ``weights``, all scored by
    one matrix product against every tuple and ranked in two comparison
    passes, ties to the smaller id."""
    members = np.array(sorted({int(t) for t in members}))
    ids = np.arange(len(values))
    scores = weights @ np.asarray(values, dtype=np.float64).T
    member_scores = scores[:, members]
    best_col = np.argmax(member_scores, axis=1)
    best_id = members[best_col]
    best_score = member_scores[np.arange(len(weights)), best_col]
    outranked = (scores > best_score[:, None]).sum(axis=1)
    tied_ahead = ((scores == best_score[:, None])
                  & (ids[None, :] < best_id[:, None])).sum(axis=1)
    return 1 + outranked + tied_ahead


def _as_integers(x):
    """The doubles ``x`` as nested lists of Python integers over their
    largest denominator, a power of two, so sums of their products are
    exact."""
    ratios = [v.as_integer_ratio() for v in np.ravel(x).tolist()]
    scale = max((q for _, q in ratios), default=1)
    ints = np.array([p * (scale // q) for p, q in ratios], dtype=object)
    return ints.reshape(np.shape(x)).tolist()


def rational_sampled_rank_regret(values, members, samples, rng):
    """Worst best-member rank over ``samples`` functions drawn from ``rng``
    as the package's sampler draws them, each ranked by the exact scores
    of the stored doubles under the stored weights, ties to the smaller
    id.

    Float scores only screen: with values in [0, 1] and unit weights they
    err by about 1e-16, so a tuple scoring more than 1e-9 above (below)
    the members' float maximum scores above (below) the best member
    exactly.  The tuples within 1e-9 of that maximum, the best member
    among them, are ordered by (exact score, -id) in integers
    (``_as_integers``).
    """
    values = np.asarray(values, dtype=np.float64)
    assert values.min() >= 0.0 and values.max() <= 1.0
    members = np.array(sorted({int(t) for t in members}))
    mine = set(members.tolist())
    rows = _as_integers(values)
    worst = 0
    for lo in range(0, samples, 1024):
        weights = _sampled_weights(rng, values.shape[1], min(1024, samples - lo))
        scores = weights @ values.T
        top = scores[:, members].max(axis=1, keepdims=True)
        rank = 1 + np.count_nonzero(scores > top + 1e-9, axis=1)
        near = np.abs(scores - top) <= 1e-9
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
        for s, w in zip(tied.tolist(), _as_integers(weights[tied])):
            keys = [(sum(a * b for a, b in zip(rows[u], w)), -u)
                    for u in np.flatnonzero(near[s]).tolist()]
            best = max(key for key in keys if -key[1] in mine)
            rank[s] += sum(key > best for key in keys)
        worst = max(worst, int(rank.max()))
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


def _exact_crossings(values):
    """(rows, ratios): the stored doubles as integers on one scale, and
    every ratio r > 0 at which two tuples score equally under w = (1, r),
    computed exactly and sorted."""
    pts = [(Fraction(float(a)), Fraction(float(b))) for a, b in values]
    ratios = set()
    for i, (a1, a2) in enumerate(pts):
        for b1, b2 in pts[i + 1:]:
            if a2 != b2:
                r = (a1 - b1) / (b2 - a2)
                if r > 0:
                    ratios.add(r)
    # the denominators are powers of two: the largest is a multiple of all
    scale = max(max(a.denominator, b.denominator) for a, b in pts)
    return [(int(a * scale), int(b * scale)) for a, b in pts], sorted(ratios)


def _exact_top_k(rows, w1, w2, k):
    """The top k under the integer weights (w1, w2), ties by ascending id."""
    n = len(rows)
    # -score * n + id orders by descending score, then ascending id
    keys = sorted(-(w1 * a + w2 * b) * n + t for t, (a, b) in enumerate(rows))
    return frozenset(key % n for key in keys[:k])


def rational_rank_regret_2d(values, subset):
    """Exact rank-regret in 2-D with rational arithmetic.

    Ranks only change where two tuples score equally.  With w = (1, r),
    r >= 0, and w = (0, 1) for the far end, every such ratio r is
    evaluated, together with a point inside each gap between consecutive
    ratios and one beyond the last, so every piece of the ranking is
    visited and every tie is resolved by id exactly.
    """
    pts, ratios = _exact_crossings(values)
    members = sorted({int(t) for t in subset})
    probes = [Fraction(0)] + ratios
    probes += [(lo + hi) / 2 for lo, hi in zip(probes, probes[1:])]
    probes.append(ratios[-1] + 1 if ratios else Fraction(1))
    weights = [(r.denominator, r.numerator) for r in probes] + [(0, 1)]
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
    rows, ratios = _exact_crossings(values)
    cuts = [Fraction(0)] + ratios
    probes = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])] + [cuts[-1] + 1]
    out = []
    for r in probes:
        members = _exact_top_k(rows, r.denominator, r.numerator, k)
        if members not in out:
            out.append(members)
    return out


def rational_point_topk_2d(values, k):
    """The top k at exactly 0, at every exact crossing ratio and at
    exactly pi/2, in exact arithmetic with ties broken by ascending id,
    in order of first appearance: the sets an optimal representative
    must hit besides those of ``rational_ksets_2d``."""
    rows, ratios = _exact_crossings(values)
    weights = [(1, 0)] + [(r.denominator, r.numerator) for r in ratios]
    out = []
    for w1, w2 in weights + [(0, 1)]:
        members = _exact_top_k(rows, w1, w2, k)
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


def sequential_ksets_random(values, k, c, rng, top_k_of=None):
    """(sets, draws) of the coupon-collector run that draws one function at
    a time, takes its top k and stops after ``c`` draws in a row find no
    new top-k set; ``sets`` holds (members, witness weights).  The top k
    is ``top_k_of(weights)`` (the package's ``core.top_k``, say), by
    definition when None."""
    values = np.asarray(values, dtype=np.float64)
    if top_k_of is None:
        def top_k_of(w):
            return topk_by_definition(values, w, k)
    seen = set()
    out = []
    misses = draws = 0
    while misses < c:
        w = _draw_one_function(rng, values.shape[1])
        draws += 1
        members = top_k_of(w)
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
    """(leaves, corners) of the angle-box bisection, recursing depth first
    and scoring each distinct corner once; a leaf is (ranges, level,
    assigned, guaranteed) and ``corners`` counts the distinct corners
    scored."""
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
            return
        i = level % len(ranges)
        lo, hi = ranges[i]
        mid = (lo + hi) / 2.0
        for half in ((lo, mid), (mid, hi)):
            recurse(ranges[:i] + (half,) + ranges[i + 1:], level + 1)

    recurse(tuple((0.0, HALF_PI) for _ in range(d - 1)), 0)
    return leaves, len(memo)


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


def reaches_best_member(values, members, row):
    """The maximum over the weight simplex {w >= 0, sum(w) = 1} of the
    smallest w.(row - m) over the members m, by ``loop_simplex_max``:
    where it is negative, some member beats ``row`` by at least its
    absolute value under every non-negative weight vector of sum 1."""
    values = np.asarray(values, dtype=np.float64)
    gaps = values[row] - values[np.asarray(sorted(members))]
    d = values.shape[1]
    # variables w, t+ and t-: maximize t = t+ - t- subject to t <= gaps.w
    c = np.concatenate([np.zeros(d), [1.0, -1.0]])
    ones = np.ones((len(gaps), 1))
    A_ub = np.hstack([-gaps, ones, -ones])
    A_eq = np.concatenate([np.ones(d), [0.0, 0.0]])[None, :]
    status, x = loop_simplex_max(c, A_ub, np.zeros(len(gaps)), A_eq, np.ones(1))
    assert status == "optimal", status
    return float(c @ x)


def lp_separation_witness(values, members, margin_tol=1e-7):
    """Weights whose top-|members| is exactly ``members``, by maximizing
    the separating margin with ``loop_simplex_max``; None when the best
    margin is not positive (or the LP fails)."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    if len(members) == n:
        return np.full(d, 1.0 / d)
    margin, x = separation_lp(values, members)
    if not margin > margin_tol:
        return None
    return np.clip(x[:d], 0.0, None)


def separation_lp(values, members, equality=False):
    """(margin, x) of the margin LP of a proper subset ``members`` by
    ``loop_simplex_max``: maximize delta = delta+ - delta- over x = (v,
    s+, s-, delta+, delta-) >= 0 subject to v.t >= s + delta for members
    and v.t <= s for the rest, with sum(v) <= 1 as the last inequality
    row or, with ``equality``, sum(v) = 1 through phase 1.  The margin is
    nan and x None when the LP fails."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    inside = sorted(members)
    outside = sorted(set(range(n)) - set(inside))
    c = np.zeros(d + 4)
    c[d + 2], c[d + 3] = 1.0, -1.0
    rows = [np.concatenate([-values[t], [1.0, -1.0, 1.0, -1.0]]) for t in inside]
    rows += [np.concatenate([values[t], [-1.0, 1.0, 0.0, 0.0]]) for t in outside]
    norm = np.concatenate([np.ones(d), np.zeros(4)])
    if equality:
        status, x = loop_simplex_max(c, rows, np.zeros(n), norm, np.ones(1))
    else:
        status, x = loop_simplex_max(c, rows + [norm], np.append(np.zeros(n), 1.0),
                                     np.zeros((0, d + 4)), np.zeros(0))
    if status != "optimal":
        return np.nan, None
    return float(c @ x), x


def has_weakly_dominated_member(values, members):
    """Whether some tuple outside ``members`` is >= on every attribute
    than some member (equal rows count)."""
    values = np.asarray(values)
    return any(np.all(values[u] >= values[t])
               for t in members for u in range(len(values)) if u not in members)


def lp_graph_ksets(values, k):
    """[(members, witness weights)] of :func:`lp_ksets_graph` with this
    module's own separation LP."""
    sets, _ = lp_ksets_graph(values, k,
                             lambda members: lp_separation_witness(values, members))
    return sets


def lp_ksets_graph(values, k, separate):
    """(sets, decisions) of the k-set graph BFS that decides every distinct
    candidate it generates by ``separate(members)`` (a witness or None, such
    as the package's ``is_valid_kset``), with no filter: seeded by the
    first separable top-k among the first axis and 16 functions drawn from
    PCG64(0), then every swap of one member for one non-member in
    ascending (removed, added) order, keeping the separable ones.  ``sets``
    holds (members, witness) in discovery order; ``decisions`` maps each
    candidate decided, in order, to its witness or None, so its length is
    the number of LPs.  With no separable seed, ``sets`` is empty."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    decisions = {}

    def decide(candidate):
        if candidate not in decisions:
            decisions[candidate] = separate(candidate)
        return decisions[candidate]

    rng = np.random.Generator(np.random.PCG64(0))
    functions = [np.eye(d)[0]] + [_draw_one_function(rng, d) for _ in range(16)]
    for w in functions:
        seed = topk_by_definition(values, w, k)
        witness = decide(seed)
        if witness is not None:
            break
    else:
        return [], decisions
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
                witness = decide(candidate)
                if witness is not None:
                    found.add(candidate)
                    out.append((candidate, witness))
                    queue.append(candidate)
    return out, decisions


def loop_find_ranges(values, k):
    """``sweep2d.find_ranges`` as a per-tuple loop: each skyband tuple's
    rank trajectory, one tuple at a time, as (tuple id, begin, end,
    whether the span holds the point at begin, whether it holds the point
    at end).

    The trajectory counts only the tuples with fewer than 2k strict
    dominators, which leaves every rank up to 2k exact.  The tuple's own
    elements are the axis 0, its crossing angles, where the tuples that
    tie it rank by id, the axis pi/2 (points, ranked by id at a tie too)
    and the open intervals between them.  Its range runs from the first
    to the last element where its rank is at most k; an end on an
    interval takes the point beyond it when the tuple's rank there is at
    most 2k.  A tuple with k dominators is in no top k between the axes,
    but the id tie-break can rank it within k at exactly 0 or pi/2, which
    it then claims.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if k >= n:
        return [(t, 0.0, HALF_PI, True, True) for t in range(n)]
    candidates = np.flatnonzero(dominators_by_definition(values) < k)
    ids = np.flatnonzero(dominators_by_definition(values, strict=True) < 2 * k)
    x1, x2 = values[ids, 0], values[ids, 1]
    out = []
    for t in candidates:
        du = x1 - values[t, 0]
        dv = x2 - values[t, 1]
        angles, states, at = _loop_trajectory(du, dv, ids, t)
        rank_at_0 = 1 + int(np.count_nonzero(du > 0)
                            + np.count_nonzero((du == 0) & (ids < t)))
        rank_at_end = 1 + int(np.count_nonzero(dv > 0)
                              + np.count_nonzero((dv == 0) & (ids < t)))
        # element 2i is point i, element 2i + 1 the interval after it
        points = [rank_at_0] + at.tolist() + [rank_at_end]
        within = ([2 * i for i, r in enumerate(points) if r <= k]
                  + [2 * i + 1 for i, r in enumerate(states.tolist()) if r <= k])
        if not within:
            continue
        lo, hi = min(within), max(within)
        fences = [0.0] + angles.tolist() + [HALF_PI]
        out.append((int(t), fences[lo // 2], fences[(hi + 1) // 2],
                    lo % 2 == 0 or points[lo // 2] <= 2 * k,
                    hi % 2 == 0 or points[(hi + 1) // 2] <= 2 * k))
    for t in np.flatnonzero(dominators_by_definition(values) >= k):
        at_0 = rank_by_definition(values, (1.0, 0.0), t) <= k
        at_end = rank_by_definition(values, (0.0, 1.0), t) <= k
        if at_0 or at_end:
            out.append((int(t), 0.0 if at_0 else HALF_PI,
                        HALF_PI if at_end else 0.0, True, True))
    return sorted(out)


def _loop_trajectory(du, dv, ids, t):
    """Distinct crossing angles of tuple t, ascending, its ranks and its
    ranks at those angles: ``states[0]`` just after angle 0,
    ``states[i+1]`` just after ``angles[i]`` and ``at[i]`` at exactly
    ``angles[i]``, from the other tuples' offsets ``du``/``dv``.  At an
    angle the tuples that tie t there count ahead of it only with a
    smaller id."""
    rank0 = 1 + int(
        np.count_nonzero(du > 0)
        + np.count_nonzero((du == 0) & (dv > 0))
        + np.count_nonzero((du == 0) & (dv == 0) & (ids < t))
    )
    crossing = ((du > 0) & (dv < 0)) | ((du < 0) & (dv > 0))
    angles = np.arctan(du[crossing] / -dv[crossing])
    passing = dv[crossing] > 0
    deltas = np.where(passing, 1, -1)
    # the moves made at the angle itself: passing with a smaller id, or
    # falling behind with a larger one
    settled = np.where(passing == (ids[crossing] < t), deltas, 0)
    sorter = np.argsort(angles, kind="stable")
    angles = angles[sorter]
    ranksums = rank0 + np.cumsum(deltas[sorter])
    nows = np.cumsum(settled[sorter])
    at = np.zeros(0, dtype=np.int64)
    if angles.size:
        last = np.flatnonzero(np.diff(angles) > 0)
        last = np.concatenate([last, [angles.size - 1]])
        angles = angles[last]
        ranksums = ranksums[last]
        before = np.concatenate([[rank0], ranksums[:-1]])
        at = before + np.diff(np.concatenate([[0], nows[last]]))
    return angles, np.concatenate([[rank0], ranksums]), at


log = logging.getLogger(__name__)


def ingest_by_rows(path, cols=None, dirs=None, delimiter=None):
    """``cli.ingest`` as one ``csv`` row and one ``float`` per field at a
    time: the reference its C parse must match in values, dropped rows,
    log lines and errors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first:
            raise NoUsableRows(f"{path} is empty")
        if delimiter is None:
            delimiter = "\t" if "\t" in first else ","
        header = [name.strip() for name in
                  next(csv.reader([first], delimiter=delimiter))]
        reader = csv.reader(fh, delimiter=delimiter)
        body = [row for row in reader if row]

    if cols:
        missing = [c for c in cols if c not in header]
        if missing:
            raise ConfigError(f"unknown columns {missing}; file has {header}")
        indices = [header.index(c) for c in cols]
        names = list(cols)
    else:
        indices = list(range(len(header)))
        names = header

    if dirs is None:
        dirs = ["higher"] * len(names)

    rows = []
    dropped = 0
    for row in body:
        try:
            rows.append([float(row[i]) for i in indices])
        except (ValueError, IndexError):
            dropped += 1
    if dropped:
        log.warning("dropped %d rows with missing or non-numeric values",
                    dropped)
    if not rows:
        raise NoUsableRows(f"no usable rows in {path}")

    raw = np.asarray(rows, dtype=np.float64)
    dataset = normalize(raw, dirs, names)
    return IngestResult(dataset=dataset, raw_values=raw, columns=names,
                        dropped_rows=dropped)
