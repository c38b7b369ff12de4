"""2-D algorithms: top-k angle ranges, interval cover, k-sets, exact rank-regret.

The function space in 2-D is the single angle theta in [0, pi/2] of the
ray (cos theta, sin theta).  Two tuples exchange ranking order at most
once along it, so a tuple's rank is a step function of theta that moves
by one at each of its crossing angles with another tuple.
``_rank_trajectories`` computes these step functions for a block of
tuples at once, as (block x rows) arrays: every row's crossing angles
sorted, the running rank after each, and a mark on the last entry of
each group of equal angles, where the running rank is the rank just
after that angle whatever order the group was sorted in.
``find_ranges`` reads, from these rank trajectories, the first and last
angle at which every tuple is ranked in the top k; covering [0, pi/2]
with the fewest such ranges yields a representative that is never larger
than the optimal one and whose exact rank-regret is at most 2k (each
range's interior rank is bounded by the sum of its endpoint ranks).  At
the two axis endpoints a claim stays closed while the tuple's id
tie-broken rank there is within 2k and is moved one representable angle
inward otherwise.  ``exact_rank_regret_2d`` reads the same trajectories
of the members, and ``enumerate_ksets_2d`` reads the k-sets off the
k-level of the k-skyband's trajectories (``ExchangeSweep`` with k): the
top-k set changes only where a tuple's rank crosses k.  Its walk of every
adjacent transposition decides the enumeration only where float crossing
angles lie too close to trust their order.
"""

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    HALF_PI,
    SCORE_BLOCK_BYTES,
    Dataset,
    LinearFunction,
    RankRegretKernel,
    Representative,
    _select_top_k,
    angle_weights,
)
from .errors import (
    DimensionNot2D,
    EmptySubset,
    KOutOfRange,
    UncoverableSpace,
)
from .kset import KSet, KSetCollection

#: coverage bookkeeping ignores gaps up to this width (endpoint claims
#: shrunk by one ulp around score ties leave sub-1e-15 residues)
COVER_SLACK = 1e-12


@dataclass(frozen=True)
class AngularRange:
    """The closed angle interval [begin, end] where a tuple is in the top k."""

    tuple_id: int
    begin: float
    end: float


class ExchangeSweep:
    """The ranking exchanges along the sweep, in ascending angle.

    Without ``k`` it walks every adjacent transposition of the full
    ranking order.  The order starts at the theta=0 ranking (descending
    first attribute, ties by ascending id) and is updated by the
    transpositions popped from a min-heap in ascending angle; equal
    angles resolve by ascending (low id, high id).  Events carry the
    pair's ids, not positions: an event whose pair is no longer adjacent
    in the expected orientation is stale and skipped, which also absorbs
    duplicate pushes.

    With ``k`` it walks only the exchanges across the rank-k boundary,
    read off the k-level of the rank trajectories (``_level_events``):
    each group of equal crossing angles swaps the tuples leaving the top
    k with those entering it.  Where floats may misorder two crossings,
    it walks every transposition instead, and ``swept`` says so.  The
    benchmark tracer counts swaps through ``batches()``.  Once crossings
    are grouped exactly, that fallback has no work left, and when the
    tracer stops patching ``batches()`` the transposition walk can move
    to the test oracles.

    ``ids`` (ascending; the row numbers by default) name the tuples in
    ``top()`` and on the k-level.
    """

    def __init__(self, values: np.ndarray, k: Optional[int] = None,
                 ids: Optional[np.ndarray] = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 2:
            raise DimensionNot2D("the angular sweep requires d = 2")
        self.values = values
        n = values.shape[0]
        self.n = n
        self.k = k
        self.ids = np.arange(n) if ids is None else np.asarray(ids)
        self.swap_count = 0
        level = None if k is None else _level_events(values, self.ids, k)
        self.swept = level is None
        if not self.swept:
            self._top, self._events = level
            return
        rows = np.arange(n)
        self.order = [int(t) for t in np.lexsort((rows, -values[:, 0]))]
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = rows
        self._heap: list = []
        for i in range(n - 1):
            self._push_if_crossing(self.order[i], self.order[i + 1])

    def top(self) -> frozenset:
        """The ids of the tuples in the top k (all without k)."""
        if self.swept:
            return frozenset(self.ids[self.order[:self.k]].tolist())
        return frozenset(self._top)

    def _push_if_crossing(self, upper: int, lower: int) -> None:
        # an adjacent pair exchanges later in the sweep iff the lower tuple
        # wins on x2 while not losing on x1; equal x1 crosses at theta = 0
        du = self.values[upper, 0] - self.values[lower, 0]
        dv = self.values[upper, 1] - self.values[lower, 1]
        if dv < 0.0 and du >= 0.0:
            theta = float(np.arctan(du / -dv)) if du > 0.0 else 0.0
            lo, hi = (upper, lower) if upper < lower else (lower, upper)
            heapq.heappush(self._heap, (theta, lo, hi, upper))

    def batches(self):
        """Yield (theta, swaps) with all simultaneous events grouped.

        Each swap is (position, upper, lower): the pair that exchanged at
        that position (upper moved down), as rows of ``values``.  On the
        k-level every swap is at position k - 1, the id of a leaving tuple
        paired with that of an entering one.  The order and ``top()`` are
        already updated when a batch is yielded.
        """
        if self.swept:
            yield from self._transpositions()
            return
        top, k = self._top, self.k
        for theta, leaving, entering in self._events:
            top.difference_update(leaving)
            top.update(entering)
            self.swap_count += len(leaving)
            yield theta, [(k - 1, a, b) for a, b in zip(leaving, entering)]

    def _transpositions(self):
        heap = self._heap
        position = self.position
        order = self.order
        while heap:
            theta = heap[0][0]
            swaps: List[Tuple[int, int, int]] = []
            while heap and heap[0][0] == theta:
                _, lo, hi, upper = heapq.heappop(heap)
                lower = hi if upper == lo else lo
                i = position[upper]
                if i + 1 >= self.n or order[i + 1] != lower:
                    continue  # stale: the pair separated or already swapped
                order[i], order[i + 1] = lower, upper
                position[upper] = i + 1
                position[lower] = i
                self.swap_count += 1
                swaps.append((i, upper, lower))
                if i > 0:
                    self._push_if_crossing(order[i - 1], lower)
                if i + 2 < self.n:
                    self._push_if_crossing(upper, order[i + 2])
            if swaps:
                yield theta, swaps


def _angle_scores(values: np.ndarray, thetas) -> np.ndarray:
    """Scores (one row per angle) under the rays (cos theta, sin theta).

    The two axis rays get their exact weights, so ties at pi/2 resolve by
    id rather than by a 6e-17 share of the first attribute.  Elementwise
    products keep the rounding independent of the BLAS build.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    w1 = np.where(thetas == HALF_PI, 0.0, np.cos(thetas))
    w2 = np.sin(thetas)
    return (w1[:, None] * values[None, :, 0]) + (w2[:, None] * values[None, :, 1])


def _topk_at(values: np.ndarray, theta: float, k: int) -> frozenset:
    """Tie-broken top-k ids at one exact angle."""
    return frozenset(_select_top_k(_angle_scores(values, theta)[0], k).tolist())


def _score_angles(kernel: RankRegretKernel, thetas) -> int:
    """Fold the exact angles into ``kernel``; the max best member rank."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    for lo in range(0, thetas.size, kernel.block):
        kernel.add(_angle_scores(kernel.kept, thetas[lo:lo + kernel.block]))
    return kernel.worst


def find_ranges(dataset: Dataset, k: int) -> List[AngularRange]:
    """First and last angle at which each tuple is ranked in the top k.

    Tuples in the top k at angle 0 start their range there; tuples in the
    top k at pi/2 end it there.  Tuples never reaching the top k are
    omitted.  Tuples with at least k dominators can never reach the top k
    and are skipped; the others are read off their rank trajectories
    (``_rank_trajectories``), one block of tuples at a time.  Every
    decision compares a rank with k or 2k, and a tuple with 2k strict
    dominators outranks nobody ranked within 2k at any angle, so the
    trajectories count only the other tuples: ranks up to 2k come out
    exact and larger ranks stay above 2k.

    A range begins at the angle of the first crossing group after which
    the tuple is in the top k and ends at the group after which it last
    leaves it.  A tuple in the top k just after angle 0 but not at 0
    itself (an id tie-break there) keeps the closed claim at 0 while its
    tie-broken rank at 0 is within 2k, and starts one representable angle
    later otherwise; the same rule, mirrored, holds at pi/2.
    """
    _require_2d(dataset)
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    values, n = dataset.values, dataset.n
    if k >= n:
        return [AngularRange(t, 0.0, HALF_PI) for t in range(n)]
    weak, strict = dominator_counts(values)
    candidates = np.flatnonzero(weak < k)
    ids = np.flatnonzero(strict < 2 * k)
    points = values[ids]
    step = _block_size(ids.size)
    out: List[AngularRange] = []
    for lo in range(0, candidates.size, step):
        block = candidates[lo:lo + step]
        tr = _rank_trajectories(points, ids, values[block], block)
        out.extend(_block_ranges(block, tr, k))
    return out


def _block_ranges(block: np.ndarray, tr: "_Trajectories",
                  k: int) -> List[AngularRange]:
    """The top-k ranges of a block of tuples from their trajectories."""
    inside = tr.last & (tr.states <= k)  # group ends with the tuple in the top k
    entered = inside.any(axis=1)
    rows = np.arange(block.size)
    first = np.argmax(inside, axis=1)
    final = inside.shape[1] - 1 - np.argmax(inside[:, ::-1], axis=1)
    # the exit follows the last state in the top k: the group after the
    # last inside group end, or the first group when only rank0 is inside
    exit_at = np.where(entered, np.minimum(final + 1, inside.shape[1] - 1), 0)
    in0 = tr.rank0 <= k
    in_end = tr.states[:, -1] <= k
    ever = in0 | entered
    b = np.select(
        [tr.at_0 <= k, in0, entered],
        [0.0, np.where(tr.at_0 <= 2 * k, 0.0, np.nextafter(0.0, np.inf)),
         tr.angles[rows, first]],
        HALF_PI)  # in the top k only at the very endpoint
    e = np.select(
        [tr.at_end <= k, in_end, ever],
        [HALF_PI,
         np.where(tr.at_end <= 2 * k, HALF_PI, np.nextafter(HALF_PI, -np.inf)),
         tr.angles[rows, exit_at]],
        0.0)  # in the top k only at angle 0 exactly
    keep = b <= e  # a tuple never in the top k gets [pi/2, 0]
    return [AngularRange(int(t), float(lo), float(hi))
            for t, lo, hi in zip(block[keep], b[keep], e[keep])]


#: sort keys of the trajectory kernel: one bit, and the key of +inf
_ONE = np.uint64(1)
_NEVER = np.float64(np.inf).view(np.uint64) << _ONE


def _block_size(rows: int) -> int:
    """Tuples per trajectory block: about SCORE_BLOCK_BYTES per array."""
    return max(1, SCORE_BLOCK_BYTES // (8 * rows))


@dataclass(frozen=True)
class _Trajectories:
    """Rank trajectories of a block of tuples, one row per tuple.

    ``angles`` holds a row's crossing angles in ascending order, +inf for
    the pairs that never cross.  ``states[:, j]`` is the rank once entries
    0..j have crossed.  Equal angles stay separate entries, so a state is
    the rank just after its angle only where ``last`` marks the end of
    its angle group.
    ``rank0`` is the rank just after angle 0; ``at_0`` and ``at_end`` are
    the tie-broken ranks at exactly 0 and pi/2.
    """

    angles: np.ndarray
    states: np.ndarray
    last: np.ndarray
    rank0: np.ndarray
    at_0: np.ndarray
    at_end: np.ndarray


def _rank_trajectories(points: np.ndarray, ids: np.ndarray, own: np.ndarray,
                       own_ids: np.ndarray) -> _Trajectories:
    """Trajectories of the tuples ``own`` (ids ``own_ids``) against the
    rows ``points`` (ids ``ids``), as (block x rows) arrays.

    A row with a smaller x1 and a larger x2 passes the tuple at
    arctan(du / -dv) and one with a larger x1 and a smaller x2 falls
    behind it there.  Each crossing is sorted as one integer key: its
    angle's bits, which order like the angle since it is non-negative,
    shifted left by one with the low bit set for a row passing.  Rows
    that never cross get the key of +inf.  The state after a group of
    equal angles does not depend on the order within the group.
    """
    du = points[:, 0] - own[:, 0, None]
    dv = points[:, 1] - own[:, 1, None]
    ahead = ids < own_ids[:, None]
    at_0 = 1 + np.count_nonzero((du > 0) | (du == 0) & ahead, axis=1)
    at_end = 1 + np.count_nonzero((dv > 0) | (dv == 0) & ahead, axis=1)
    rank0 = 1 + np.count_nonzero(
        (du > 0) | (du == 0) & ((dv > 0) | (dv == 0) & ahead), axis=1)
    passing = (du < 0) & (dv > 0)
    crossing = passing | (du > 0) & (dv < 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = np.arctan(du / -dv)
    keys = np.where(crossing, (angles.view(np.uint64) << _ONE) | passing,
                    _NEVER)
    keys.sort(axis=1)
    angles = (keys >> _ONE).view(np.float64)
    delta = np.where(keys < _NEVER, (keys & _ONE).view(np.int64) * 2 - 1, 0)
    states = rank0[:, None] + np.cumsum(delta, axis=1)
    last = np.empty(angles.shape, dtype=bool)
    last[:, :-1] = angles[:, 1:] != angles[:, :-1]
    last[:, -1] = True
    return _Trajectories(angles, states, last, rank0, at_0, at_end)


def dominator_counts(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each tuple, how many others dominate it: (weak, strict).

    A weak dominator is >= on both attributes and > on one; a strict one
    is > on both.  Tuples with k weak dominators are in no top-k (the
    k-skyband), and tuples with k strict dominators rank below k at every
    angle, the axis endpoints included.

    The tuples are ordered by descending x1, then descending x2, so that
    the dominators of a tuple all precede it; the count of preceding
    tuples with x2 >= and > its own is summed over the O(log n) levels of
    a bottom-up merge, each one vectorized sort and two searchsorted.
    Preceding tuples that are not dominators are subtracted at the end:
    exact duplicates from the weak count, and the larger x2 of an equal
    x1 from the strict one.
    """
    n = values.shape[0]
    x1, x2 = values[:, 0], values[:, 1]
    order = np.lexsort((-x2, -x1))
    rank = np.unique(x2, return_inverse=True)[1].reshape(-1)[order]
    stride = n + 1  # block * stride + rank sorts by block, then by rank
    pos = np.arange(n)
    weak = np.zeros(n, dtype=np.int64)
    strict = np.zeros(n, dtype=np.int64)
    width = 1
    while width < n:
        block = pos // (2 * width)
        right = (pos // width) % 2 == 1
        left_keys = np.sort(block[~right] * stride + rank[~right])
        q_block, q_keys = block[right], block[right] * stride + rank[right]
        ahead = np.searchsorted(left_keys, (q_block + 1) * stride, side="left")
        weak[right] += ahead - np.searchsorted(left_keys, q_keys, side="left")
        strict[right] += ahead - np.searchsorted(left_keys, q_keys, side="right")
        width *= 2
    x1_sorted = x1[order]
    same_x1 = np.zeros(n, dtype=bool)
    same_x1[1:] = x1_sorted[1:] == x1_sorted[:-1]
    same = same_x1.copy()
    same[1:] &= rank[1:] == rank[:-1]
    x1_start = np.maximum.accumulate(np.where(same_x1, 0, pos))
    row_start = np.maximum.accumulate(np.where(same, 0, pos))
    weak -= pos - row_start
    strict -= row_start - x1_start
    out = np.empty((2, n), dtype=np.int64)
    out[:, order] = weak, strict
    return out[0], out[1]


class UncoveredIntervals:
    """The not-yet-covered part of an angle span, as disjoint closed intervals."""

    def __init__(self, lo: float, hi: float):
        self.intervals: List[List[float]] = [[lo, hi]]

    @property
    def total(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def starts_ends(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.intervals:
            return np.empty(0), np.empty(0)
        arr = np.asarray(self.intervals)
        return arr[:, 0], arr[:, 1]

    def subtract(self, b: float, e: float) -> None:
        """Remove the closed interval [b, e]; tiny leftovers vanish.

        Leftovers up to COVER_SLACK wide are dropped: a zero-length
        leftover sits on a selected range's closed endpoint, and the
        one-ulp residues around score ties are handled by the tie-angle
        patching in the solver.
        """
        updated: List[List[float]] = []
        for lo, hi in self.intervals:
            if e < lo or b > hi:
                updated.append([lo, hi])
                continue
            if lo < b:
                updated.append([lo, b])
            if e < hi:
                updated.append([e, hi])
        self.intervals = [iv for iv in updated if iv[1] - iv[0] > COVER_SLACK]


def cover_2d(ranges: List[AngularRange], span: Tuple[float, float] = (0.0, HALF_PI)) -> frozenset:
    """Minimum-size cover of the span by the given closed ranges.

    The maximum-uncovered-coverage greedy (ties to the smaller tuple id)
    is tried first and kept when it achieves the minimum possible count;
    a long mid-span range can bait that order into two extra flank picks,
    in which case the classic furthest-reach sweep (always minimum) is
    returned instead.  Either way the result covers the span with the
    fewest ranges.
    """
    if span[1] <= span[0]:
        return frozenset()
    if not ranges:
        raise UncoverableSpace("no ranges supplied")
    greedy = _max_coverage_cover(ranges, span)
    sweep = _furthest_reach_cover(ranges, span)
    return greedy if len(greedy) <= len(sweep) else sweep


def _max_coverage_cover(ranges, span) -> frozenset:
    """Repeatedly take the range covering the most uncovered space.

    Candidate coverage is measured against the single uncovered interval
    the range meets, located by binary search; when ranges come from
    ``find_ranges`` a candidate never straddles two uncovered intervals,
    because the gap between them was covered by an earlier, longer pick.
    """
    ranges = sorted(ranges, key=lambda r: r.tuple_id)
    uncovered = UncoveredIntervals(*span)
    cand_b = np.array([r.begin for r in ranges])
    cand_e = np.array([r.end for r in ranges])
    cand_id = np.array([r.tuple_id for r in ranges])
    active = np.ones(len(ranges), dtype=bool)
    selected = set()
    while uncovered.intervals:
        if not active.any():
            raise UncoverableSpace("ranges exhausted with space uncovered")
        starts, ends = uncovered.starts_ends()
        idx = np.searchsorted(ends, cand_b, side="left")
        idx_c = np.minimum(idx, len(ends) - 1)
        overlap = np.minimum(cand_e, ends[idx_c]) - np.maximum(cand_b, starts[idx_c])
        coverage = np.where(active & (idx < len(ends)), np.maximum(overlap, 0.0), -1.0)
        best = int(np.argmax(coverage))
        if coverage[best] <= 0.0:
            raise UncoverableSpace("no candidate range covers the remaining space")
        uncovered.subtract(cand_b[best], cand_e[best])
        selected.add(int(cand_id[best]))
        active[best] = False
    return frozenset(selected)


def _furthest_reach_cover(ranges, span) -> frozenset:
    """Left-to-right optimal cover: always extend past the first uncovered
    point as far as possible (ties to the smaller tuple id)."""
    order = sorted(ranges, key=lambda r: (r.begin, -r.end, r.tuple_id))
    selected = set()
    current = span[0]
    i = 0
    n = len(order)
    while current < span[1] - COVER_SLACK:
        best_end = current
        best_id = None
        while i < n and order[i].begin <= current + COVER_SLACK:
            r = order[i]
            if r.end > best_end or (r.end == best_end and best_id is not None
                                    and r.tuple_id < best_id):
                best_end = r.end
                best_id = r.tuple_id
            i += 1
        if best_id is None or best_end <= current:
            raise UncoverableSpace(
                f"no range covers the space just after angle {current!r}")
        selected.add(best_id)
        current = best_end
    return frozenset(selected)


def rrr_2d(dataset: Dataset, k: int) -> Representative:
    """The top-k ranges of ``find_ranges`` covered by the fewest tuples.

    The output is never larger than the optimal representative for
    rank-regret k, and its exact rank-regret is at most 2k.  The interior
    of every selected range is within 2k by the endpoint-anchor argument;
    the finitely many range endpoints (where score ties can reshuffle
    ranks by id) are verified directly and patched with a top-k holder
    when the data is degenerate enough to need it (never, in general
    position).
    """
    ranges = find_ranges(dataset, k)
    members = set(cover_2d(ranges))
    selected = [r for r in ranges if r.tuple_id in members]
    check_angles = {0.0, HALF_PI}
    check_angles.update(r.begin for r in selected)
    check_angles.update(r.end for r in selected)
    # the kernel's running maximum stays within 2k until an angle needs a
    # patch, after which it restarts for the new members
    kernel = RankRegretKernel(dataset.values, sorted(members))
    for theta in sorted(check_angles):
        if _score_angles(kernel, theta) > 2 * k:
            members.add(min(_topk_at(dataset.values, theta, k)))
            kernel = RankRegretKernel(dataset.values, sorted(members))
    return Representative(members=frozenset(members), algorithm="2drrr",
                          params={"k": k})


#: two distinct crossing angles of one tuple this many ulps apart or
#: closer may be ordered differently in floats than in exact arithmetic
NEAR_TIE_ULPS = 4


def enumerate_ksets_2d(dataset: Dataset, k: int) -> KSetCollection:
    """All distinct top-k outcomes along the sweep, in order of appearance.

    The top-k set just after angle 0 comes first; after that the set
    changes exactly where a tuple's rank crosses k, so the sets are read
    off the k-level of the rank trajectories (``ExchangeSweep`` with k).
    Each set carries a witness function (``angles_to_weights``) from the
    middle of the first angle interval on which it is the top-k.  Only
    the k-skyband is walked: every tuple that outranks a top-k member is
    itself in the top k, so dropping the tuples with k dominators changes
    neither the top-k sets nor the angles at which they change.

    Float crossing angles can order two crossings differently from exact
    arithmetic.  Where a tuple has two distinct crossing angles within
    ``NEAR_TIE_ULPS`` of each other, or a group of equal angles leaves
    other than k tuples in the top k, the walk of every adjacent
    transposition decides the whole call instead; ``swept`` on the result
    says so.
    """
    _require_2d(dataset)
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    skyband = np.flatnonzero(dominator_counts(dataset.values)[0] < k)
    sweep = ExchangeSweep(dataset.values[skyband], k, skyband)
    segments = [(sweep.top(), 0.0)]
    for theta, swaps in sweep.batches():
        if any(i == k - 1 for i, _, _ in swaps):
            current = sweep.top()
            if current != segments[-1][0]:
                segments.append((current, theta))
    middles: dict = {}  # each set's first interval, by its middle angle
    for j, (members, start) in enumerate(segments):
        stop = segments[j + 1][1] if j + 1 < len(segments) else HALF_PI
        if stop <= start:
            continue  # zero-width segment from concurrent boundary events
        middles.setdefault(members, (start + stop) / 2.0)
    witnesses = angle_weights(np.array(list(middles.values()))[:, None])
    sets = [KSet(members, LinearFunction(w))
            for members, w in zip(middles, witnesses)]
    return KSetCollection(sets=sets, k=k, complete=True, d=2,
                          swept=sweep.swept)


def _level_events(points: np.ndarray, ids: np.ndarray, k: int):
    """The k-level of the tuples ``points`` (ids ``ids``): (the ids in
    the top k just after angle 0, [(angle, leaving ids, entering ids)] in
    ascending angle), or None at a float near-tie.

    A tuple enters or leaves the top k at a group end whose state is on
    the other side of k than the state at its previous group end (or
    than ``rank0``).  The events of all tuples are sorted by angle and
    grouped by equal angles; each group must leave k tuples in the top k.
    """
    step = _block_size(ids.size)
    initial, angles, tuples, enters = [], [], [], []
    for lo in range(0, ids.size, step):
        block = ids[lo:lo + step]
        tr = _rank_trajectories(points, ids, points[lo:lo + step], block)
        bits = tr.angles.view(np.int64)  # ordered like the angles, all >= 0
        gap = bits[:, 1:] - bits[:, :-1]
        if np.any((gap > 0) & (gap <= NEAR_TIE_ULPS)):
            return None
        in0 = tr.rank0 <= k
        row, col = np.nonzero(tr.last)
        inside = tr.states[row, col] <= k
        before = np.empty_like(inside)
        before[1:] = inside[:-1]
        first = np.ones(row.size, dtype=bool)
        first[1:] = row[1:] != row[:-1]
        before[first] = in0  # every row has a group end
        moved = inside != before
        initial.append(block[in0])
        angles.append(tr.angles[row[moved], col[moved]])
        tuples.append(block[row[moved]])
        enters.append(inside[moved])
    angles = np.concatenate(angles)
    order = np.argsort(angles)
    angles = angles[order]
    tuples = np.concatenate(tuples)[order]
    enters = np.concatenate(enters)[order]
    new = np.ones(angles.size, dtype=bool)
    new[1:] = angles[1:] != angles[:-1]
    bounds = np.append(np.flatnonzero(new), angles.size)
    # a tuple's events alternate, so the top k has k + (enters - leaves)
    # tuples; the initial top k has k
    if np.any(np.cumsum(np.where(enters, 1, -1))[bounds[1:] - 1] != 0):
        return None
    events = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        group, enter = tuples[lo:hi], enters[lo:hi]
        events.append((float(angles[lo]), group[~enter].tolist(),
                       group[enter].tolist()))
    return set(np.concatenate(initial).tolist()), events


def exact_rank_regret_2d(dataset: Dataset, subset) -> int:
    """max over theta of (best rank among ``subset`` members), exactly.

    Member ranks only change at the members' crossing angles, so the best
    member rank is constant between consecutive angles of their union: the
    members' rank trajectories (``_rank_trajectories``, blocks of members)
    give it on every open interval, as the state after each member's last
    crossing at or before the angle, and the angles themselves (where
    score ties resolve by id) plus the two endpoints are scored directly
    by ``core.RankRegretKernel``.  Both parts
    see only the rows that no member beats by more than NUMERIC_TOL on
    both attributes: such a row never outranks the best member, and every
    other member still ranks behind the best one among the remaining
    rows, so the best member's rank is unchanged.  Exact up to
    floating-point score ties at interior crossing angles.
    """
    _require_2d(dataset)
    members = sorted({int(t) for t in subset})
    if not members:
        raise EmptySubset("subset must contain at least one tuple id")
    if not all(0 <= t < dataset.n for t in members):
        raise ValueError("subset contains unknown tuple ids")
    kernel = RankRegretKernel(dataset.values, members)
    kept, rows = kernel.kept, kernel.rows
    step = _block_size(rows.size)
    blocks = [_rank_trajectories(kept, rows, kept[kernel.member_cols[lo:lo + step]],
                                 kernel.members[lo:lo + step])
              for lo in range(0, len(members), step)]
    angles = np.unique(np.concatenate(
        [[0.0]] + [tr.angles[np.isfinite(tr.angles)] for tr in blocks]))
    # the best member rank just after each angle (just after 0 included):
    # a row's state after its last entry at or before the angle
    after = np.full(angles.size, dataset.n, dtype=np.int64)
    for tr in blocks:
        for a, states, rank0 in zip(tr.angles, tr.states, tr.rank0):
            count = np.searchsorted(a, angles, side="right")
            np.minimum(after, np.where(count > 0, states[count - 1], rank0),
                       out=after)
    at = _score_angles(kernel, np.append(angles, HALF_PI))
    return int(max(after.max(), at))


def _require_2d(dataset: Dataset) -> None:
    if dataset.d != 2:
        raise DimensionNot2D(f"operation requires d=2, got d={dataset.d}")
