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
The k-level of the k-skyband's trajectories (``_level_events``) is where
the top-k set changes: a tuple's rank crosses k there.  Floats order
crossings more than NEAR_TIE_ULPS apart; closer ones that can move a
rank across k are ordered and grouped by their exact ratios.  Its groups
cut the sweep into elements: the point 0, the open segments between
groups, on each of which the top k is constant, and the point pi/2.
``find_ranges`` reads off the k-level, for every tuple, the span of
elements from the first on which it is in the top k to the last (at the
axis points by its id tie-broken rank there), and ``cover_2d`` covers
every element, however narrow, with the fewest spans.  That yields a
representative that is never larger than the optimal one and whose
exact rank-regret is at most 2k (each range's interior rank is bounded
by the sum of its endpoint ranks).  ``enumerate_ksets_2d`` reads the
k-sets off the same k-level (``ExchangeSweep``).
``member_rank_steps`` reads the best member rank of a
subset, as a step function of theta, off the members' trajectories
(``RankSteps``): ``exact_rank_regret_2d`` takes its maximum and scores
the crossing angles themselves, and ``evaluate.estimate_rank_regret``
looks each sampled function's rank up at its angle.  A sample within
``float_order_radius`` of a crossing angle or of 0 or pi/2 is scored by
its matrix product instead; the radius, (pi/2) score_slack(2) / min|D|
+ 16 ulps of pi/2 over the nonzero member-row differences D, puts every
score gap of a farther sample beyond float rounding.  A member with an
exact duplicate makes the radius infinite: a BLAS product can round the
two copies differently, so all samples are scored.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .core import (
    HALF_PI,
    Dataset,
    LinearFunction,
    RankRegretKernel,
    Representative,
    _select_top_k,
    angle_weights,
    block_rows as _block_size,
    score_slack,
)
from .errors import DimensionNot2D, KOutOfRange, UncoverableSpace
from .kset import KSet, KSetCollection


@dataclass(frozen=True)
class AngularRange:
    """Where a tuple is in the top k, as the elements ``first`` to
    ``last`` of the sweep (``find_ranges``) and, for reporting, the float
    angles ``begin`` and ``end`` of that span."""

    tuple_id: int
    begin: float
    end: float
    first: int
    last: int


class ExchangeSweep:
    """The exchanges across the rank-k boundary along the sweep, in
    ascending angle, read off the k-level of the rank trajectories of
    ``values`` (``_level_events``), whose rows ``ids`` (ascending) name:
    each group of exactly equal crossings swaps the tuples leaving the
    top k with those entering it.  The benchmark tracer counts swaps
    through ``batches()``.
    """

    def __init__(self, values: np.ndarray, k: int, ids: np.ndarray):
        self.k = k
        self.swap_count = 0
        self._level = _level_events(values, ids, k)
        self._top = set(self._level.top.tolist())

    def top(self) -> frozenset:
        """The ids of the tuples in the top k."""
        return frozenset(self._top)

    def batches(self):
        """Yield (theta, swaps), one batch per group of exactly equal
        crossings, ``top()`` already updated past it.

        Each swap is (k - 1, leaving id, entering id).
        """
        top, k, level = self._top, self.k, self._level
        for theta, lo, hi in zip(level.angles.tolist(), level.bounds[:-1].tolist(),
                                 level.bounds[1:].tolist()):
            group, enter = level.tuples[lo:hi], level.enters[lo:hi]
            leaving, entering = group[~enter].tolist(), group[enter].tolist()
            top.difference_update(leaving)
            top.update(entering)
            self.swap_count += len(leaving)
            yield theta, [(k - 1, a, b) for a, b in zip(leaving, entering)]


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
    """Each tuple's top-k range, as a span of the elements of the sweep.

    The elements are numbered along the sweep: 0 is the point 0, 1 to
    G + 1 are the open segments between the G groups of exactly equal
    crossings of the k-level (``_level_events``), on each of which the
    top k is constant, and G + 2 is the point pi/2.  A tuple with fewer
    than k dominators spans from the first segment on which it is in the
    top k to the last; no other tuple is in any segment's top k.  At the
    axis points ranks come from the id tie-break at exactly 0 and pi/2: a
    tuple covers an axis point where its rank there is at most k, or at
    most 2k while it is in the top k just inside that axis.  That extends
    a span to the axis and gives tuples outside the skyband, which can be
    the only ones ranked within k at an axis, a span of that point alone.
    Tuples that cover no element are omitted.

    ``begin`` and ``end``, for reporting, are the float angles of the
    groups at which the span starts and stops.  A span that starts at the
    first segment without covering the point 0 begins one representable
    angle past 0, and one that ends at the last segment without covering
    pi/2 ends one representable angle before it.
    """
    return _top_k_ranges(dataset, k)[0]


def _top_k_ranges(dataset: Dataset,
                  k: int) -> Tuple[List[AngularRange], np.ndarray]:
    """``find_ranges`` and the float width of each element of the sweep
    (0 for the axis points)."""
    _require_2d(dataset)
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    values, n = dataset.values, dataset.n
    if k >= n:
        return ([AngularRange(t, 0.0, HALF_PI, 0, 2) for t in range(n)],
                np.array([0.0, HALF_PI, 0.0]))
    skyband = np.flatnonzero(dominator_counts(values) < k)
    level = _level_events(values[skyband], skyband, k)
    g = level.angles.size
    # each tuple's first and last segment in the top k, as elements:
    # [g + 2, 0] where it is in none; element j + 2 follows group j
    first = np.full(n, g + 2)
    last = np.zeros(n, dtype=np.int64)
    first[level.top], last[level.top] = 1, g + 1
    order = np.argsort(level.tuples, kind="stable")
    tuples = level.tuples[order]
    opens = np.flatnonzero(np.diff(tuples, prepend=-1))  # a tuple's first
    closes = np.flatnonzero(np.diff(tuples, append=-1))  # and last event
    head, tail = order[opens], order[closes]
    group = np.repeat(np.arange(g), np.diff(level.bounds))
    t = tuples[opens]
    # outside the initial top k a tuple's first event enters it; its last
    # event leaves it, unless it enters for good
    first[t] = np.minimum(first[t], group[head] + 2)
    last[t] = np.where(level.enters[tail], g + 1, group[tail] + 1)
    at_0, at_end = _axis_ranks(values[:, 0]), _axis_ranks(values[:, 1])
    lo = np.where((at_0 <= k) | (at_0 <= 2 * k) & (first == 1), 0, first)
    hi = np.where((at_end <= k) | (at_end <= 2 * k) & (last == g + 1),
                  g + 2, last)
    keep = np.flatnonzero(lo <= hi)
    fence = np.concatenate(([0.0], level.angles, [HALF_PI]))
    starts, ends = np.append(0.0, fence), np.append(fence, HALF_PI)
    begin = np.where(lo == 1, np.nextafter(0.0, 1.0), starts[lo])
    end = np.where(hi == g + 1, np.nextafter(HALF_PI, 0.0), ends[hi])
    ranges = [AngularRange(*r) for r in zip(
        keep.tolist(), begin[keep].tolist(), end[keep].tolist(),
        lo[keep].tolist(), hi[keep].tolist())]
    return ranges, ends - starts


def _axis_ranks(x: np.ndarray) -> np.ndarray:
    """Each tuple's rank by the attribute ``x`` alone, ties to the smaller
    id: its rank at exactly 0 (x1) or pi/2 (x2)."""
    rank = np.empty(x.size, dtype=np.int64)
    rank[np.argsort(-x, kind="stable")] = np.arange(1, x.size + 1)
    return rank


#: sort keys of the trajectory kernel: one bit, and the key of +inf
_ONE = np.uint64(1)
_NEVER = np.float64(np.inf).view(np.uint64) << _ONE


@dataclass(frozen=True)
class _Trajectories:
    """Rank trajectories of a block of tuples, one row per tuple.

    ``angles`` holds a row's crossing angles in ascending order, +inf for
    the pairs that never cross.  ``states[:, j]`` is the rank once entries
    0..j have crossed.  Equal angles stay separate entries, so a state is
    the rank just after its angle only where ``last`` marks the end of
    its angle group.  ``rank0`` is the rank just after angle 0.
    """

    angles: np.ndarray
    states: np.ndarray
    last: np.ndarray
    rank0: np.ndarray


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
    rank0 = 1 + np.count_nonzero(
        (du > 0) | (du == 0) & ((dv > 0) | (dv == 0) & ahead), axis=1)
    angles, passing = _crossings(du, dv)
    keys = (angles.view(np.uint64) << _ONE) | passing  # +inf: _NEVER
    keys.sort(axis=1)
    angles = (keys >> _ONE).view(np.float64)
    delta = np.where(keys < _NEVER, (keys & _ONE).view(np.int64) * 2 - 1, 0)
    states = rank0[:, None] + np.cumsum(delta, axis=1)
    last = np.empty(angles.shape, dtype=bool)
    last[:, :-1] = angles[:, 1:] != angles[:, :-1]
    last[:, -1] = True
    return _Trajectories(angles, states, last, rank0)


def _crossings(du: np.ndarray,
               dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Float crossing angles, arctan(du / -dv), of tuples with the rows
    ahead of them by ``du`` and ``dv``, +inf where the two never cross,
    and whether the row passes the tuple there."""
    passing = (du < 0) & (dv > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = np.where(passing | (du > 0) & (dv < 0),
                          np.arctan(du / -dv), np.inf)
    return angles, passing


def dominator_counts(values: np.ndarray) -> np.ndarray:
    """For each tuple, how many others dominate it: are >= on both
    attributes and > on one.  Tuples with k dominators are in no top k
    (the k-skyband holds those with fewer).

    The tuples are ordered by descending x1, then descending x2, so that
    the dominators of a tuple all precede it; the count of preceding
    tuples with x2 >= its own is summed over the O(log n) levels of a
    bottom-up merge, each one vectorized sort and two searchsorted.
    Preceding exact duplicates, which are not dominators, are subtracted
    at the end.
    """
    n = values.shape[0]
    x1, x2 = values[:, 0], values[:, 1]
    order = np.lexsort((-x2, -x1))
    rank = np.unique(x2, return_inverse=True)[1].reshape(-1)[order]
    stride = n + 1  # block * stride + rank sorts by block, then by rank
    pos = np.arange(n)
    weak = np.zeros(n, dtype=np.int64)
    width = 1
    while width < n:
        block = pos // (2 * width)
        right = (pos // width) % 2 == 1
        left_keys = np.sort(block[~right] * stride + rank[~right])
        q_block, q_keys = block[right], block[right] * stride + rank[right]
        weak[right] += (np.searchsorted(left_keys, (q_block + 1) * stride)
                        - np.searchsorted(left_keys, q_keys))
        width *= 2
    x1_sorted = x1[order]
    same = np.zeros(n, dtype=bool)
    same[1:] = (x1_sorted[1:] == x1_sorted[:-1]) & (rank[1:] == rank[:-1])
    weak -= pos - np.maximum.accumulate(np.where(same, 0, pos))
    out = np.empty(n, dtype=np.int64)
    out[order] = weak
    return out


def cover_2d(ranges: List[AngularRange], widths) -> frozenset:
    """The fewest ranges whose spans cover every element of the sweep.

    ``widths[j]`` is the float angle width of element j, 0 for the axis
    points and for segments narrower than one float step; every element
    counts, however narrow.  The greedy that takes the range covering the
    most uncovered width, then the most uncovered elements, then the one
    of the smaller tuple id, is tried first and kept when it achieves the
    minimum count; a long mid-span range can bait that order into two
    extra flank picks, in which case the furthest-reach sweep (always
    minimum) is returned instead.
    """
    if not ranges:
        raise UncoverableSpace("no ranges supplied")
    widths = np.asarray(widths, dtype=np.float64)
    greedy = _max_coverage_cover(ranges, widths)
    sweep = _furthest_reach_cover(ranges, widths.size)
    return greedy if len(greedy) <= len(sweep) else sweep


def _max_coverage_cover(ranges, widths: np.ndarray) -> frozenset:
    """Repeatedly take the range covering the most uncovered width, then
    the most uncovered elements, then the one of the smaller tuple id."""
    ranges = sorted(ranges, key=lambda r: r.tuple_id)
    first = np.array([r.first for r in ranges])
    stop = np.array([r.last for r in ranges]) + 1
    uncovered = np.ones(widths.size, dtype=bool)
    selected = set()
    while uncovered.any():
        count = np.append(0, np.cumsum(uncovered))
        gain = count[stop] - count[first]
        if gain.max() == 0:
            raise UncoverableSpace("no candidate range covers the remaining space")
        width = np.append(0.0, np.cumsum(np.where(uncovered, widths, 0.0)))
        covered = width[stop] - width[first]
        best = int(np.argmax(np.where(covered == covered.max(), gain, -1)))
        uncovered[first[best]:stop[best]] = False
        selected.add(ranges[best].tuple_id)
    return frozenset(selected)


def _furthest_reach_cover(ranges, size: int) -> frozenset:
    """Left-to-right optimal cover of the elements 0 to ``size`` - 1: of
    the ranges covering the first uncovered element take the one reaching
    furthest (ties to the smaller tuple id)."""
    order = sorted(ranges, key=lambda r: (r.first, -r.last, r.tuple_id))
    selected = set()
    current = i = 0
    while current < size:
        best = None
        while i < len(order) and order[i].first <= current:
            r = order[i]
            if best is None or (r.last, -r.tuple_id) > (best.last, -best.tuple_id):
                best = r
            i += 1
        if best is None or best.last < current:
            raise UncoverableSpace(f"no range covers element {current}")
        selected.add(best.tuple_id)
        current = best.last + 1
    return frozenset(selected)


def rrr_2d(dataset: Dataset, k: int) -> Representative:
    """The top-k ranges of ``find_ranges`` covered by the fewest tuples.

    ``cover_2d`` covers every element of the sweep, the two axis points
    and each k-level segment however narrow, and each element's top k
    holds tuples whose ranges cover it, so the output is never larger
    than an optimal representative for rank-regret k.  Its exact
    rank-regret is at most 2k: a tuple outranking a member inside the
    member's range outranks it at one end of the range, where the member
    is in the top k (or within 2k at an axis point).  At an exact
    crossing shared by tied tuples ids decide the order, so the ends of
    the selected ranges and the axes are scored directly and patched with
    a top-k holder where a rank there exceeds 2k (never, in general
    position).
    """
    ranges, widths = _top_k_ranges(dataset, k)
    members = set(cover_2d(ranges, widths))
    selected = [r for r in ranges if r.tuple_id in members]
    check_angles = {0.0, HALF_PI}
    check_angles.update(r.begin for r in selected)
    check_angles.update(r.end for r in selected)
    # the kernel's running maximum stays within 2k until an angle needs a
    # patch, after which it restarts for the new members
    kernel = RankRegretKernel(dataset.values, members)
    for theta in sorted(check_angles):
        if _score_angles(kernel, theta) > 2 * k:
            members.add(min(_topk_at(dataset.values, theta, k)))
            kernel = RankRegretKernel(dataset.values, members)
    return Representative(members=frozenset(members), algorithm="2drrr",
                          params={"k": k})


#: a float crossing angle lies within 4 representable steps of the exact
#: one (3 from rounding du, dv and their quotient, under 1 from arctan),
#: so crossings whose float angles are more than 8 steps apart are
#: ordered as their exact ratios
NEAR_TIE_ULPS = 8


def enumerate_ksets_2d(dataset: Dataset, k: int) -> KSetCollection:
    """All distinct top-k outcomes along the sweep, in order of appearance.

    The top-k set just after angle 0 comes first; after that the set
    changes exactly where a tuple's rank crosses k, so the sets are read
    off the k-level of the rank trajectories (``ExchangeSweep``).  Each
    set carries a witness function (``angles_to_weights``) from the
    middle of the first angle interval on which it is the top-k.  Only
    the k-skyband is walked: every tuple that outranks a top-k member is
    itself in the top k, so dropping the tuples with k dominators changes
    neither the top-k sets nor the angles at which they change.

    The crossings are ordered and grouped exactly (``_level_events``).  A
    set that holds only between two groups at the same float angle has no
    float interval to witness it and is left out.
    """
    _require_2d(dataset)
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    skyband = np.flatnonzero(dominator_counts(dataset.values) < k)
    sweep = ExchangeSweep(dataset.values[skyband], k, skyband)
    segments = [(sweep.top(), 0.0)]
    for theta, _ in sweep.batches():
        current = sweep.top()
        if current != segments[-1][0]:
            segments.append((current, theta))
    middles: dict = {}  # each set's first interval, by its middle angle
    for j, (members, start) in enumerate(segments):
        stop = segments[j + 1][1] if j + 1 < len(segments) else HALF_PI
        if stop <= start:
            continue  # a zero-width segment
        middles.setdefault(members, (start + stop) / 2.0)
    witnesses = angle_weights(np.array(list(middles.values()))[:, None])
    sets = [KSet(members, LinearFunction(w))
            for members, w in zip(middles, witnesses)]
    return KSetCollection(sets=sets, k=k, complete=True, d=2)


@dataclass(frozen=True)
class _KLevel:
    """The k-level along the sweep: ``top`` holds the ids in the top k
    just after angle 0 (ascending), and the events sorted by group follow.
    Group g holds the events ``bounds[g]:bounds[g + 1]`` and sits at the
    angle ``angles[g]``; each event is a tuple id and whether it enters
    the top k there (else it leaves)."""

    top: np.ndarray
    bounds: np.ndarray
    angles: np.ndarray
    tuples: np.ndarray
    enters: np.ndarray


def _level_events(points: np.ndarray, ids: np.ndarray, k: int) -> _KLevel:
    """The k-level of the tuples ``points`` (ids ``ids``).

    The events of all tuples (``_block_events``) are sorted by float
    angle.  A run of more than two, each within NEAR_TIE_ULPS of the
    next, is re-sorted by exact crossing ratio (``_ratio``), and the
    events of one ratio form a group; any other run is one group.  A
    group sits at the smallest float angle in it (or at the previous
    group's, where larger) and must leave k tuples in the top k.
    """
    step = _block_size(ids.size)
    initial, found = [], []
    for lo in range(0, ids.size, step):
        block = ids[lo:lo + step]
        tr = _rank_trajectories(points, ids, points[lo:lo + step], block)
        initial.append(block[tr.rank0 <= k])
        found.extend(_block_events(points, lo, tr, k))
    found = [np.concatenate(c) for c in zip(*found)]
    order = np.argsort(found[0], kind="stable")
    angles, rows, enters, partners = (c[order] for c in found)
    new = np.ones(angles.size, dtype=bool)  # the event opens a group
    new[1:] = np.diff(angles.view(np.int64)) > NEAR_TIE_ULPS
    runs = np.append(np.flatnonzero(new), angles.size)
    # two events form one group in exact arithmetic too: apart, each
    # would change the size of the top k
    near = np.flatnonzero(np.diff(runs) > 2)
    for lo, hi in zip(runs[near].tolist(), runs[near + 1].tolist()):
        ratios = [_ratio(points, t, u if u >= 0 else _partner(points, t, a))
                  for t, u, a in zip(rows[lo:hi].tolist(),
                                     partners[lo:hi].tolist(),
                                     angles[lo:hi].tolist())]
        perm = sorted(range(hi - lo), key=ratios.__getitem__)
        at = lo + np.array(perm)
        angles[lo:hi], rows[lo:hi], enters[lo:hi] = angles[at], rows[at], enters[at]
        new[lo + 1:hi] = [ratios[a] != ratios[b] for a, b in zip(perm, perm[1:])]
    bounds = np.flatnonzero(new)
    level = np.maximum.accumulate(np.minimum.reduceat(angles, bounds))
    bounds = np.append(bounds, angles.size)
    # a tuple's events alternate, so the top k has k + (enters - leaves)
    # tuples; the initial top k has k
    if np.any(np.cumsum(np.where(enters, 1, -1))[bounds[1:] - 1] != 0):
        raise RuntimeError("a k-level group leaves other than k tuples "
                           "in the top k")
    return _KLevel(np.concatenate(initial), bounds, level, ids[rows], enters)


def _block_events(points: np.ndarray, lo: int, tr: "_Trajectories", k: int):
    """The k-level events of the rows ``lo``.. of ``points``, whose
    trajectories are ``tr``: a list of (angle, row, enters, partner)
    arrays, ``partner`` the row crossed or -1 where not looked up.

    A tuple enters or leaves the top k at a group end whose state is on
    the other side of k than the state at its previous group end (or
    than ``rank0``).  Crossings whose float angles are each within
    NEAR_TIE_ULPS of the next form a run, whose float order may not be
    the exact one.  A run whose states, in any order of its crossings,
    stay on one side of k (from the state before it, down by its leaving
    crossings and up by its passing ones) has no event, and the state
    after it does not depend on the order; ``_exact_run`` reads the events
    of every other run.
    """
    bits = tr.angles.view(np.int64)  # ordered like the angles, all >= 0
    near = ((bits[:, 1:] - bits[:, :-1] <= NEAR_TIE_ULPS)
            & np.isfinite(tr.angles[:, 1:]))
    settled, exact = [], None  # exact: the entries of runs read exactly
    if near.any():
        linked = np.pad(near, ((0, 0), (1, 1)))  # entry j - 1 with entry j
        exact = np.zeros(bits.shape, dtype=bool)
        run_row, first = np.nonzero(linked[:, 1:] & ~linked[:, :-1])
        final = np.nonzero(linked[:, :-1] & ~linked[:, 1:])[1]
        before = np.where(first > 0, tr.states[run_row, first - 1],
                          tr.rank0[run_row])
        net, span = tr.states[run_row, final] - before, final - first + 1
        straddles = ((before - (span - net) // 2 <= k)
                     & (before + (span + net) // 2 > k))
        for r, a, b, state in zip(run_row[straddles].tolist(),
                                  first[straddles].tolist(),
                                  final[straddles].tolist(),
                                  before[straddles].tolist()):
            exact[r, a:b + 1] = True
            settled.extend(_exact_run(points, lo + r, tr.angles[r, a],
                                      tr.angles[r, b], state, k))
    row, col = np.nonzero(tr.last)
    inside = tr.states[row, col] <= k
    was = np.empty_like(inside)
    was[1:] = inside[:-1]
    opens = np.ones(row.size, dtype=bool)
    opens[1:] = row[1:] != row[:-1]
    was[opens] = tr.rank0 <= k  # every row has a group end
    moved = inside != was
    if exact is not None:
        moved &= ~exact[row, col]
    row, col = row[moved], col[moved]
    found = [(tr.angles[row, col], lo + row, inside[moved],
              np.full(row.size, -1))]
    if settled:
        found.append(tuple(np.array(c) for c in zip(*settled)))
    return found


def _exact_run(points: np.ndarray, t: int, lo: float, hi: float,
               state: int, k: int):
    """Row ``t``'s k-level events, (angle, row, enters, partner), on its
    run of crossings with float angles in [lo, hi], entered at rank
    ``state``: the crossings sorted and grouped by exact ratio, each group
    at its smallest float angle."""
    angles, passing = _crossings(points[:, 0] - points[t, 0],
                                 points[:, 1] - points[t, 1])
    partners = np.flatnonzero((angles >= lo) & (angles <= hi))
    ratios = [_ratio(points, t, u) for u in partners.tolist()]
    order = sorted(range(partners.size), key=ratios.__getitem__)
    inside, events = state <= k, []
    for _, group in itertools.groupby(order, key=ratios.__getitem__):
        group = partners[list(group)]
        state += 2 * int(np.count_nonzero(passing[group])) - group.size
        if (state <= k) != inside:
            inside = not inside
            events.append((angles[group].min(), t, inside, group[0]))
    return events


def _partner(points: np.ndarray, t: int, angle: float) -> int:
    """The row that row ``t`` crosses at the float ``angle``."""
    crossed = _crossings(points[:, 0] - points[t, 0],
                         points[:, 1] - points[t, 1])[0]
    return int(np.argmax(crossed == angle))


def _ratio(points: np.ndarray, t: int, u: int) -> Fraction:
    """tan of the exact angle at which rows ``t`` and ``u`` score equally,
    from the stored doubles."""
    return ((Fraction(points[u, 0]) - Fraction(points[t, 0]))
            / (Fraction(points[t, 1]) - Fraction(points[u, 1])))


def exact_rank_regret_2d(dataset: Dataset, subset) -> int:
    """max over theta of (best rank among ``subset`` members), exactly.

    Member ranks only change at the members' crossing angles, so the best
    member rank is constant between consecutive angles of their union:
    ``member_rank_steps`` gives it on every open interval, and the angles
    themselves (where score ties resolve by id) plus the two endpoints
    are scored directly by ``core.RankRegretKernel``.  Both parts see
    only the rows that no member beats by more than NUMERIC_TOL on both
    attributes: such a row never outranks the best member, and every
    other member still ranks behind the best one among the remaining
    rows, so the best member's rank is unchanged.  Exact up to
    floating-point score ties at interior crossing angles.
    """
    _require_2d(dataset)
    kernel = RankRegretKernel(dataset.values, subset)
    steps = member_rank_steps(kernel)
    at = _score_angles(kernel, np.append(steps.angles, HALF_PI))
    return int(max(steps.after.max(), at))


@dataclass(frozen=True)
class RankSteps:
    """The best member rank as a step function of the angle.

    ``angles`` holds 0 and the union of the members' crossing angles,
    ascending and distinct; ``after[j]`` is the best member rank on the
    open interval just after ``angles[j]``.
    """

    angles: np.ndarray
    after: np.ndarray

    def at(self, thetas: np.ndarray,
           radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """(rank, near) at each theta in [0, pi/2]: the rank on the open
        interval just after the last angle at or before theta, and whether
        theta lies within ``radius`` of an angle or of 0 or pi/2."""
        fence = np.append(self.angles, HALF_PI)  # angles[0] is 0
        right = np.searchsorted(fence, thetas, side="right")
        near = ((thetas - fence[right - 1] <= radius)
                | (fence[np.minimum(right, fence.size - 1)] - thetas <= radius))
        return self.after[np.minimum(right, self.after.size) - 1], near


def member_rank_steps(kernel: RankRegretKernel) -> RankSteps:
    """The best rank of ``kernel``'s members among its kept rows, read off
    the members' rank trajectories (``_rank_trajectories``, blocks of
    members): just after an angle, a member's rank is its state after
    its last crossing at or before the angle (``rank0`` before its first)."""
    kept, rows = kernel.kept, kernel.rows
    step = _block_size(rows.size)
    blocks = [_rank_trajectories(kept, rows, kept[kernel.member_cols[lo:lo + step]],
                                 kernel.members[lo:lo + step])
              for lo in range(0, kernel.members.size, step)]
    angles = np.unique(np.concatenate(
        [[0.0]] + [tr.angles[np.isfinite(tr.angles)] for tr in blocks]))
    after = np.full(angles.size, rows.size, dtype=np.int64)
    for tr in blocks:
        for a, states, rank0 in zip(tr.angles, tr.states, tr.rank0):
            count = np.searchsorted(a, angles, side="right")
            np.minimum(after, np.where(count > 0, states[count - 1], rank0),
                       out=after)
    return RankSteps(angles, after)


def float_order_radius(kernel: RankRegretKernel) -> float:
    """How far a unit ray must lie from the members' crossing angles and
    from 0 and pi/2 for a float matrix product to order every member-row
    pair of ``kernel`` as exact arithmetic does; inf where a member has an
    exact duplicate among the kept rows.

    A pair with difference D scores a gap of |D| sin(x) under the ray,
    where x is the distance from the ray's angle to the nearest angle at
    which the gap vanishes.  In [0, pi/2] those are the pair's crossing
    angle and, where D has a zero entry, an axis; the others lie beyond 0
    or pi/2.  So past (pi/2) score_slack(2) / |D| from those angles the
    gap exceeds the slack that no two roundings of a score can span.  The
    radius takes the smallest nonzero |D| of any pair, plus 16 ulps of
    pi/2 for the rounding of the float crossing angles and of the ray's
    own ``arctan2`` angle.  An exact duplicate has no gap at any angle,
    and a BLAS product can round its two copies differently.
    """
    kept, cols = kernel.kept, kernel.member_cols
    closest = math.inf
    step = _block_size(kept.shape[0])
    for lo in range(0, cols.size, step):
        block = cols[lo:lo + step]
        gap = np.hypot(kept[:, 0] - kept[block, 0, None],
                       kept[:, 1] - kept[block, 1, None])
        gap[np.arange(block.size), block] = np.inf  # each member itself
        closest = min(closest, float(gap.min()))
    if closest == 0.0:
        return math.inf
    return HALF_PI * score_slack(2) / closest + 16 * float(np.spacing(HALF_PI))


def _require_2d(dataset: Dataset) -> None:
    if dataset.d != 2:
        raise DimensionNot2D(f"operation requires d=2, got d={dataset.d}")
