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
inward otherwise.  ``member_rank_steps`` reads the best member rank of a
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
``enumerate_ksets_2d`` reads the k-sets off the k-level of the
k-skyband's trajectories (``ExchangeSweep``): the top-k set changes only
where a tuple's rank crosses k.  Floats order crossings more than
NEAR_TIE_ULPS apart; closer ones that can move a rank across k are
ordered and grouped by their exact ratios.
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
        self._top, self._events = _level_events(values, ids, k)

    def top(self) -> frozenset:
        """The ids of the tuples in the top k."""
        return frozenset(self._top)

    def batches(self):
        """Yield (theta, swaps), one batch per group of exactly equal
        crossings, ``top()`` already updated past it.

        Each swap is (k - 1, leaving id, entering id).
        """
        top, k = self._top, self.k
        for theta, leaving, entering in self._events:
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
    angles, passing = _crossings(du, dv)
    keys = (angles.view(np.uint64) << _ONE) | passing  # +inf: _NEVER
    keys.sort(axis=1)
    angles = (keys >> _ONE).view(np.float64)
    delta = np.where(keys < _NEVER, (keys & _ONE).view(np.int64) * 2 - 1, 0)
    states = rank0[:, None] + np.cumsum(delta, axis=1)
    last = np.empty(angles.shape, dtype=bool)
    last[:, :-1] = angles[:, 1:] != angles[:, :-1]
    last[:, -1] = True
    return _Trajectories(angles, states, last, rank0, at_0, at_end)


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
    skyband = np.flatnonzero(dominator_counts(dataset.values)[0] < k)
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


def _level_events(points: np.ndarray, ids: np.ndarray, k: int):
    """The k-level of the tuples ``points`` (ids ``ids``): (the ids in
    the top k just after angle 0, [(angle, leaving ids, entering ids)] in
    ascending angle).

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
    tuples = ids[rows]
    events = []
    for theta, lo, hi in zip(level.tolist(), bounds[:-1].tolist(),
                             bounds[1:].tolist()):
        group, enter = tuples[lo:hi], enters[lo:hi]
        events.append((theta, group[~enter].tolist(), group[enter].tolist()))
    return set(np.concatenate(initial).tolist()), events


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
