"""2-D algorithms: top-k angle ranges, interval cover, k-sets, exact rank-regret.

The function space in 2-D is the single angle theta in [0, pi/2] of the
ray (cos theta, sin theta).  Two tuples exchange ranking order at most
once along it, so a tuple's rank is a step function of theta that moves
by one at each of its crossings with another tuple, where the two tie
and the smaller id ranks first.  ``_rank_trajectories`` computes these
step functions for a block of tuples at once.  The k-level of the
candidates' trajectories (``_level_events``) is where the top-k set
changes; crossings that floats cannot order (within NEAR_TIE_ULPS) are
ordered and grouped by exact ratio.  Its groups cut the sweep into
elements: the point 0, each group as a point, the open segments between
them and the point pi/2.  ``find_ranges`` gives each tuple the hull of
the elements where its rank is at most k, extended to an adjacent point
where it is at most 2k, and ``cover_2d`` covers every element with the
fewest spans: a representative never larger than the optimal one, with
exact rank-regret at most 2k.  ``enumerate_ksets_2d`` reads the k-sets
off the same k-level (``ExchangeSweep``).  ``exact_rank_regret_2d``, the
one 2-D evaluator (``evaluate.estimate_rank_regret`` returns it in 2-D),
gives each row the one interval of angles on which it ranks ahead of
every member of a subset, so of the best one, and takes 1 plus the
largest depth of these intervals, exactly at every n.  It reads only the
rows of ``core.member_survivors``: a threshold pass on slabs of the angle
(in 2-D the cells of its grid) and a dominance pass drop every row that
scores below the best member at every angle, which leaves the best
member's rank unchanged.

The k-level is computed over the candidates (``_candidates``) alone, and
it is the k-level of all tuples:

1. A dropped tuple ranks below k at every angle.  ``_candidates`` drops
   u only where, on each slab of one of its passes, k other tuples score
   above u at both ends of the slab in exact arithmetic, and so strictly
   above u throughout the slab.
2. Every tuple scoring at least as high as an event's tuple t at the
   event's group angle theta is a candidate.  Were such a u dropped, by
   1 it would have k tuples scoring strictly above it at theta, so
   strictly above t at theta and, scores being continuous in the angle,
   just before and just after theta too.  Then t would rank below k at,
   before and after theta, but an event's tuple ranks within k on one
   side of its group (it enters or leaves the top k there) or at it
   (change 0).  In particular t's partners at theta, whose float angles
   place the event, are candidates.
3. At any angle a candidate's rank among the candidates is at most its
   rank r among all tuples.  Where r <= k, every tuple ahead of it ranks
   within k, so by 1 is a candidate and the two ranks are equal; where
   r > k, the k tuples ranking first are candidates ahead of it.  So the
   ranks are within k at the same angles, and the top k just after 0
   and the events' changes are those of all tuples.  By 2 an event's
   rank ``at`` its group counts every tuple ahead of t there, so it is
   the rank among all tuples, and the ``at <= k`` events and the
   extension of a range to a point where the rank is at most 2k are
   unchanged.  Every tuple ranking within k somewhere, the axes
   included, is a candidate.
"""

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
    angle_weights,
    block_rows as _block_size,
    check_k,
    score_slack,
)
from .errors import DimensionNot2D, UncoverableSpace
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
            group, change = level.tuples[lo:hi], level.change[lo:hi]
            leaving, entering = group[change < 0].tolist(), group[change > 0].tolist()
            top.difference_update(leaving)
            top.update(entering)
            self.swap_count += len(leaving)
            yield theta, [(k - 1, a, b) for a, b in zip(leaving, entering)]


def find_ranges(dataset: Dataset, k: int) -> List[AngularRange]:
    """Each tuple's top-k range, as a span of the elements of the sweep.

    The points 0, 2, ..., 2G + 2 are the angle 0, the G groups of exactly
    equal crossings of the k-level (``_level_events``) and pi/2; the odd
    elements between them are open segments, each with one top k.  A
    tuple spans the hull of the elements where its rank is at most k,
    extended to an adjacent point where it is at most 2k.  The k-level
    is computed over the candidates alone (``_candidates``), the tuples
    that may rank within k somewhere, and the ranks at 0 and pi/2 over
    all tuples.  ``begin`` and ``end`` are the float angles of the points
    at or around the span's ends, for reporting.  Tuples that cover
    nothing are omitted.
    """
    return _top_k_ranges(dataset, k)[0]


def _top_k_ranges(dataset: Dataset,
                  k: int) -> Tuple[List[AngularRange], np.ndarray, int]:
    """``find_ranges``, the float width of each element of the sweep (0
    for the points) and the number of candidates the k-level was computed
    over (all n where k >= n)."""
    _require_2d(dataset)
    check_k(k, dataset.n)
    values, n = dataset.values, dataset.n
    if k >= n:
        return ([AngularRange(t, 0.0, HALF_PI, 0, 2) for t in range(n)],
                np.array([0.0, HALF_PI, 0.0]), n)
    rows = _candidates(values, k)
    level = _level_events(values[rows], rows, k)
    g = level.angles.size
    end = 2 * g + 2  # the point pi/2
    point = 2 * np.repeat(np.arange(g), np.diff(level.bounds)) + 2
    tuples, change = level.tuples, level.change
    final = np.bincount(tuples, change, n)
    final[level.top] += 1
    x1, x2 = values[:, 0], values[:, 1]
    # the elements where a tuple ranks within k: the segment on which an
    # event enters or leaves the top k, the points of events within k,
    # the first and last segment for the tuples in the top k on them, and
    # the axes
    moves, within = change != 0, level.at <= k
    pieces = [(tuples[moves], point[moves] + change[moves]),
              (tuples[within], point[within]), (level.top, 1),
              (np.flatnonzero(final == 1), end - 1),
              (np.flatnonzero(_axis_within(x1, k)), 0),
              (np.flatnonzero(_axis_within(x2, k)), end)]
    ids = np.concatenate([t for t, _ in pieces])
    elements = np.concatenate([np.broadcast_to(e, t.shape) for t, e in pieces])
    lo, hi = np.full(n, end + 1), np.full(n, -1)
    np.minimum.at(lo, ids, elements)
    np.maximum.at(hi, ids, elements)
    # a span that stops on a segment reaches the adjacent point where the
    # tuple's rank is within 2k
    near = level.at <= 2 * k
    enter = near & (change > 0) & (lo[tuples] == point + 1)
    leave = near & (change < 0) & (hi[tuples] == point - 1)
    lo[tuples[enter]], hi[tuples[leave]] = point[enter], point[leave]
    lo[(lo == 1) & _axis_within(x1, 2 * k)] = 0
    hi[(hi == end - 1) & _axis_within(x2, 2 * k)] = end
    keep = np.flatnonzero(lo <= hi)
    fence = np.concatenate(([0.0], level.angles, [HALF_PI]))
    widths = np.zeros(end + 1)
    widths[1::2] = np.diff(fence)
    ranges = [AngularRange(*r) for r in zip(
        keep.tolist(), fence[lo[keep] // 2].tolist(),
        fence[(hi[keep] + 1) // 2].tolist(), lo[keep].tolist(),
        hi[keep].tolist())]
    return ranges, widths, rows.size


def _axis_within(x: np.ndarray, r: int) -> np.ndarray:
    """Whether each tuple ranks within ``r`` by the attribute ``x`` alone,
    ties to the smaller id: within r at exactly 0 (x1) or pi/2 (x2).

    The r-th largest value tau is selected, not sorted for: every tuple
    above tau ranks within r, and of those equal to it the first r minus
    that many by id."""
    if r >= x.size:
        return np.ones(x.size, dtype=bool)
    tau = np.partition(x, x.size - r)[x.size - r]
    within = x > tau
    tied = np.flatnonzero(x == tau)
    within[tied[:r - np.count_nonzero(within)]] = True
    return within


#: a pair that never crosses sits at this angle, past pi/2 and below 2,
#: so that an angle's bits shifted left by two still fit in 64 bits
_NEVER = np.float64(1.75)
_ONE, _TWO, _THREE = np.uint64(1), np.uint64(2), np.uint64(3)


@dataclass(frozen=True)
class _Trajectories:
    """Rank trajectories of a block of tuples, one row per tuple:
    ``angles`` holds a row's crossing angles ascending, _NEVER for pairs
    that never cross, and ``states[:, j]`` the rank once entries 0..j have
    crossed, the rank just after the angle where ``last`` marks the end of
    a group of equal angles.  ``rank0`` is the rank just after angle 0 and
    ``keys`` the sorted keys of the entries (``_rank_trajectories``)."""

    angles: np.ndarray
    states: np.ndarray
    last: np.ndarray
    rank0: np.ndarray
    keys: np.ndarray


def _rank_trajectories(points: np.ndarray, ids: np.ndarray, own: np.ndarray,
                       own_ids: np.ndarray) -> _Trajectories:
    """Trajectories of the tuples ``own`` (ids ``own_ids``) against the
    rows ``points`` (ids ``ids``), as (block x rows) arrays.

    A row with a smaller x1 and a larger x2 passes the tuple at
    arctan(du / -dv) and one with a larger x1 and a smaller x2 falls
    behind it there.  Each crossing is sorted as one integer key: its
    angle's bits, which order like the angle since it is non-negative,
    shifted left by two, then a bit for a row of smaller id and the low
    bit for a row passing.  Rows that never cross get the key of _NEVER.
    The state after a group of equal angles does not depend on its order.
    """
    du = points[:, 0] - own[:, 0, None]
    dv = points[:, 1] - own[:, 1, None]
    ahead = ids < own_ids[:, None]  # the row has the smaller id
    rank0 = 1 + np.count_nonzero(
        (du > 0) | (du == 0) & ((dv > 0) | (dv == 0) & ahead), axis=1)
    angles, passing = _crossings(du, dv)
    keys = angles.view(np.uint64) << _TWO
    keys |= (ahead.view(np.uint8) << 1) | passing
    keys.sort(axis=1)
    angles = (keys >> _TWO).view(np.float64)
    delta = np.where(angles < _NEVER, (keys & _ONE).view(np.int64) * 2 - 1, 0)
    states = rank0[:, None] + np.cumsum(delta, axis=1)
    last = np.empty(angles.shape, dtype=bool)
    last[:, :-1] = angles[:, 1:] != angles[:, :-1]
    last[:, -1] = True
    return _Trajectories(angles, states, last, rank0, keys)


def _crossings(du: np.ndarray,
               dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Float crossing angles, arctan(du / -dv), of tuples with the rows
    ahead of them by ``du`` and ``dv``, _NEVER where the two never cross,
    and whether the row passes the tuple there."""
    passing = (du < 0) & (dv > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = np.where(passing | (du > 0) & (dv < 0),
                          np.arctan(du / -dv), _NEVER)
    return angles, passing


#: slabs of each of ``_candidates``' threshold passes, the first over all
#: rows and each later one over the rows the one before it keeps
_SLABS = (16, 128)


def _candidates(values: np.ndarray, k: int) -> np.ndarray:
    """Ascending ids of the rows that may rank within k at some angle in
    [0, pi/2], the axes included: every other row has, on each slab of
    one of the passes, k rows scoring above it at both ends of the slab.

    The slabs cut [0, pi/2] at equal angles.  On a slab of width < pi the
    score difference of two rows, a sinusoid in the angle, changes sign at
    most once, so a row beaten at both ends of a slab is beaten strictly
    throughout it (the module docstring shows why the k-level over these
    rows is the k-level of all rows).  Each pass cuts _SLABS[i] slabs and
    drops a row whose larger end score on every slab is below tau - eps,
    tau the k-th largest smaller end score there among the rows it sees.
    The first pass sees all rows and each later one only the rows kept by
    the one before.  A subset's k-th largest smaller end score is at most
    the whole set's, so k rows of the subset still beat a dropped row at
    both ends of each slab, and the argument holds pass by pass.  A pass
    keeps at least k rows: those of the k largest smaller end scores on
    the first slab.  The margin eps = 4 score_slack(2) is more than the
    errors of two float scores together can span, so every comparison
    taken also holds in exact arithmetic.  The scores are slab-major,
    one row per slab end, so each slab's tau is selected over contiguous
    memory: with one column per slab, the selection strides through
    every row.
    """
    rows, eps = np.arange(values.shape[0]), 4 * score_slack(2)
    for slabs in _SLABS:
        ends = np.linspace(0.0, HALF_PI, slabs + 1)
        weights = np.stack((np.cos(ends), np.sin(ends)), axis=1)
        weights[-1] = 0.0, 1.0  # exactly pi/2, as cos(HALF_PI) is not 0
        scores = weights @ values[rows].T
        low = np.minimum(scores[:-1], scores[1:])
        high = np.maximum(scores[:-1], scores[1:])
        tau = np.partition(low, rows.size - k, axis=1)[:, rows.size - k]
        rows = rows[(high >= tau[:, None] - eps).any(axis=0)]
    return rows


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

    ``cover_2d`` covers every element of the sweep, each point and each
    k-level segment however narrow, and the exact top k of each element
    holds tuples whose spans cover it, so the output is never larger than
    an optimal representative for rank-regret k.  Its exact rank-regret
    is at most 2k: a tuple outranking a member inside the member's span
    outranks it at one end of the span, where the member's rank is at
    most k (at most 2k at a point the span was extended to).  ``params``
    report the number of ranges, of elements and of the candidates the
    k-level was computed over.
    """
    ranges, widths, candidates = _top_k_ranges(dataset, k)
    return Representative(members=cover_2d(ranges, widths), algorithm="2drrr",
                          bound_guaranteed=True,
                          params={"k": k, "ranges": len(ranges),
                                  "elements": len(widths),
                                  "candidates": candidates})


#: a float crossing angle lies within 4 representable steps of the exact
#: one (3 from rounding du, dv and their quotient, under 1 from arctan;
#: arctan2 of du and dv, as ``exact_rank_regret_2d`` takes it, has no
#: quotient), so crossings whose float angles are more than 8 steps apart
#: are ordered as their exact ratios
NEAR_TIE_ULPS = 8


def enumerate_ksets_2d(dataset: Dataset, k: int) -> KSetCollection:
    """All distinct top-k outcomes along the sweep, in order of appearance.

    The top-k set just after angle 0 comes first; after that the set
    changes exactly where a tuple's rank crosses k, so the sets are read
    off the k-level of the rank trajectories (``ExchangeSweep``).  Each
    set keeps its place of first appearance and carries a witness
    function (``angles_to_weights``) from the middle of the first angle
    interval of float width on which it is the top-k.  Only
    the candidates (``_candidates``) are walked: every other tuple ranks
    below k at every angle, so dropping them changes neither the top-k
    sets nor the angles at which they change (see the module docstring).

    The crossings are ordered and grouped exactly (``_level_events``).  A
    set that holds only between two groups at the same float angle has no
    float interval to witness it and is listed without a witness.
    """
    _require_2d(dataset)
    check_k(k, dataset.n)
    rows = _candidates(dataset.values, k)
    sweep = ExchangeSweep(dataset.values[rows], k, rows)
    segments = [(sweep.top(), 0.0)]
    for theta, _ in sweep.batches():
        current = sweep.top()
        if current != segments[-1][0]:
            segments.append((current, theta))
    # each set's first interval of float width, by its middle angle, or
    # None while it has held only on zero-width segments
    middles: dict = {}
    for j, (members, start) in enumerate(segments):
        stop = segments[j + 1][1] if j + 1 < len(segments) else HALF_PI
        if middles.get(members) is None:
            middles[members] = (start + stop) / 2.0 if stop > start else None
    witnesses = iter(LinearFunction.from_rows(angle_weights(np.array(
        [m for m in middles.values() if m is not None])[:, None])))
    sets = [KSet(members, None if m is None else next(witnesses))
            for members, m in middles.items()]
    return KSetCollection(sets=sets, k=k, complete=True, d=2)


@dataclass(frozen=True)
class _KLevel:
    """The k-level: ``top`` holds the ids in the top k just after angle 0
    (ascending); group g holds the events ``bounds[g]:bounds[g + 1]`` at
    the angle ``angles[g]``.  An event is a tuple id, its ``change`` (+1
    entering the top k, -1 leaving, 0 outside it on both sides) and its
    rank ``at`` the group, where ties go to the smaller id; a change-0
    event is listed only where that rank is within k."""

    top: np.ndarray
    bounds: np.ndarray
    angles: np.ndarray
    tuples: np.ndarray
    change: np.ndarray
    at: np.ndarray


def _level_events(points: np.ndarray, ids: np.ndarray, k: int) -> _KLevel:
    """The k-level of the tuples ``points`` (ids ``ids``): the events of
    all tuples (``_block_events``) by float angle, runs of more than two
    grouped exactly (``_exact_groups``).  A group sits at the smallest
    float angle of its entering and leaving events (or the previous
    group's, where larger) and must leave k tuples in the top k."""
    step = _block_size(ids.size)
    initial, found = [], []
    for lo in range(0, ids.size, step):
        block = ids[lo:lo + step]
        tr = _rank_trajectories(points, ids, points[lo:lo + step], block)
        initial.append(block[tr.rank0 <= k])
        found.extend(_block_events(points, lo, tr, k))
    found = [np.concatenate(c) for c in zip(*found)]
    order = np.argsort(found[0], kind="stable")
    angles, rows, change, at, partners = (c[order] for c in found)
    perm, new = _exact_groups(points, angles, rows, partners)
    angles, rows, change, at = angles[perm], rows[perm], change[perm], at[perm]
    bounds = np.flatnonzero(new)
    moving = np.where(change != 0, angles, _NEVER)
    level = np.maximum.accumulate(np.minimum.reduceat(moving, bounds))
    bounds = np.append(bounds, angles.size)
    # a tuple's events alternate, so the top k has k + (enters - leaves)
    # tuples; the initial top k has k
    if np.any(np.cumsum(change)[bounds[1:] - 1] != 0):
        raise RuntimeError("a k-level group leaves other than k tuples "
                           "in the top k")
    return _KLevel(np.concatenate(initial), bounds, level, ids[rows], change, at)


def _block_events(points: np.ndarray, lo: int, tr: "_Trajectories", k: int):
    """The k-level events of the rows ``lo``.. of ``points``, whose
    trajectories are ``tr``: a list of (angle, row, change, at, partner)
    arrays, ``partner`` the row crossed or -1 where not looked up.

    A tuple enters or leaves the top k at a group end whose state is on
    the other side of k than at its previous group end (or ``rank0``).
    Crossings each within NEAR_TIE_ULPS of the next form a run, whose
    float order may not be exact.  A run whose states stay on one side of
    k in any order (from the state before it, down by its leaving and up
    by its passing crossings) has no event, as its ranks at its crossings
    lie between those bounds too; ``_exact_run`` reads every other run.
    Any other group is a single crossing.
    """
    bits = tr.angles.view(np.int64)  # ordered like the angles, all >= 0
    near = ((bits[:, 1:] - bits[:, :-1] <= NEAR_TIE_ULPS)
            & (tr.angles[:, 1:] < _NEVER))
    found, exact = [], None  # exact: the entries of runs read exactly
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
            found.append(_exact_run(points, lo + r, tr.angles[r, a],
                                    tr.angles[r, b], state, k))
    row, col = np.nonzero(tr.last)
    inside = tr.states[row, col] <= k
    was = np.append(False, inside[:-1])
    # a row's first group end follows rank0 (every row has a group end)
    was[np.append(True, row[1:] != row[:-1])] = tr.rank0 <= k
    moved = inside != was
    if exact is not None:
        moved &= ~exact[row, col]
    row, col = row[moved], col[moved]
    # at its angle, a row passing with a larger id is still behind the
    # tuple and one falling behind with a smaller id still ahead of it
    low = tr.keys[row, col] & _THREE  # (smaller id, passing)
    at = tr.states[row, col] - (low == 1) + (low == 2)
    found.append((tr.angles[row, col], lo + row, np.where(inside[moved], 1, -1),
                  at, np.full(row.size, -1)))
    return found


def _exact_run(points: np.ndarray, t: int, lo: float, hi: float,
               state: int, k: int):
    """Row ``t``'s k-level events, as ``_block_events`` arrays, on its run
    of crossings in [lo, hi] entered at rank ``state``, grouped by exact
    ratio (``_ratio_groups``), each group at its smallest float angle.
    Rows ascend by id, so a row below ``t`` ranks ahead of it at a tie."""
    angles, passing = _crossings(points[:, 0] - points[t, 0],
                                 points[:, 1] - points[t, 1])
    partners = np.flatnonzero((angles >= lo) & (angles <= hi))
    perm, opens = _ratio_groups(points, np.full(partners.size, t), partners)
    partners = partners[perm]
    step = np.where(passing[partners], 1, -1)
    # the part of each step taken at the crossing itself
    now = np.where(passing[partners] == (partners < t), step, 0)
    starts = np.flatnonzero(opens)
    after = state + np.cumsum(step)[np.append(starts[1:], partners.size) - 1]
    before = np.append(state, after[:-1])
    at = before + np.add.reduceat(now, starts)
    change = (after <= k).astype(np.int64) - (before <= k)
    keep = (change != 0) | (before > k) & (after > k) & (at <= k)
    return (np.minimum.reduceat(angles[partners], starts)[keep],
            np.full(np.count_nonzero(keep), t), change[keep], at[keep],
            partners[starts][keep])


def _exact_groups(points: np.ndarray, angles: np.ndarray, rows: np.ndarray,
                  partners: np.ndarray):
    """(permutation, opens a group) of the k-level events of ``rows[i]``,
    crossing ``partners[i]`` (where -1, the row it crosses at that float
    angle), sorted by float ``angles``.  A run of more than two, each
    within NEAR_TIE_ULPS of the next, is grouped by exact ratio
    (``_ratio_groups``) unless it is one pair seen from both sides; any
    other run is one group, as two events form one group in exact
    arithmetic too: apart, each would change the size of the top k."""
    perm = np.arange(angles.size)
    opens = np.ones(angles.size, dtype=bool)
    opens[1:] = np.diff(angles.view(np.int64)) > NEAR_TIE_ULPS
    runs = np.append(np.flatnonzero(opens), angles.size)
    lo, size = runs[:-1], np.diff(runs)
    nxt = np.minimum(lo + 1, angles.size - 1)
    pair = (size == 2) & (rows[lo] == partners[nxt]) & (rows[nxt] == partners[lo])
    near = np.flatnonzero((size > 2) & ~pair)
    for lo, hi in zip(runs[near].tolist(), runs[near + 1].tolist()):
        found = partners[lo:hi].copy()
        for i in np.flatnonzero(found < 0).tolist():
            t = rows[lo + i]
            crossed = _crossings(points[:, 0] - points[t, 0],
                                 points[:, 1] - points[t, 1])[0]
            found[i] = np.argmax(crossed == angles[lo + i])
        order, opens[lo:hi] = _ratio_groups(points, rows[lo:hi], found)
        perm[lo:hi] = lo + order
    return perm, opens


def _ratio_groups(points: np.ndarray, rows: np.ndarray, partners: np.ndarray):
    """(permutation, opens a group) of the crossings of ``rows[i]`` with
    ``partners[i]`` sorted by exact ratio (``_ratio``), ties kept in order."""
    ratios = [_ratio(points, t, u)
              for t, u in zip(rows.tolist(), partners.tolist())]
    perm = sorted(range(len(ratios)), key=ratios.__getitem__)
    opens = np.ones(len(perm), dtype=bool)
    opens[1:] = [ratios[a] != ratios[b] for a, b in zip(perm, perm[1:])]
    return np.array(perm, dtype=np.intp), opens


def _ratio(points: np.ndarray, t: int, u: int) -> Fraction:
    """tan of the exact angle at which rows ``t`` and ``u`` score equally,
    from the stored doubles: each is an integer over a power of two, so
    on the largest of the four denominators the ratio is one of integers."""
    (a, p), (b, q) = points[u, 0].as_integer_ratio(), points[t, 0].as_integer_ratio()
    (c, r), (e, s) = points[t, 1].as_integer_ratio(), points[u, 1].as_integer_ratio()
    scale = max(p, q, r, s)
    return Fraction(a * (scale // p) - b * (scale // q),
                    c * (scale // r) - e * (scale // s))


def exact_rank_regret_2d(dataset: Dataset, subset) -> int:
    """max over theta in [0, pi/2] of the best rank among ``subset``'s
    members, exactly: 1 plus the largest depth of one interval per row.

    Ranking by (score descending, id ascending) is a total order at every
    angle, so a row is ahead of the best member exactly where it is ahead
    of every member, and the best member's rank is 1 plus the number of
    rows ahead of it.  For a row t and a member m let a = t1 - m1 and
    b = t2 - m2; t scores a cos(theta) + b sin(theta) above m, so with c
    the angle arctan(|a| / |b|) (pi/2 where b = 0):

    - a >= 0 >= b (not both 0): t is ahead on [0, c);
    - a <= 0 <= b (not both 0): t is ahead on (c, pi/2];
    - a < 0 and b < 0: t is never ahead, and a > 0 and b > 0: always;
    - t equal to m: t is ahead on all of [0, pi/2] if its id is smaller,
      and nowhere otherwise.

    At c the two tie, so t is ahead there too, the end closed, exactly
    when its id is smaller than m's.  Where a = 0 or b = 0 the end is
    exactly 0 or pi/2.  The intersection over the members, t's interval,
    runs from the largest of its lower ends to the smallest of its upper
    ends, open at an end where any member giving it is open
    (``_row_ends``).  The largest depth of these intervals comes from one
    sweep over their ends in order (Klee), where at one point the open
    stops come first, then the closed starts, the closed stops and the
    open starts; a row whose interval stops before it starts in that
    order is empty and counts nowhere.

    Float angles order ends more than NEAR_TIE_ULPS apart as their exact
    values.  Closer ones are compared by exact ratio (``_end_key``) where
    it matters: among the ends of a row that may be its extreme, and in a
    run of the sweep's ends that holds both starts and stops (the depth
    over a run of starts alone, or of stops alone, does not depend on
    their order).

    Only the kernel's rows (``core.member_survivors``) are read: the
    members and the rows that may come within NUMERIC_TOL of the best
    member at some angle.  Every other row scores below the best member
    at every angle in exact arithmetic, so it is ahead of it nowhere.
    """
    _require_2d(dataset)
    kernel = RankRegretKernel(dataset.values, subset)
    points = kernel.kept
    rows, angles, member, closed = _row_ends(points, kernel.rows,
                                             kernel.member_cols)
    # the lower ends (starts), then the upper ends (stops), each with its
    # place among the ends at one point
    half = rows.size // 2
    start = np.arange(rows.size) < half
    tie = 2 * (closed != start) + start
    order = np.argsort(angles, kind="stable")
    bits = angles[order].view(np.int64)
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = bits[1:] - bits[:-1] > NEAR_TIE_ULPS
    runs = np.append(np.flatnonzero(opens), order.size)
    starts = np.add.reduceat(start[order], runs[:-1])
    mixed = np.flatnonzero((starts > 0) & (starts < runs[1:] - runs[:-1]))
    for lo, hi in zip(runs[mixed].tolist(), runs[mixed + 1].tolist()):
        run = order[lo:hi]
        keys = [(_end_key(points, t, m, s), k) for t, m, s, k in zip(
            rows[run].tolist(), member[run].tolist(), start[run].tolist(),
            tie[run].tolist())]
        order[lo:hi] = run[sorted(range(run.size), key=keys.__getitem__)]
    place = np.argsort(order)
    counted = np.tile(place[:half] < place[half:], 2)
    depth = np.cumsum(np.where(start, 1, -1)[order] * counted[order])
    return 1 + int(depth.max(initial=0))


#: the key of a side on which no member bounds a row, below the bits of
#: every angle and of its negative
_UNBOUNDED = -(1 << 62)


def _row_ends(points: np.ndarray, ids: np.ndarray, members: np.ndarray):
    """(rows, angles, member, closed) of the ends of the intervals of the
    rows of ``points`` (ids ``ids``) ahead of every member (rows
    ``members``) at some angle (``exact_rank_regret_2d``): all lower ends,
    then all upper ends, each as its row, its float angle, the member row
    giving it (-1 for the ends 0 and pi/2 no member gives) and whether it
    is closed.  A member is never ahead of itself.

    A side's float extreme decides it unless another member's end lies
    within NEAR_TIE_ULPS of it; then the exact extreme of those ends
    (``_end_key``) does.  Where several members give it, it is closed
    only where it is for every one, so for the one of smallest id.
    The lower ends are the largest of the angles' bits, the upper ends
    the largest of their negatives.
    """
    sign = np.array([[[1]], [[-1]]])  # the lower side, the upper side
    step = _block_size(members.size)
    found = []
    for lo in range(0, ids.size, step):
        a = points[lo:lo + step, 0, None] - points[members, 0]
        b = points[lo:lo + step, 1, None] - points[members, 1]
        first = ids[lo:lo + step, None] < ids[members]
        same = (a == 0) & (b == 0)
        ahead = np.flatnonzero(~((a < 0) & (b < 0) | same & ~first).any(axis=1))
        a, b, first, same = a[ahead], b[ahead], first[ahead], same[ahead]
        bits = np.arctan2(np.abs(a), np.abs(b)).view(np.int64)
        bounds = (sign * a <= 0) & (sign * b >= 0) & ~same
        keys = np.where(bounds, sign * bits, _UNBOUNDED)
        col = keys.argmax(axis=2)
        near = bounds & (keys >= keys.max(axis=2, keepdims=True) - NEAR_TIE_ULPS)
        count = np.count_nonzero(near, axis=2)
        for side, i in zip(*np.nonzero(count > 1)):
            cand = np.flatnonzero(near[side, i]).tolist()
            exact = [_end_key(points, lo + ahead[i], members[j], True) for j in cand]
            extreme = (max, min)[side](exact)
            # the member of smallest id giving it: members ascend
            col[side, i] = next(j for j, e in zip(cand, exact) if e == extreme)
        closed = first[np.arange(ahead.size), col] | (count == 0)
        angles = bits[np.arange(ahead.size), col].view(np.float64)
        found.append((np.repeat([lo + ahead], 2, axis=0),
                      np.where(count > 0, angles, [[0.0], [HALF_PI]]),
                      np.where(count > 0, members[col], -1), closed))
    return [np.concatenate(c, axis=1).ravel() for c in zip(*found)]


def _end_key(points: np.ndarray, t: int, m: int, start: bool):
    """The exact tan of the angle of an end of row ``t``'s interval given
    by the member row ``m`` (by none where -1: 0 for a ``start``, pi/2
    otherwise), infinite at pi/2, where the two rows' x2 are equal."""
    if m < 0:
        return 0 if start else np.inf
    return np.inf if points[t, 1] == points[m, 1] else _ratio(points, t, m)


def _require_2d(dataset: Dataset) -> None:
    if dataset.d != 2:
        raise DimensionNot2D(f"operation requires d=2, got d={dataset.d}")
