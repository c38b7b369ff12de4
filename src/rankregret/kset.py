"""k-set machinery: the possible top-k outcomes of linear ranking functions.

A k-set is a size-k subset strictly separable from the rest by a
hyperplane with non-negative normal; these are exactly the achievable
top-k results.  Validity is decided by a margin-maximization LP.  Complete
enumeration walks the k-set graph (sets sharing k-1 members are adjacent,
and the graph is connected); the randomized collector repeatedly samples
ranking functions and keeps their top-k results, stopping after a run of
draws that produce nothing new.
"""

import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from .core import (Dataset, LinearFunction, block_rows, check_k, top_k,
                   top_k_ids)
from .errors import (ConfigError, LPNumericalFailure,
                     MalformedKSetFile, NonFiniteValue)
from .simplex import simplex_max

log = logging.getLogger(__name__)

#: a candidate set is a k-set only if the separating margin exceeds this
VALIDITY_TOL = 1e-7


@dataclass(frozen=True)
class KSet:
    """A possible top-k outcome, optionally with a function achieving it."""

    members: frozenset
    witness: Optional[LinearFunction] = None


@dataclass
class KSetCollection:
    """A deduplicated collection of k-sets of one order k.

    ``complete`` distinguishes exact enumerations from sampled ones; ``d``
    is the dataset dimensionality (needed by consumers such as the
    hitting-set solver for the VC dimension); ``draws`` is the number of
    ranking functions a sampling collector drew (None for exact sources);
    ``lps`` and ``filtered`` are the separation LPs the k-set graph solved
    and the candidates its segment certificates rejected without one
    (None for other sources).
    """

    sets: List[KSet]
    k: int
    complete: bool
    d: Optional[int] = None
    draws: Optional[int] = None
    lps: Optional[int] = None
    filtered: Optional[int] = None

    def __len__(self) -> int:
        return len(self.sets)

    def member_sets(self) -> List[frozenset]:
        return [s.members for s in self.sets]


def is_valid_kset(dataset: Dataset, members: Iterable[int]) -> Optional[LinearFunction]:
    """Witness function whose top-k is exactly ``members``, or None.

    Solves: maximize delta subject to v.t >= s + delta for members,
    v.t <= s for the rest, sum(v) <= 1, v >= 0.  The set is a k-set iff the
    optimal margin delta is positive (beyond tolerance); the witness is the
    optimal v.  A solver failure is treated as invalid with a warning.

    Every right-hand side is >= 0 (the last row's is 1), so the simplex
    starts from the slack basis.  The optimum is max(delta*, 0), with
    delta* that of the same LP under sum(v) = 1, so the test against
    VALIDITY_TOL > 0 decides as with the equality.  A feasible point with
    sigma = sum(v) > 0 scales by 1/sigma to a point of the equality LP, so
    its margin is delta <= sigma*delta*.  With sigma = 0, the members force
    s + delta <= 0 and the rest s >= 0, so delta <= 0.  The origin and the
    equality LP's optimum are both feasible here, so max(delta*, 0) is met.
    Where delta* > 0 a margin of delta* needs sigma = 1, so the witness
    sums to 1.
    """
    S = frozenset(int(t) for t in members)
    n, d = dataset.n, dataset.d
    if not S or not S.issubset(range(n)):
        raise ValueError("members must be a non-empty subset of tuple ids")
    if len(S) == n:
        # any positive weight vector puts all n tuples in its top-n
        return LinearFunction(np.full(d, 1.0 / d))

    inside = sorted(S)
    outside = sorted(set(range(n)) - S)
    # variables: v (d), s+, s-, delta+, delta-
    nv = d + 4
    c = np.zeros(nv)
    c[d + 2], c[d + 3] = 1.0, -1.0
    A_ub = np.zeros((n + 1, nv))
    split = len(inside)
    # members: v.t - s - delta >= 0  ->  -v.t + s + delta <= 0
    A_ub[:split, :d] = -dataset.values[inside]
    A_ub[:split, d:] = (1.0, -1.0, 1.0, -1.0)
    # the rest: s - v.t >= 0  ->  v.t - s <= 0
    A_ub[split:n, :d] = dataset.values[outside]
    A_ub[split:n, d:] = (-1.0, 1.0, 0.0, 0.0)
    # sum(v) <= 1
    A_ub[n, :d] = 1.0
    b_ub = np.zeros(n + 1)
    b_ub[n] = 1.0

    result = simplex_max(c, A_ub, b_ub)
    if not result.ok:
        log.warning("k-set LP did not converge (%s); treating set as invalid",
                    result.status)
        return None
    if result.objective <= VALIDITY_TOL:
        return None
    v = np.clip(result.x[:d], 0.0, None)
    return LinearFunction(v)


def enumerate_ksets_graph(dataset: Dataset, k: int) -> KSetCollection:
    """Exact k-set enumeration by BFS over the k-set graph.

    Seeds with the top-k on the first attribute, then explores neighbors
    obtained by swapping one member for one non-member (in ascending
    (removed, added) order), keeping LP-valid sets.  Connectivity of the
    k-set graph makes this traversal complete.

    Each distinct candidate S is decided at most once: ``is_valid_kset`` is
    a pure function of the set, so a candidate already found valid or
    rejected is skipped.  S is rejected without an LP when a segment
    certificate holds:

    - a member t lies weakly below (<= on every attribute) some point
      x = lam*u + (1-lam)*u' of the segment between two non-members u, u'
      (u = u' is weak dominance); or
    - some point x = lam*t + (1-lam)*t' of the segment between two members
      lies weakly below a non-member u.

    Either way the LP has no positive margin.  Any feasible (v, s, delta)
    has v >= 0 and sum(v) <= 1, so in the first case s + delta <= v.t <=
    v.x = lam*v.u + (1-lam)*v.u' <= s, and in the second s + delta <=
    lam*v.t + (1-lam)*v.t' = v.x <= v.u <= s: delta <= 0 <= VALIDITY_TOL,
    and the LP would reject S too.

    The certificates are decided in floats (see ``_SegmentTables``), and
    hold up to rounding.  Each attribute i asks b_i <= lam*a_i with
    a_i = u_i - u'_i and b_i = t_i - u'_i (the second case is the first
    on negated values).  A float difference is zero, or has its sign,
    exactly when the real one does, so attributes with a_i = 0 are decided
    exactly; every other attribute bounds lam by the quotient b_i/a_i,
    which floats give within 3 relative ulps.  The test passes when
    lam* = max(0, lower bounds) <= min(1, upper bounds), and then at lam*
    each b_i - lam*a_i is at most 3 ulps of |b_i| <= 1 + 2e-9 (values lie
    in [0, 1] up to NUMERIC_TOL) plus at most one subnormal ulp.  So x at
    lam* is a true segment point with t <= x + 4*eps on every attribute,
    which by the argument above gives delta <= 4*eps = 9e-16, far below
    VALIDITY_TOL: the LP still rejects S.

    So the sets, their order and their witnesses are those of solving
    every LP.  ``lps`` and ``filtered`` on the result count the LPs solved
    and the candidates the certificates rejected; their sum is the number
    of distinct candidates decided.  Each LP is still a dense simplex
    solve, so this is a verification-scale tool; use the randomized
    collector for large inputs.
    """
    n = dataset.n
    check_k(k, n)
    tables = _SegmentTables(dataset.values)
    rejected = set()
    lps = filtered = 0

    def witness_of(candidate):
        nonlocal lps, filtered
        if candidate in rejected:
            return None
        if tables.certify(candidate):
            filtered += 1
            rejected.add(candidate)
            return None
        lps += 1
        witness = is_valid_kset(dataset, candidate)
        if witness is None:
            rejected.add(candidate)
        return witness

    seed_set, seed_witness = _seed_kset(dataset, k, witness_of)
    discovered = {seed_set}
    ordered = [KSet(seed_set, seed_witness)]
    queue = deque([seed_set])
    universe = range(n)
    while queue:
        current = queue.popleft()
        rest = sorted(set(universe) - current)
        for removed in sorted(current):
            base = current - {removed}
            for added in rest:
                candidate = base | {added}
                if candidate in discovered:
                    continue
                witness = witness_of(candidate)
                if witness is not None:
                    discovered.add(candidate)
                    ordered.append(KSet(candidate, witness))
                    queue.append(candidate)
    return KSetCollection(sets=ordered, k=k, complete=True, d=dataset.d,
                          lps=lps, filtered=filtered)


class _SegmentTables:
    """The segment certificates of :func:`enumerate_ksets_graph`.

    Per row t, ``below[t]`` is an int of n*n bits whose bit p*n + q is set
    when values[t] lies weakly below some point of the segment from
    values[p] to values[q], and ``above[t]`` when weakly above one.  Rows
    are built on first use, in blocks of rows whose (rows, n, n, d)
    quotients fill about SCORE_BLOCK_BYTES, so n^3*d floats are never held
    at once.  A candidate is certified by one AND per row with the pair
    mask of its non-members (for ``below``) or of its members (for
    ``above``); the pair mask of an n-bit set m is m * (sum of 2^(p*n)
    over p in m), whose terms occupy disjoint n-bit fields.
    """

    def __init__(self, values: np.ndarray):
        n = len(values)
        self.n = n
        # pair[p, q] = values[p] - values[q]
        self.pair = values[:, None, :] - values[None, :, :]
        self.rise = self.pair > 0
        self.fall = self.pair < 0
        self.block = block_rows(self.pair.size)
        self.below: List[Optional[int]] = [None] * n
        self.above: List[Optional[int]] = [None] * n
        self.full = (1 << n) - 1
        self.spread = [1 << (p * n) for p in range(n)]
        self.spread_all = sum(self.spread)

    def certify(self, candidate: frozenset) -> bool:
        """Whether either certificate rejects ``candidate``."""
        inside = sum(1 << t for t in candidate)
        if inside == self.full:
            return False
        spread_in = sum(self.spread[t] for t in candidate)
        outside_pairs = (self.full ^ inside) * (self.spread_all - spread_in)
        inside_pairs = inside * spread_in
        return (any(self._row(self.below, t) & outside_pairs
                    for t in candidate)
                or any(self._row(self.above, u) & inside_pairs
                       for u in range(self.n) if not inside >> u & 1))

    def _row(self, table: list, t: int) -> int:
        if table[t] is None:
            self._build(t - t % self.block)
        return table[t]

    def _build(self, lo: int) -> None:
        rows = slice(lo, min(self.n, lo + self.block))
        pair, rise, fall = self.pair, self.rise, self.fall
        b = pair[rows, None]  # values[t] - values[q], over (t, p, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = b / pair
        # where values[p] > values[q], below needs lam >= ratio, above
        # lam <= ratio; where values[p] < values[q] the reverse; where equal,
        # below needs values[t] <= values[q] and above >=
        moves = rise | fall
        up = np.where(rise, ratio, -np.inf).max(axis=-1)
        down = np.where(fall, ratio, np.inf).min(axis=-1)
        below = ((moves | (b <= 0)).all(axis=-1)
                 & (np.maximum(up, 0.0) <= np.minimum(down, 1.0)))
        up = np.where(fall, ratio, -np.inf).max(axis=-1)
        down = np.where(rise, ratio, np.inf).min(axis=-1)
        above = ((moves | (b >= 0)).all(axis=-1)
                 & (np.maximum(up, 0.0) <= np.minimum(down, 1.0)))
        self.below[rows] = _bit_rows(below)
        self.above[rows] = _bit_rows(above)


def _bit_rows(table: np.ndarray) -> List[int]:
    """Each (n, n) boolean slice of ``table`` as an int with bit p*n + q."""
    packed = np.packbits(table.reshape(len(table), -1), axis=1,
                         bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _seed_kset(dataset: Dataset, k: int, witness_of):
    """A starting k-set: top-k on the first attribute, with fallbacks.

    On degenerate data the attribute-axis top-k may not be strictly
    separable; then up to 16 deterministic random directions, drawn
    together from ``PCG64(0)``, are tried in turn before giving up.
    ``witness_of`` decides each candidate.
    """
    for f in _seed_functions(dataset.d):
        members = top_k(dataset, f, k)
        witness = witness_of(members)
        if witness is not None:
            return members, witness
    raise LPNumericalFailure("no strictly separable seed k-set found")


def _seed_functions(d: int) -> list:
    axis = np.zeros((1, d))
    axis[0, 0] = 1.0
    rng = np.random.Generator(np.random.PCG64(0))
    return LinearFunction.from_rows(np.vstack((axis, sample_functions(rng, d, 16))))


def sample_functions(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """``count`` weight vectors drawn uniformly from the first-orthant sphere.

    Absolute values of i.i.d. standard normals, normalized to unit length:
    ``uniform_directions`` of ``sample_uniforms``.  Normals come from an
    explicit Box-Muller transform over the generator's uniform stream, so
    a fixed seed reproduces the same vectors everywhere; drawing m then m'
    more matches one draw of m + m'.  Each pair of uniforms gives a cosine
    and a sine normal; for odd d the last pair's sine is not needed and
    not computed, but its uniform is still drawn.
    """
    return uniform_directions(sample_uniforms(rng, d, count), d)


def sample_uniforms(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """The (count, 2 ceil(d/2)) uniforms of ``count`` sampled functions,
    radius and phase uniform of each pair side by side.

    A row whose normals would all be 0 is drawn again (a measure-zero
    guard), decided on the uniforms: the normals of a pair are r cos(t)
    and r sin(t) with r = sqrt(-2 log(1 - a)) for its radius uniform a,
    and a cosine of a double angle is never 0, so |z| = 0 exactly when
    every radius uniform of the row is 0.
    """
    if d < 2:
        raise ConfigError("sampling requires d >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    uniforms = rng.random((count, 2 * ((d + 1) // 2)))
    if not uniforms.all():  # some uniform is 0, most likely no whole row
        bad = np.flatnonzero(~uniforms[:, 0::2].any(axis=1))
        if bad.size:
            uniforms[bad] = sample_uniforms(rng, d, bad.size)
    return uniforms


def uniform_directions(uniforms: np.ndarray, d: int) -> np.ndarray:
    """The unit weight vectors of ``sample_uniforms`` rows, in float64.

    Row by row: the directions of any subset of rows are bit for bit
    those of the same rows mapped together.
    """
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[:, 0::2]))
    phase = 2.0 * np.pi * uniforms[:, 1::2]
    z = np.empty((len(uniforms), d))
    z[:, 0::2] = radius * np.cos(phase)
    z[:, 1::2] = radius[:, :d // 2] * np.sin(phase[:, :d // 2])
    w = np.abs(z)
    return w / np.linalg.norm(w, axis=1)[:, None]


def float32_directions(uniforms: np.ndarray, d: int):
    """The directions of ``sample_uniforms`` rows in float32, and per row a
    bound on their l1 distance to the float64 ``uniform_directions``.

    The radius takes the float64 logarithm, as there, and a float32
    square root; the phase 2 pi u is rounded to float32 and its cosine and
    sine are taken in float32.  Let eps = 2^-24 and R a pair's radius.
    Against the float64 map, the float32 phase is off by at most 2 pi eps,
    which moves a cosine or sine by as much; the float32 radius by at most
    1.5 eps R (the rounded square root of the rounded float64 square);
    the float32 product rounds by eps R; and the float32 cosine and sine
    round by L eps, where numpy's err by at most 1.2 eps on [0, 2 pi]
    (against float64 at 2e7 angles).  So every normal differs by at most
    (8.8 + L) eps R plus float64 terms near 2^-50 R, taken as 16 eps R,
    which leaves L up to 7 eps, and the rows' |z| differ by at most
    16 eps S in l1, with S the sum of each normal's radius.  For x, y >= 0,
    |x/|x| - y/|y||_1 <= |x - y|_1 / |x| + |y/|y||_1 |x - y|_2 / |x|
    <= (1 + sqrt(d)) |x - y|_1 / |x|, and the float32 norm and division
    move a unit vector by at most (d/2 + 3) eps sqrt(d) in l1 (the
    float64 ones by less than 2^-48).  The bound is
        eps ((d/2 + 3) sqrt(d) + 16 (1 + sqrt(d)) S / N),
    with N the float32 norm of |z|; its rounding, and that of the bound
    itself, are relative errors of a few eps that the same room covers.
    The bound is largest where |z| is small against the radii: a short
    vector, or for odd d a last cosine near 0 under a long radius.
    """
    columns = np.ascontiguousarray(uniforms.T)  # one row per uniform
    radius = np.sqrt((-2.0 * np.log(1.0 - columns[0::2])).astype(np.float32))
    phase = (2.0 * np.pi * columns[1::2]).astype(np.float32)
    w = np.empty((d, len(uniforms)), dtype=np.float32)
    w[0::2] = radius * np.cos(phase)
    w[1::2] = radius[:d // 2] * np.sin(phase[:d // 2])
    np.abs(w, out=w)
    norms = np.sqrt(np.add.reduce(w * w, axis=0))
    w /= norms
    spread = np.add.reduce(radius) + np.add.reduce(radius[:d // 2])
    root = math.sqrt(d)
    eps = np.float32(2.0 ** -24)
    errors = eps * (np.float32((d / 2 + 3) * root)
                    + np.float32(16 * (1 + root)) * spread / norms)
    return w.T, errors


def collect_ksets_random(dataset: Dataset, k: int, c: int,
                         rng: np.random.Generator) -> KSetCollection:
    """Coupon-collector style k-set discovery.

    Repeatedly samples a ranking function and records its top-k; stops
    after ``c`` consecutive draws that produce no new set.  Every returned
    set is a genuine k-set by construction (it is the top-k of its
    witness), but completeness is not guaranteed: sets owning a tiny slice
    of the function space can be missed.

    The functions are drawn and scored in blocks of ``c - misses``, the
    fewest draws that could end the run, so the stop falls on a block's
    last draw: the sets, their order, the witnesses and the generator's
    final state are those of drawing one function at a time.  Within a
    block, the ascending ``top_k_ids`` rows are keyed by their bytes, one
    ``np.unique`` finds each key's first draw, and only those keys are
    looked up among the sets seen before; the run of misses restarts after
    the block's last new set.  ``sample_functions`` output is finite,
    non-negative and unit, and the block is checked once for the
    witnesses.
    """
    if c < 1:
        raise ConfigError("termination counter c must be >= 1")
    check_k(k, dataset.n)
    seen = set()
    ordered: List[KSet] = []
    misses = draws = 0
    while misses < c:
        weights = sample_functions(rng, dataset.d, c - misses)
        draws += len(weights)
        ids = top_k_ids(dataset, weights, k)
        keys = ids.view(np.dtype((np.void, ids.itemsize * k))).ravel()
        _, first = np.unique(keys, return_index=True)
        first.sort()
        new = [i for i, key in zip(first.tolist(), keys[first].tolist())
               if key not in seen]
        if not new:
            misses += len(weights)
            continue
        seen.update(keys[new].tolist())
        witnesses = LinearFunction.from_rows(weights[new])
        ordered.extend(KSet(frozenset(members), witness) for members, witness
                       in zip(ids[new].tolist(), witnesses))
        misses = len(weights) - 1 - new[-1]
    return KSetCollection(sets=ordered, k=k, complete=False, d=dataset.d,
                          draws=draws)


# --- line-delimited wire format: k=<k>;members=<id,...>;witness=<w1,...,wd> ---

def collection_to_lines(collection: KSetCollection) -> List[str]:
    lines = []
    for s in collection.sets:
        parts = [f"k={collection.k}",
                 "members=" + ",".join(str(t) for t in sorted(s.members))]
        if s.witness is not None:
            parts.append("witness=" + ",".join(repr(float(w)) for w in s.witness.weights))
        lines.append(";".join(parts))
    return lines


def collection_from_lines(lines: Iterable[str],
                          d: Optional[int] = None) -> KSetCollection:
    """Parse the wire format (never known to be complete); a line that does
    not parse, a witness that is no ``LinearFunction`` (non-finite, negative
    or all zero), a set without k members, mixed k values, a witness whose
    length is not ``d`` (or the first's) and no sets raise MalformedKSetFile
    naming the line."""
    sets: List[KSet] = []
    k = None
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split(";"))
            line_k = int(fields["k"])
            members = frozenset(int(t) for t in fields["members"].split(","))
            witness = None
            if "witness" in fields:
                witness = LinearFunction(
                    [float(w) for w in fields["witness"].split(",")])
        except KeyError as exc:
            raise MalformedKSetFile(
                f"k-set line {number} has no {exc.args[0]}= field") from None
        except (ValueError, NonFiniteValue) as exc:
            raise MalformedKSetFile(f"k-set line {number}: {exc}") from None
        if k is None:
            k = line_k
        elif k != line_k:
            raise MalformedKSetFile(
                f"k-set line {number} has k={line_k}, an earlier line k={k}")
        if len(members) != k:
            raise MalformedKSetFile(
                f"k-set line {number}: set {sorted(members)} does not have "
                f"k={k} members")
        if witness is not None:
            if d is None:
                d = witness.d
            elif witness.d != d:
                raise MalformedKSetFile(
                    f"k-set line {number} has a witness of {witness.d} "
                    f"weights, not {d}")
        sets.append(KSet(members, witness))
    if k is None:
        raise MalformedKSetFile("no k-sets in input")
    return KSetCollection(sets=sets, k=k, complete=False, d=d)


def save_collection(collection: KSetCollection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(collection_to_lines(collection)) + "\n")


def load_collection(path, d: Optional[int] = None) -> KSetCollection:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return collection_from_lines(fh, d=d)
        except UnicodeDecodeError as exc:
            raise MalformedKSetFile(f"{path} is not UTF-8 text ({exc})") from None
