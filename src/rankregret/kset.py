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
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from .core import Dataset, LinearFunction, top_k, top_k_many
from .errors import KOutOfRange, LPNumericalFailure
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
    and the candidates its dominance test rejected without one (None for
    other sources); ``swept`` says whether the 2-D enumeration fell back
    to the exchange sweep at a float near-tie (None for other sources).
    """

    sets: List[KSet]
    k: int
    complete: bool
    d: Optional[int] = None
    draws: Optional[int] = None
    lps: Optional[int] = None
    filtered: Optional[int] = None
    swept: Optional[bool] = None

    def __len__(self) -> int:
        return len(self.sets)

    def member_sets(self) -> List[frozenset]:
        return [s.members for s in self.sets]


def is_valid_kset(dataset: Dataset, members: Iterable[int]) -> Optional[LinearFunction]:
    """Witness function whose top-k is exactly ``members``, or None.

    Solves: maximize delta subject to v.t >= s + delta for members,
    v.t <= s for the rest, sum(v) = 1, v >= 0.  The set is a k-set iff the
    optimal margin delta is positive (beyond tolerance); the witness is the
    optimal v.  A solver failure is treated as invalid with a warning.
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
    A_ub = np.empty((n, nv))
    split = len(inside)
    # members: v.t - s - delta >= 0  ->  -v.t + s + delta <= 0
    A_ub[:split, :d] = -dataset.values[inside]
    A_ub[:split, d:] = (1.0, -1.0, 1.0, -1.0)
    # the rest: s - v.t >= 0  ->  v.t - s <= 0
    A_ub[split:, :d] = dataset.values[outside]
    A_ub[split:, d:] = (-1.0, 1.0, 0.0, 0.0)
    b_ub = np.zeros(n)
    A_eq = np.concatenate([np.ones(d), np.zeros(4)])[None, :]
    b_eq = np.ones(1)

    result = simplex_max(c, A_ub, b_ub, A_eq, b_eq)
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

    Each distinct candidate is decided at most once: ``is_valid_kset`` is
    a pure function of the set, so a candidate already found valid or
    rejected is skipped.  A candidate in which some non-member weakly
    dominates (>= on every attribute) a member is rejected without an LP:
    v.u >= v.t for every v >= 0 leaves that LP no positive margin, so it
    would reject the candidate too.  Neither shortcut changes a decision,
    so the sets, their order and their witnesses are those of solving
    every LP.  ``lps`` and ``filtered`` on the result count the LPs solved
    and the candidates the dominance test rejected.  Each LP is still a
    dense simplex solve, so this is a verification-scale tool; use the
    randomized collector for large inputs.
    """
    n = dataset.n
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in [1, {n}]")
    dominators = _weak_dominators(dataset.values)
    rejected = set()
    lps = filtered = 0

    def witness_of(candidate):
        nonlocal lps, filtered
        if candidate in rejected:
            return None
        if any(not dominators[t] <= candidate for t in candidate):
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


def _weak_dominators(values: np.ndarray) -> List[frozenset]:
    """Per tuple t, the other tuples u with values[u] >= values[t] on every
    attribute; exact duplicates count."""
    return [frozenset(np.flatnonzero((values >= row).all(axis=1)).tolist()) - {t}
            for t, row in enumerate(values)]


def _seed_kset(dataset: Dataset, k: int, witness_of):
    """A starting k-set: top-k on the first attribute, with fallbacks.

    On degenerate data the attribute-axis top-k may not be strictly
    separable; up to 16 deterministic random directions are tried, drawn
    only as needed, before giving up.  ``witness_of`` decides each
    candidate.
    """
    for f in _seed_functions(dataset.d):
        members = top_k(dataset, f, k)
        witness = witness_of(members)
        if witness is not None:
            return members, witness
    raise LPNumericalFailure("no strictly separable seed k-set found")


def _seed_functions(d: int):
    axis = np.zeros(d)
    axis[0] = 1.0
    yield LinearFunction(axis)
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(16):
        yield sample_function(rng, d)


def sample_functions(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """``count`` weight vectors drawn uniformly from the first-orthant sphere.

    Absolute values of i.i.d. standard normals, normalized to unit length.
    Normals come from an explicit Box-Muller transform over the generator's
    uniform stream, so a fixed seed reproduces the same vectors everywhere;
    drawing m then m' more matches one draw of m + m'.
    """
    if d < 2:
        raise ValueError("sampling requires d >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    pairs = (d + 1) // 2
    u = rng.random((count, 2 * pairs))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    phase = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((count, 2 * pairs))
    z[:, 0::2] = radius * np.cos(phase)
    z[:, 1::2] = radius * np.sin(phase)
    w = np.abs(z[:, :d])
    norms = np.linalg.norm(w, axis=1)
    while np.any(norms == 0.0):  # measure-zero guard
        bad = np.flatnonzero(norms == 0.0)
        w[bad] = sample_functions(rng, d, bad.size)
        norms[bad] = 1.0
    return w / norms[:, None]


def sample_function(rng: np.random.Generator, d: int) -> LinearFunction:
    """One ranking function drawn uniformly from the first-orthant sphere."""
    return LinearFunction(sample_functions(rng, d, 1)[0])


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
    final state are those of drawing one function at a time.
    """
    if c < 1:
        raise ValueError("termination counter c must be >= 1")
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} not in [1, {dataset.n}]")
    seen = set()
    ordered: List[KSet] = []
    misses = draws = 0
    while misses < c:
        weights = sample_functions(rng, dataset.d, c - misses)
        draws += len(weights)
        for w, members in zip(weights, top_k_many(dataset, weights, k)):
            if members in seen:
                misses += 1
            else:
                seen.add(members)
                ordered.append(KSet(members, LinearFunction(w)))
                misses = 0
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


def collection_from_lines(lines: Iterable[str], complete: bool = False,
                          d: Optional[int] = None) -> KSetCollection:
    sets: List[KSet] = []
    k = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        fields = dict(part.split("=", 1) for part in line.split(";"))
        line_k = int(fields["k"])
        if k is None:
            k = line_k
        elif k != line_k:
            raise ValueError("mixed k values in k-set file")
        members = frozenset(int(t) for t in fields["members"].split(","))
        if len(members) != k:
            raise ValueError(f"set {sorted(members)} does not have k={k} members")
        witness = None
        if "witness" in fields:
            witness = LinearFunction([float(w) for w in fields["witness"].split(",")])
            if d is None:
                d = witness.d
        sets.append(KSet(members, witness))
    if k is None:
        raise ValueError("no k-sets in input")
    return KSetCollection(sets=sets, k=k, complete=complete, d=d)


def save_collection(collection: KSetCollection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(collection_to_lines(collection)) + "\n")


def load_collection(path, complete: bool = False,
                    d: Optional[int] = None) -> KSetCollection:
    with open(path, "r", encoding="utf-8") as fh:
        return collection_from_lines(fh, complete=complete, d=d)
