"""Evaluation harness: rank-regret measurement, the dual problem, benchmarks.

The solvers' k-set sources and their default are named here
(``collect_ksets``), and here alone a run's seed becomes its generators
(``_generator``): callers pass integer seeds only.

In 2-D the rank-regret of a subset is exact in every mode and at every
n: ``sweep2d.exact_rank_regret_2d``, the largest depth of the intervals
of angles on which rows rank ahead of the best member.  For d > 2 it is
estimated by drawing ranking functions uniformly from the first-orthant
sphere and taking the worst best-rank of any member: every function's
rank is bounded from above in one float32 pass, and only the functions
whose bound can raise the maximum are ranked in float64, which gives the
value of ranking them all by matrix products.  That can exceed the true
maximum by one rank where a member has an exact duplicate row of larger
id (see ``estimate_rank_regret``).  Both see only the members and the
rows that may come within NUMERIC_TOL of the best member under some
function (``core.member_survivors``), which changes neither value.
"""

import csv
import functools
import io
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (Dataset, RankRegretKernel, Representative, block_rows,
                   check_k)
from .errors import ConfigError, KOutOfRange, MalformedKSetFile
from .hitting import mdrrr
from .kset import (
    KSetCollection,
    collect_ksets_random,
    enumerate_ksets_graph,
    float32_directions,
    load_collection,
    sample_functions,
    sample_uniforms,
    uniform_directions,
)
from .mdrc import mdrc
from .sweep2d import (_require_2d, enumerate_ksets_2d, exact_rank_regret_2d,
                      rrr_2d)

log = logging.getLogger(__name__)

DEFAULT_SAMPLES = 10_000
#: sampled functions bounded at once, in whole chunks (at least one)
WINDOW = 1 << 16
#: functions in a chunk's first float64 batch; later batches double
FIRST_BATCH = 32
DEFAULT_SAMPLER_C = 100

#: the solvers of ``run_algorithm``
ALGORITHMS = ("2drrr", "mdrrr", "mdrc")
#: the k-set sources of ``collect_ksets``
KSET_SOURCES = ("sweep2d", "graph", "random")


@dataclass(frozen=True)
class EvaluationReport:
    """One measured solver run."""

    algorithm: str
    n: int
    d: int
    k: int
    subset_size: Optional[int]
    rank_regret: Optional[int]
    exact: bool
    samples: Optional[int]
    wall_time_seconds: float
    seed: Optional[int]
    params: dict
    dataset_fingerprint: str
    error: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def estimate_rank_regret(dataset: Dataset, subset, samples: int = DEFAULT_SAMPLES,
                         rng: Optional[np.random.Generator] = None) -> int:
    """Monte-Carlo rank-regret: worst best-member-rank over sampled functions.

    In 2-D this is the exact value, ``sweep2d.exact_rank_regret_2d``, and
    no function is drawn; ``samples`` must still be positive.

    The maximum over a sample never exceeds the true maximum, so this is a
    lower bound that sharpens with the sample count (up to one rank where
    a member has an exact duplicate, last paragraph).  The functions are
    those of ``sample_functions`` in chunks of up to 1024, each chunk
    scored over all n rows by one matrix product, which fixes the rounding
    of every score; the value is that of ranking every function in that
    arithmetic (``oracles.sampled_rank_regret``).
    ``core.RankRegretKernel`` keeps the members and the rows that may come
    within NUMERIC_TOL of the best member under some function
    (``core.member_survivors``: a threshold pass over a simplicial grid of
    the weight simplex, then a dominance pass).  Every row it drops scores
    more than NUMERIC_TOL - 3d eps below the best member under every unit
    weight vector, in exact arithmetic and so in every float product, so
    the best member's rank is unchanged.

    The functions are taken in windows of up to WINDOW whole chunks, each
    in three steps.  *Draw*: ``sample_uniforms`` draws each chunk's
    uniforms from ``rng``, as ``sample_functions`` would.  *Bound*:
    ``float32_directions`` maps them to float32 directions, each within a
    stated l1 error of its float64 direction, and the kernel's
    ``rank_bounds`` bounds every function's rank from above in one float32
    pass.  *Exact* (``_score_above``): the chunks are visited in
    decreasing largest bound and each chunk's functions in decreasing
    bound, in batches that double from FIRST_BATCH, until the next bound
    is at most the kernel's running maximum ``worst``; each batch gets its
    float64 directions (``uniform_directions``, bit for bit the rows
    ``sample_functions`` returns), is scored over the kept rows and goes
    to the kernel's ``add``.  Where another row scores within a few ulps
    of the best member, the reference decides: the function's chunk scored
    over all n rows by one product, taken only for chunks that need it.
    The value is that of scoring every function: a skipped function's rank
    is at most its bound, which is at most ``worst`` when it is skipped,
    and every other function is ranked in the reference arithmetic.  The
    count of functions scored in float64 is logged at DEBUG.

    The BLAS product can score identical rows differently by their
    position, so it can rank a duplicate with a larger id ahead of its
    member, one rank above the exact rank under that function.
    """
    if samples < 1:
        raise ConfigError("samples must be positive")
    if dataset.d == 2:
        return exact_rank_regret_2d(dataset, subset)
    values, d = dataset.values, dataset.d
    kernel = RankRegretKernel(values, subset)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    chunk = max(1, min(1024, (1 << 22) // dataset.n))
    window = chunk * max(1, WINDOW // chunk)
    for lo in range(0, samples, window):
        uniforms = np.concatenate([
            sample_uniforms(rng, d, min(chunk, samples - start))
            for start in range(lo, min(lo + window, samples), chunk)])
        bounds = kernel.rank_bounds(*float32_directions(uniforms, d))
        _score_above(kernel, values, uniforms, chunk, bounds)
    log.debug("%d of %d sampled functions scored in float64",
              kernel.scored, samples)
    return kernel.worst


def _score_above(kernel: RankRegretKernel, values: np.ndarray,
                 uniforms: np.ndarray, chunk: int, bounds: np.ndarray) -> None:
    """Fold into ``kernel``, in float64, every function of a window whose
    bound exceeds the running maximum.

    The window's chunks are visited in decreasing largest bound, and each
    chunk's functions in decreasing bound, in batches that double from
    FIRST_BATCH, none above about SCORE_BLOCK_BYTES of float64 scores.  A
    batch stays within its chunk, so the chunk's reference product (its
    functions scored over all n rows) is taken at most once, on the first
    tie, and only one is held at a time.
    """
    d = values.shape[1]
    most = block_rows(kernel.rows.size)
    tops = np.maximum.reduceat(bounds, np.arange(0, len(bounds), chunk))
    for c in np.argsort(tops, kind="stable")[::-1].tolist():
        if tops[c] <= kernel.worst:
            return
        lo = c * chunk
        part = bounds[lo:lo + chunk]
        hot = np.flatnonzero(part > kernel.worst)
        hot = hot[np.argsort(part[hot], kind="stable")[::-1]]
        full = functools.cache(lambda lo=lo: uniform_directions(
            uniforms[lo:lo + chunk], d) @ values.T)
        start, size = 0, min(FIRST_BATCH, most)
        while start < hot.size and part[hot[start]] > kernel.worst:
            batch = hot[start:start + size]
            batch = batch[part[batch] > kernel.worst]
            weights = uniform_directions(uniforms[lo + batch], d)
            kernel.add(weights @ kernel.kept.T,
                       lambda f=full, b=batch: f()[b])
            start += size
            size = min(2 * size, most)


def resolve_k(n: int, k: Optional[int] = None, k_pct: Optional[float] = None) -> int:
    """Turn an absolute k or a percentage into an integer rank.

    Percentages round up, so "top 1%" always admits at least the stated
    fraction of ranks.
    """
    if (k is None) == (k_pct is None):
        raise ValueError("exactly one of k and k_pct must be given")
    if k_pct is not None:
        if not 0 < k_pct <= 100:  # also NaN and infinity
            raise KOutOfRange(f"k_pct={k_pct} not in (0, 100]")
        k = math.ceil(k_pct / 100.0 * n)
    check_k(k, n)
    return int(k)


def _generator(seed: Optional[int], use: str) -> np.random.Generator:
    """The generator of one ``use`` of a run's ``seed`` (0 when None).

    "collector" (the random k-set collector) is the first child of
    ``SeedSequence(seed)``; the hitting set draws nothing, so a
    collection saved by one run and solved by another gives the members
    of one run with the same seed.  "evaluation" (the functions of the
    estimate) is seeded by ``SeedSequence([0xE7A1, seed])``.
    """
    seed = 0 if seed is None else seed
    if use == "evaluation":
        sequence = np.random.SeedSequence([0xE7A1, seed])
    else:
        sequence = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.Generator(np.random.PCG64(sequence))


def collect_ksets(dataset: Dataset, k: int, source: Optional[str] = None, *,
                  c: int = DEFAULT_SAMPLER_C,
                  seed: Optional[int] = None) -> Tuple[str, KSetCollection]:
    """The name of ``source`` and its k-set collection: the exact 2-D sweep
    ("sweep2d"), the LP k-set graph ("graph") or the randomized collector
    ("random", drawing from the collector generator of ``seed`` until
    ``c`` draws in a row find no new set).  Without a source it is
    "sweep2d" when d = 2 and "random" otherwise."""
    source = source or ("sweep2d" if dataset.d == 2 else "random")
    if source == "sweep2d":
        return source, enumerate_ksets_2d(dataset, k)
    if source == "graph":
        return source, enumerate_ksets_graph(dataset, k)
    if source == "random":
        return source, collect_ksets_random(dataset, k, c,
                                            _generator(seed, "collector"))
    raise ValueError(f"unknown kset source {source!r}")


def _load_ksets(dataset: Dataset, path: str, k: int) -> KSetCollection:
    """The k-set collection saved at ``path`` (``rrr ksets -o``): every
    tuple id must lie in [0, n) (MalformedKSetFile) and its k must be
    ``k`` (ConfigError)."""
    collection = load_collection(path, d=dataset.d)
    unknown = sorted({t for s in collection.sets for t in s.members
                      if not 0 <= t < dataset.n})
    if unknown:
        raise MalformedKSetFile(
            f"k-set file names {len(unknown)} tuple ids outside "
            f"[0, {dataset.n}), the first {unknown[:5]}")
    if collection.k != k:
        raise ConfigError(f"k-set file has k={collection.k}, requested k={k}")
    return collection


def run_algorithm(name: str, dataset: Dataset, k: int, *,
                  seed: Optional[int] = None,
                  c: int = DEFAULT_SAMPLER_C,
                  kset_source: Optional[str] = None,
                  ksets_file: Optional[str] = None) -> Representative:
    """Dispatch a solver by name.

    The mdrrr pipeline solves the k-set collection of ``collect_ksets``
    (``kset_source``, by default chosen by d), or the one saved at
    ``ksets_file`` (``_load_ksets``), by greedy pick and prune
    (``hitting.mdrrr``).  Its params are k, the source ("file" for a
    file), ``c`` unless read from a file and the collection's counters
    (``collection_params``), in that order.  Its bound (rank-regret <= k)
    is guaranteed only when the collection is complete.
    """
    if name == "2drrr":
        rep = rrr_2d(dataset, k)
        return replace(rep, seed=seed)
    if name == "mdrc":
        rep = mdrc(dataset, k)
        return replace(rep, seed=seed)
    if name == "mdrrr":
        if ksets_file is None:
            source, collection = collect_ksets(dataset, k, kset_source, c=c,
                                               seed=seed)
            params = {"k": k, "kset_source": source, "c": c}
        else:
            collection = _load_ksets(dataset, ksets_file, k)
            params = {"k": k, "kset_source": "file"}
        return Representative(
            members=mdrrr(collection), algorithm="mdrrr",
            bound_guaranteed=collection.complete,
            params={**params, **collection_params(collection)}, seed=seed)
    raise ValueError(f"unknown algorithm {name!r}; one of {ALGORITHMS}")


def collection_params(collection: KSetCollection) -> dict:
    """What an mdrrr run reports about its k-set collection: its size,
    whether it is complete, and the collector's draws or the graph's LPs
    and certificate-rejected candidates (None where they do not apply)."""
    return {"collection_size": len(collection),
            "complete": collection.complete,
            "draws": collection.draws,
            "lps": collection.lps,
            "filtered": collection.filtered}


def dual_problem(dataset: Dataset, size_budget: int, solver: str = "mdrc",
                 **solver_params):
    """Smallest k whose representative fits the size budget, by binary search.

    Returns (k, representative).  Every solver returns a single tuple at
    k = n, so a feasible k always exists for budgets >= 1.
    """
    if not 1 <= size_budget <= dataset.n:
        raise ConfigError(f"size budget {size_budget} not in [1, {dataset.n}]")
    lo, hi = 1, dataset.n
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        rep = run_algorithm(solver, dataset, mid, **solver_params)
        if rep.size <= size_budget:
            best = (mid, rep)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise ValueError("no k admits the budget (solver output never fits)")
    return best


def measure_rank_regret(dataset: Dataset, members, *,
                        samples: int = DEFAULT_SAMPLES,
                        seed: Optional[int] = None,
                        mode: str = "auto") -> Tuple[int, bool, Optional[int]]:
    """Rank-regret of ``members`` as (value, exact, samples used).

    Every mode is ``estimate_rank_regret``, which checks ``samples`` and
    is exact in 2-D; for d > 2 it samples functions from the evaluation
    generator of ``seed``, so equal seeds measure equal members
    identically.  ``mode`` "exact" refuses d > 2 (DimensionNot2D);
    "auto" and "estimate" are the same.
    """
    if mode == "exact":
        _require_2d(dataset)
    exact = dataset.d == 2
    return (int(estimate_rank_regret(dataset, members, samples,
                                     _generator(seed, "evaluation"))),
            exact, None if exact else samples)


def evaluate_representative(dataset: Dataset, rep: Representative, *,
                            samples: int = DEFAULT_SAMPLES,
                            seed: Optional[int] = None,
                            mode: str = "auto",
                            wall_time_seconds: float = 0.0) -> EvaluationReport:
    """Attach a rank-regret measurement to a solver output."""
    k = rep.params.get("k", 0)
    regret, exact, used_samples = measure_rank_regret(
        dataset, rep.members, samples=samples, seed=seed, mode=mode)
    return EvaluationReport(
        algorithm=rep.algorithm, n=dataset.n, d=dataset.d, k=int(k),
        subset_size=rep.size, rank_regret=regret, exact=exact,
        samples=used_samples, wall_time_seconds=wall_time_seconds,
        seed=seed, params=dict(rep.params),
        dataset_fingerprint=dataset.fingerprint())


def run_benchmark(dataset: Dataset, algorithms: Sequence[str],
                  k_values: Sequence[int], seeds: Sequence[int], *,
                  samples: int = DEFAULT_SAMPLES,
                  c: int = DEFAULT_SAMPLER_C) -> List[EvaluationReport]:
    """One report per (algorithm, k, seed); wall time covers the solve only.

    An algorithm name outside ``ALGORITHMS`` raises ConfigError before any
    run.  Failures of a run become reports with the error recorded instead
    of raising, so a sweep over configurations always completes.
    """
    unknown = [name for name in algorithms if name not in ALGORITHMS]
    if unknown:
        raise ConfigError(f"unknown algorithms {unknown}; one of {ALGORITHMS}")
    reports: List[EvaluationReport] = []
    for name in algorithms:
        for k in k_values:
            for seed in seeds:
                start = time.perf_counter()
                try:
                    rep = run_algorithm(name, dataset, int(k), seed=int(seed),
                                        c=c)
                    elapsed = time.perf_counter() - start
                    reports.append(evaluate_representative(
                        dataset, rep, samples=samples, seed=int(seed),
                        wall_time_seconds=elapsed))
                except Exception as exc:  # recorded, not raised
                    elapsed = time.perf_counter() - start
                    reports.append(EvaluationReport(
                        algorithm=name, n=dataset.n, d=dataset.d, k=int(k),
                        subset_size=None, rank_regret=None, exact=False,
                        samples=None, wall_time_seconds=elapsed,
                        seed=int(seed), params={},
                        dataset_fingerprint=dataset.fingerprint(),
                        error=f"{type(exc).__name__}: {exc}"))
    return reports


def reports_to_jsonl(reports: Sequence[EvaluationReport]) -> str:
    return "\n".join(r.to_json() for r in reports) + "\n"


CSV_COLUMNS = ["algorithm", "n", "d", "k", "size", "rank_regret",
               "exact_flag", "seconds", "seed"]


def reports_to_csv(reports: Sequence[EvaluationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([
            r.algorithm, r.n, r.d, r.k,
            "" if r.subset_size is None else r.subset_size,
            "" if r.rank_regret is None else r.rank_regret,
            int(r.exact),
            f"{r.wall_time_seconds:.6f}",
            "" if r.seed is None else r.seed,
        ])
    return buf.getvalue()
