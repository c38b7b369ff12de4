"""Evaluation harness: rank-regret measurement, the dual problem, benchmarks.

Rank-regret of a subset is estimated by drawing ranking functions
uniformly from the first-orthant sphere and taking the worst best-rank of
any member; the estimate never exceeds the true maximum.  In 2-D (and at
moderate size) the members' rank trajectories give the exact value
instead.
"""

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Dataset, RankRegretKernel, Representative, score_slack
from .errors import EmptySubset, KOutOfRange
from .hitting import mdrrr
from .kset import (
    KSetCollection,
    collect_ksets_random,
    enumerate_ksets_graph,
    sample_functions,
)
from .mdrc import mdrc
from .sweep2d import enumerate_ksets_2d, exact_rank_regret_2d, rrr_2d

DEFAULT_SAMPLES = 10_000
DEFAULT_SAMPLER_C = 100

#: exact 2-D evaluation is used automatically up to this many tuples
EXACT_2D_LIMIT = 2000


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

    The maximum over a sample never exceeds the true maximum, so this is a
    lower bound that sharpens with the sample count.  The functions come
    from ``sample_functions`` in chunks of up to 1024, and each chunk's
    matrix product with all n rows fixes the rounding of every score.
    ``core.RankRegretKernel`` drops the rows that a member beats by more
    than NUMERIC_TOL on every attribute (such a row scores strictly below
    that member under every function) and bounds each function's rank in
    one comparison pass over the product with the remaining rows.  That
    product rounds differently in the last bits, so where another row
    scores within a few ulps of the best member the full product decides
    the ties.  The estimate is the same as scoring all n rows.
    """
    members = np.array(sorted({int(t) for t in subset}))
    if members.size == 0:
        raise EmptySubset("subset must contain at least one tuple id")
    if members.min() < 0 or members.max() >= dataset.n:
        raise ValueError("subset contains unknown tuple ids")
    if samples < 1:
        raise ValueError("samples must be positive")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    values, d = dataset.values, dataset.d
    kernel = RankRegretKernel(values, members, slack=score_slack(d))
    kept_t = kernel.kept.T
    chunk = max(1, min(1024, (1 << 22) // dataset.n))
    for lo in range(0, samples, chunk):
        weights = sample_functions(rng, d, min(chunk, samples - lo))
        full = functools.cache(lambda w=weights: w @ values.T)
        for start in range(0, len(weights), kernel.block):
            block = slice(start, start + kernel.block)
            kernel.add(weights[block] @ kept_t, lambda f=full, b=block: f()[b])
    return kernel.worst


def resolve_k(n: int, k: Optional[int] = None, k_pct: Optional[float] = None) -> int:
    """Turn an absolute k or a percentage into an integer rank.

    Percentages round up, so "top 1%" always admits at least the stated
    fraction of ranks.
    """
    if (k is None) == (k_pct is None):
        raise ValueError("exactly one of k and k_pct must be given")
    if k_pct is not None:
        k = math.ceil(k_pct / 100.0 * n)
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} not in [1, {n}]")
    return int(k)


def mdrrr_rngs(seed: Optional[int]) -> Tuple[np.random.Generator,
                                              np.random.Generator]:
    """The (k-set collector, hitting-set net) generators of an mdrrr run.

    Both are children of ``SeedSequence(seed)``, so a collection made with
    the first and solved with the second, possibly in separate runs, gives
    the same members as one run with the same seed.
    """
    ss = np.random.SeedSequence(seed if seed is not None else 0)
    collector, net = (np.random.Generator(np.random.PCG64(s))
                      for s in ss.spawn(2))
    return collector, net


def collect_ksets(dataset: Dataset, k: int, source: str, *,
                  c: int = DEFAULT_SAMPLER_C,
                  rng: np.random.Generator) -> KSetCollection:
    """The k-set collection of ``source``: the exact 2-D sweep ("sweep2d"),
    the LP k-set graph ("graph") or the randomized collector ("random",
    drawing from ``rng`` until ``c`` draws in a row find no new set)."""
    if source == "sweep2d":
        return enumerate_ksets_2d(dataset, k)
    if source == "graph":
        return enumerate_ksets_graph(dataset, k)
    if source == "random":
        return collect_ksets_random(dataset, k, c, rng)
    raise ValueError(f"unknown kset source {source!r}")


def run_algorithm(name: str, dataset: Dataset, k: int, *,
                  seed: Optional[int] = None,
                  c: int = DEFAULT_SAMPLER_C,
                  depth_cap: Optional[int] = None,
                  kset_source: Optional[str] = None) -> Representative:
    """Dispatch a solver by name.

    The mdrrr pipeline takes its k-set collection from the exact 2-D sweep
    when d = 2 and from the randomized collector otherwise, unless a
    source ("sweep2d", "graph", "random") is forced.
    """
    if name == "2drrr":
        rep = rrr_2d(dataset, k)
        return replace(rep, seed=seed)
    if name == "mdrc":
        rep = mdrc(dataset, k, depth_cap=depth_cap)
        return replace(rep, seed=seed)
    if name == "mdrrr":
        source = kset_source or ("sweep2d" if dataset.d == 2 else "random")
        collector_rng, net_rng = mdrrr_rngs(seed)
        collection = collect_ksets(dataset, k, source, c=c, rng=collector_rng)
        members = mdrrr(collection, rng=net_rng)
        return Representative(
            members=members, algorithm="mdrrr",
            params={"k": k, "kset_source": source, "c": c,
                    **collection_params(collection)},
            seed=seed)
    raise ValueError(f"unknown algorithm {name!r}")


def collection_params(collection: KSetCollection) -> dict:
    """What an mdrrr run reports about its k-set collection: its size,
    whether it is complete, and the collector's draws, the graph's LPs
    and dominance-filtered candidates or whether the 2-D enumeration fell
    back to the exchange sweep (None where they do not apply)."""
    return {"collection_size": len(collection),
            "complete": collection.complete,
            "draws": collection.draws,
            "lps": collection.lps,
            "filtered": collection.filtered,
            "swept": collection.swept}


def dual_problem(dataset: Dataset, size_budget: int, solver: str = "mdrc",
                 **solver_params):
    """Smallest k whose representative fits the size budget, by binary search.

    Returns (k, representative).  Every solver returns a single tuple at
    k = n, so a feasible k always exists for budgets >= 1.
    """
    if not 1 <= size_budget <= dataset.n:
        raise ValueError(f"size budget {size_budget} not in [1, {dataset.n}]")
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

    ``mode`` "auto" is exact for d = 2 up to EXACT_2D_LIMIT tuples and a
    sampled estimate otherwise; the estimate's functions are derived from
    ``seed``, so equal seeds measure equal members identically.
    """
    exact = mode == "exact" or (
        mode == "auto" and dataset.d == 2 and dataset.n <= EXACT_2D_LIMIT)
    if exact:
        return int(exact_rank_regret_2d(dataset, members)), True, None
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([0xE7A1, seed if seed is not None else 0])))
    return int(estimate_rank_regret(dataset, members, samples, rng)), False, samples


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
                  c: int = DEFAULT_SAMPLER_C,
                  depth_cap: Optional[int] = None,
                  eval_mode: str = "auto") -> List[EvaluationReport]:
    """One report per (algorithm, k, seed); wall time covers the solve only.

    Failures become reports with the error recorded instead of raising, so
    a sweep over configurations always completes.
    """
    reports: List[EvaluationReport] = []
    for name in algorithms:
        for k in k_values:
            for seed in seeds:
                start = time.perf_counter()
                try:
                    rep = run_algorithm(name, dataset, int(k), seed=int(seed),
                                        c=c, depth_cap=depth_cap)
                    elapsed = time.perf_counter() - start
                    reports.append(evaluate_representative(
                        dataset, rep, samples=samples, seed=int(seed),
                        mode=eval_mode, wall_time_seconds=elapsed))
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
