"""Benchmark of the rankregret solvers: time to a representative and its quality.

Run from the repository root:

    python3 perfbench/run.py --workload plane-exact --seed 1 --seconds 28 --trace 0

One client sends requests in a closed loop in this single process; each
request produces a representative and measures its rank-regret, cycling
over a pool of inputs generated from ``--seed``.  Every request passes the
correctness gate outside its timed region.  After each request, also
outside it, a fixed reference loop (``reference.py``) runs once; the
median request time over the loop's median time is ``request_ref``, the
bounded time metric, in which the drift of a shared host's speed mostly
cancels.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` each request runs once untraced and once under
the per-layer tracer, and the last line holds the per-layer metrics.
Before it come one JSON line with the environment, the input
fingerprints, every request and reference time and the failed checks,
and one readable line per metric.  A traced run also writes its spans to
.perfbench_work/.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: BLAS/OpenMP pools are pinned to one thread before numpy loads, so the
#: numbers measure the program rather than the thread scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: end-to-end metrics (printed with --trace 0) and their units
END_TO_END = {"request_ref": "ratio", "guaranteed_ratio": "ratio", "setup_s": "s"}

#: metrics printed by every run but listed with the per-layer metrics,
#: without a bound: the times in seconds follow the host's speed, which
#: on a shared host drifts by up to half between runs minutes apart;
#: output quality depends on the input alone; and peak RSS follows
#: glibc's heap layout, so over ten seeds a few runs of space-mdrc and
#: space-ksets peak 25 % above the rest
UNBOUNDED = {"request_s": "s", "ref_s": "s", "solve_s": "s", "eval_s": "s",
             "tuples_per_s": "1/s", "rep_size": "count",
             "regret_over_k": "ratio", "peak_rss_mb": "MB"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

#: a request running longer than this fails as over budget
REQUEST_BUDGET_S = 60
#: no request starts after this much wall time (the run must end by 180 s)
RUN_LIMIT_S = 100
#: set-up (pool generation and a warm-up request) runs this many times;
#: setup_s takes the median
SETUP_REPEATS = 3


class BudgetExceeded(Exception):
    """A request ran past REQUEST_BUDGET_S."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def load_program() -> float:
    """Import numpy and rankregret from this checkout's src/; seconds taken."""
    if not (SRC / "rankregret" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rankregret package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import rankregret
    import workloads  # noqa: F401  (imports every rankregret module)
    elapsed = time.perf_counter() - start
    if Path(rankregret.__file__).resolve().parent != SRC / "rankregret":
        raise SystemExit(f"perfbench: imported rankregret from {rankregret.__file__}")
    return elapsed


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": openblas_threads(),
    }


@dataclass
class Record:
    """One request: pool index, timed seconds, outcome and failed checks."""

    index: int
    seconds: float
    outcome: object
    failed: list
    traced: bool
    rid: object


def run_request(workload, pool, index, workdir, tracer=None, rid=None):
    """One timed request and its gate; failures become check names.

    A full collection first, outside the timed region, so no request pays
    for garbage an earlier one left behind.
    """
    inp = pool[index]
    outcome = None
    failed = []
    root = None
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, REQUEST_BUDGET_S)
    try:
        if tracer is not None:
            tracer.install()
            root = tracer.begin_request(rid)
        start = time.perf_counter()
        try:
            outcome = workload.request(inp, workdir)
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.end_request(root)
                tracer.uninstall()
    except BudgetExceeded:
        failed = ["over_budget"]
    except Exception as exc:  # a request that raises counts as failed
        traceback.print_exc()
        failed = [f"raised:{type(exc).__name__}"]
    if outcome is not None:
        try:
            failed = workload.check(inp, outcome)
        except Exception as exc:  # a gate that cannot run fails the request
            traceback.print_exc()
            failed = [f"check_raised:{type(exc).__name__}"]
        for out in outcome.outputs:
            out.extra = {}  # the gate is done with collections and the like
    return Record(index, seconds, outcome, failed, tracer is not None, rid)


def request_metrics(records, pool, reference):
    """Timings and output quality of the untraced requests that passed.

    Quality is taken once per pool input, so it repeats exactly for a seed.
    """
    import workloads
    ok = [r for r in records if not r.failed and not r.traced]
    first = {}
    for r in ok:
        first.setdefault(r.index, r.outcome)
    sizes, regrets, guaranteed = zip(*(workloads.quality(first[i])
                                       for i in sorted(first)))
    request_s = statistics.median(r.seconds for r in ok)
    ref_s = statistics.median(reference.seconds)
    return {
        "request_ref": request_s / ref_s,
        "request_s": request_s,
        "ref_s": ref_s,
        "solve_s": statistics.median(r.outcome.solve_s for r in ok),
        "eval_s": statistics.median(r.outcome.eval_s for r in ok),
        "tuples_per_s": (sum(pool[r.index].tuples for r in ok)
                         / sum(r.seconds for r in ok)),
        "rep_size": statistics.fmean(sizes),
        "regret_over_k": statistics.fmean(regrets),
        "guaranteed_ratio": statistics.fmean(guaranteed),
    }


def end_to_end(measured, setup_s):
    values = dict(measured, setup_s=setup_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def unbounded(measured):
    return {name: {"value": measured[name], "unit": unit}
            for name, unit in UNBOUNDED.items()}


def per_layer(records, tracer):
    import tracing
    traced = [r for r in records if r.traced and not r.failed]
    plain = [r for r in records if not r.traced and not r.failed]
    profiles = tracer.profiles()
    first = {}
    for r in traced:
        first.setdefault(r.index, r.rid)
    counted = [tracer.counters[rid] for rid in first.values()]
    out = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name in tracing.RATIOS:
            num, den = tracing.RATIOS[name]
            total = sum(c.get(den, 0) for c in counted)
            value = sum(c.get(num, 0) for c in counted) / total if total else 0.0
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            value = statistics.median(profiles[r.rid][0].get(span, 0.0)
                                      for r in traced)
        elif name == "trace.coverage":
            value = (sum(profiles[r.rid][1] for r in traced)
                     / sum(profiles[r.rid][2] for r in traced))
        elif name == "trace.overhead":
            value = (statistics.median(r.seconds for r in traced)
                     / statistics.median(r.seconds for r in plain))
        else:
            value = statistics.fmean(c.get(name, 0) for c in counted)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = load_program()
    import reference
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    signal.signal(signal.SIGALRM, _on_alarm)
    WORKDIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        generate, warms = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = workload.make_pool(args.seed, workdir)
            generate.append(time.perf_counter() - t0)
            warms.append(run_request(workload, pool, 0, workdir))
        setup_s = import_s + statistics.median(
            g + w.seconds for g, w in zip(generate, warms))

        # requests, gate and reference passes included, run for --seconds
        # of wall time and at least until every pool input has run once
        gauge = reference.Reference()
        records = []
        loop_start = time.perf_counter()
        i = 0
        while time.perf_counter() - started < RUN_LIMIT_S:
            if i >= len(pool) and time.perf_counter() - loop_start >= args.seconds:
                break
            index = i % len(pool)
            records.append(run_request(workload, pool, index, workdir))
            if tracer is not None:
                records.append(run_request(workload, pool, index, workdir,
                                           tracer=tracer, rid=i))
            gauge.run()
            i += 1
        loop_s = time.perf_counter() - loop_start

    failed = [r for r in records if r.failed]
    failed_checks = {}
    for r in warms + failed:
        for name in r.failed:
            failed_checks[name] = failed_checks.get(name, 0) + 1
    if any(all(r.failed for r in records if r.traced == traced)
           for traced in ({False, True} if tracer else {False})):
        print(json.dumps({"failed_checks": failed_checks}), file=sys.stderr)
        raise SystemExit("perfbench: every request failed; no metrics")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "inputs": [{"name": inp.name, "fingerprints": inp.fingerprints}
                   for inp in pool],
        "requests": len(records),
        "request_seconds": [r.seconds for r in records],
        "reference_seconds": gauge.seconds,
        "loop_s": loop_s,
        "setup": {"import_s": import_s, "generate_s": generate,
                  "warmup_request_s": [w.seconds for w in warms]},
        "failed_ratio": len(failed) / len(records),
        "failed_checks": failed_checks,
    }
    measured = request_metrics(records, pool, gauge)
    measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["request_metrics"] = measured
    if tracer is None:
        metrics = end_to_end(measured, setup_s)
        extra = unbounded(measured)
    else:
        metrics = {**per_layer(records, tracer), **unbounded(measured)}
        extra = {}
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path, info)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(info, sort_keys=True))
    print(f"{args.workload}: {len(records)} requests, {len(failed)} failed")
    for name, metric in {**metrics, **extra}.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed and not any(w.failed for w in warms),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
