"""Command-line interface: ingest delimited data, solve, enumerate, evaluate.

Subcommands: solve, ksets, eval, dual, bench.  Input is delimited text
with a header row; rows with missing or non-numeric values in the
selected columns are dropped (and counted).  Exit codes: 0 success,
2 input problems, 3 configuration problems, 4 numerical failures.
"""

import argparse
import contextlib
import csv
import json
import logging
import secrets
import sys
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import evaluate as ev
from .core import Dataset, normalize
from .errors import (
    ConfigError,
    ConstantAttribute,
    DimensionMismatch,
    DimensionNot2D,
    EmptyCollection,
    EmptySubset,
    KOutOfRange,
    LPNumericalFailure,
    NoUsableRows,
    NonFiniteValue,
    RankRegretError,
    UncoverableSpace,
)
from .kset import collection_to_lines, save_collection

log = logging.getLogger(__name__)

INPUT_ERRORS = (FileNotFoundError, NoUsableRows, ConstantAttribute, NonFiniteValue)
CONFIG_ERRORS = (ConfigError, KOutOfRange, DimensionNot2D, DimensionMismatch,
                 EmptySubset, ValueError)
NUMERIC_ERRORS = (LPNumericalFailure, UncoverableSpace, EmptyCollection)


@dataclass
class IngestResult:
    dataset: Dataset
    raw_values: np.ndarray
    columns: List[str]
    dropped_rows: int


def ingest(path: str, cols: Optional[Sequence[str]] = None,
           dirs: Optional[Sequence[str]] = None,
           delimiter: Optional[str] = None) -> IngestResult:
    """Read a delimited file with header, select columns, normalize.

    The delimiter is auto-detected between tab and comma unless given.
    Directions default to higher-preferred.
    """
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
    if len(dirs) != len(names):
        raise ConfigError(f"{len(dirs)} directions for {len(names)} columns")

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


def _split_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    log.info("seed: %d", seed)
    return seed


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _data_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("input", help="delimited text file with a header row")
    p.add_argument("--cols", help="comma-separated column names (default: all)")
    p.add_argument("--dirs", help="comma-separated directions higher|lower per column")
    p.add_argument("--delimiter", help="field delimiter (default: auto comma/tab)")
    p.add_argument("--seed", type=int, help="RNG seed (generated and printed if absent)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    return p


def _k_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="absolute rank threshold")
    group.add_argument("--k-pct", type=float,
                       help="rank threshold as a percentage of n (rounded up)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrr",
        description="rank-regret representatives of multi-attribute data")
    sub = parser.add_subparsers(dest="command", required=True)
    data = _data_parser()

    p_solve = sub.add_parser("solve", parents=[data],
                             help="compute a representative")
    p_solve.add_argument("--algo", required=True,
                         choices=["2drrr", "mdrrr", "mdrc"])
    _k_arguments(p_solve)
    p_solve.add_argument("--source", choices=["sweep2d", "graph", "random"],
                         help="k-set source for mdrrr (default: sweep2d if d=2 else random)")
    p_solve.add_argument("--ksets-file",
                         help="mdrrr only: read the k-set collection from a "
                              "file in the ksets line format")
    p_solve.add_argument("--c", type=int, default=ev.DEFAULT_SAMPLER_C,
                         help="termination counter of the random k-set collector")
    p_solve.add_argument("--depth-cap", type=int, help="mdrc recursion cap")
    p_solve.add_argument("--samples", type=int, default=ev.DEFAULT_SAMPLES,
                         help="functions sampled when estimating rank-regret")
    p_solve.add_argument("--eval", choices=["auto", "exact", "estimate"],
                         default="auto", help="rank-regret evaluation mode")

    p_ksets = sub.add_parser("ksets", parents=[data], help="enumerate k-sets")
    p_ksets.add_argument("--source", required=True,
                         choices=["sweep2d", "graph", "random"])
    _k_arguments(p_ksets)
    p_ksets.add_argument("--c", type=int, default=ev.DEFAULT_SAMPLER_C)

    p_eval = sub.add_parser("eval", parents=[data],
                            help="rank-regret of a given subset")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--members", help="comma-separated tuple ids")
    group.add_argument("--members-file",
                       help="JSON produced by solve (member_ids field)")
    p_eval.add_argument("--samples", type=int, default=ev.DEFAULT_SAMPLES)
    p_eval.add_argument("--eval", choices=["auto", "exact", "estimate"],
                        default="auto")

    p_dual = sub.add_parser("dual", parents=[data],
                            help="smallest k fitting a size budget")
    p_dual.add_argument("--size-budget", type=int, required=True)
    p_dual.add_argument("--algo", default="mdrc",
                        choices=["2drrr", "mdrrr", "mdrc"])
    p_dual.add_argument("--c", type=int, default=ev.DEFAULT_SAMPLER_C)
    p_dual.add_argument("--depth-cap", type=int)
    p_dual.add_argument("--samples", type=int, default=ev.DEFAULT_SAMPLES)

    p_bench = sub.add_parser("bench", parents=[data],
                             help="run a benchmark grid")
    p_bench.add_argument("--algos", default="2drrr,mdrrr,mdrc",
                         help="comma-separated algorithm names")
    p_bench.add_argument("--ks", help="comma-separated absolute k values")
    p_bench.add_argument("--k-pcts", help="comma-separated percentage k values")
    p_bench.add_argument("--seeds", default="0",
                         help="comma-separated seeds (one run per seed)")
    p_bench.add_argument("--samples", type=int, default=ev.DEFAULT_SAMPLES)
    p_bench.add_argument("--c", type=int, default=ev.DEFAULT_SAMPLER_C)
    p_bench.add_argument("--depth-cap", type=int)
    p_bench.add_argument("--jsonl", help="write JSON-lines report here")
    p_bench.add_argument("--csv", help="write CSV summary here")
    return parser


def _cmd_solve(args) -> int:
    ing = ingest(args.input, _split_list(args.cols), _split_list(args.dirs),
                 args.delimiter)
    dataset = ing.dataset
    k = ev.resolve_k(dataset.n, args.k, args.k_pct)
    if args.algo == "2drrr" and dataset.d != 2:
        raise ConfigError("2drrr requires exactly two attributes")
    seed = _resolve_seed(args)
    start = time.perf_counter()
    if args.ksets_file:
        if args.algo != "mdrrr":
            raise ConfigError("--ksets-file applies to --algo mdrrr only")
        rep = _solve_from_kset_file(dataset, args.ksets_file, k, seed)
    else:
        rep = ev.run_algorithm(args.algo, dataset, k, seed=seed, c=args.c,
                               depth_cap=args.depth_cap,
                               kset_source=args.source)
    elapsed = time.perf_counter() - start
    report = ev.evaluate_representative(dataset, rep, samples=args.samples,
                                        seed=seed, mode=args.eval,
                                        wall_time_seconds=elapsed)
    member_ids = rep.sorted_members()
    payload = {
        "algorithm": rep.algorithm,
        "params": rep.params,
        "seed": seed,
        "bound_guaranteed": rep.bound_guaranteed,
        "member_ids": member_ids,
        "member_rows": [ing.raw_values[t].tolist() for t in member_ids],
        "columns": ing.columns,
        "evaluation": asdict(report),
    }
    _write(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _solve_from_kset_file(dataset, path, k, seed):
    from .core import Representative
    from .hitting import mdrrr
    from .kset import load_collection

    collection = load_collection(path, d=dataset.d)
    if collection.k != k:
        raise ConfigError(f"k-set file has k={collection.k}, requested k={k}")
    _, net_rng = ev.mdrrr_rngs(seed)
    members = mdrrr(collection, rng=net_rng)
    return Representative(
        members=members, algorithm="mdrrr",
        params={"k": k, "kset_source": "file",
                **ev.collection_params(collection)},
        seed=seed)


def _cmd_ksets(args) -> int:
    ing = ingest(args.input, _split_list(args.cols), _split_list(args.dirs),
                 args.delimiter)
    dataset = ing.dataset
    k = ev.resolve_k(dataset.n, args.k, args.k_pct)
    seed = _resolve_seed(args) if args.source == "random" else None
    collector_rng, _ = ev.mdrrr_rngs(seed)
    collection = ev.collect_ksets(dataset, k, args.source, c=args.c,
                                  rng=collector_rng)
    if args.output:
        save_collection(collection, args.output)
    else:
        sys.stdout.write("\n".join(collection_to_lines(collection)) + "\n")
    params = ev.collection_params(collection)
    size, complete = params.pop("collection_size"), params.pop("complete")
    counts = "".join(f", {key}={value}" for key, value in params.items()
                     if value is not None)
    log.info("%d k-sets (complete=%s%s)", size, complete, counts)
    return 0


def _cmd_eval(args) -> int:
    ing = ingest(args.input, _split_list(args.cols), _split_list(args.dirs),
                 args.delimiter)
    dataset = ing.dataset
    if args.members:
        members = [int(t) for t in _split_list(args.members)]
    else:
        with open(args.members_file, "r", encoding="utf-8") as fh:
            members = json.load(fh)["member_ids"]
    seed = _resolve_seed(args)
    regret, exact, samples = ev.measure_rank_regret(
        dataset, members, samples=args.samples, seed=seed, mode=args.eval)
    payload = {"member_ids": sorted(int(t) for t in members),
               "rank_regret": regret, "exact": exact,
               "samples": samples, "seed": seed, "n": dataset.n, "d": dataset.d}
    _write(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_dual(args) -> int:
    ing = ingest(args.input, _split_list(args.cols), _split_list(args.dirs),
                 args.delimiter)
    dataset = ing.dataset
    if args.algo == "2drrr" and dataset.d != 2:
        raise ConfigError("2drrr requires exactly two attributes")
    seed = _resolve_seed(args)
    k, rep = ev.dual_problem(dataset, args.size_budget, solver=args.algo,
                             seed=seed, c=args.c, depth_cap=args.depth_cap)
    payload = {"k": k, "size_budget": args.size_budget,
               "algorithm": rep.algorithm, "seed": seed,
               "member_ids": rep.sorted_members(), "params": rep.params}
    _write(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_bench(args) -> int:
    ing = ingest(args.input, _split_list(args.cols), _split_list(args.dirs),
                 args.delimiter)
    dataset = ing.dataset
    if args.ks:
        k_values = [int(k) for k in _split_list(args.ks)]
    elif args.k_pcts:
        k_values = [ev.resolve_k(dataset.n, k_pct=float(p))
                    for p in _split_list(args.k_pcts)]
    else:
        k_values = [ev.resolve_k(dataset.n, k_pct=1.0)]
    seeds = [int(s) for s in _split_list(args.seeds)]
    algorithms = _split_list(args.algos)
    reports = ev.run_benchmark(dataset, algorithms, k_values, seeds,
                               samples=args.samples, c=args.c,
                               depth_cap=args.depth_cap)
    jsonl = ev.reports_to_jsonl(reports)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(jsonl)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(ev.reports_to_csv(reports))
    if not args.jsonl and not args.csv:
        sys.stdout.write(jsonl)
    return 0


COMMANDS = {
    "solve": _cmd_solve,
    "ksets": _cmd_ksets,
    "eval": _cmd_eval,
    "dual": _cmd_dual,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with _diagnostics_to_stderr():
        try:
            return COMMANDS[args.command](args)
        except INPUT_ERRORS as exc:
            _emit_error(exc, 2)
            return 2
        except NUMERIC_ERRORS as exc:
            _emit_error(exc, 4)
            return 4
        except CONFIG_ERRORS as exc:
            _emit_error(exc, 3)
            return 3
        except RankRegretError as exc:
            _emit_error(exc, 4)
            return 4


@contextlib.contextmanager
def _diagnostics_to_stderr():
    """While a command runs, the package's log records from INFO up go to
    stderr as plain message lines."""
    package = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = package.level
    package.addHandler(handler)
    package.setLevel(logging.INFO)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


def _emit_error(exc: Exception, code: int) -> None:
    sys.stdout.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
