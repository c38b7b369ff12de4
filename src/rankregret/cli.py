"""Command-line interface: ingest delimited data, solve, enumerate, evaluate.

Subcommands: solve, ksets, eval, dual, bench.  Input is delimited text
with a header row; rows with missing or non-numeric values in the
selected columns are dropped (and counted).  Exit codes: 0 success,
2 input problems, 3 configuration problems, 4 any other failure.
"""

import argparse
import contextlib
import csv
import io
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
    MalformedDataFile,
    MalformedKSetFile,
    MalformedMembersFile,
    NoUsableRows,
    NonFiniteValue,
    RankRegretError,
    UncoverableSpace,
)
from .kset import collection_to_lines

log = logging.getLogger(__name__)

INPUT_ERRORS = (FileNotFoundError, NoUsableRows, ConstantAttribute, NonFiniteValue,
                MalformedDataFile, MalformedKSetFile, MalformedMembersFile)
CONFIG_ERRORS = (ConfigError, KOutOfRange, DimensionNot2D, DimensionMismatch,
                 EmptySubset)
NUMERIC_ERRORS = (LPNumericalFailure, UncoverableSpace, EmptyCollection)


#: characters that ``np.loadtxt`` reads unlike the ``csv`` loop: a quoted
#: delimiter in an unselected column would shift its fields, and it strips
#: the separators U+001C-U+001F around a number, which ``float`` refuses
_LOOP_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


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
    Directions default to higher-preferred.  One ``np.loadtxt`` call
    parses the selected columns of the body in C.  It refuses every row
    that the per-row ``csv`` loop drops (a whitespace-only line, a short
    row, an empty, quoted or non-numeric field) and CR-only line ends, and
    then the loop reads the body instead and counts the rows it drops.
    Both round every number correctly, so the values are the same either
    way.  A body with a character of ``_LOOP_ONLY`` goes to the loop
    directly.  A body the ``csv`` loop cannot parse raises
    MalformedDataFile naming the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first:
            raise NoUsableRows(f"{path} is empty")
        if delimiter is None:
            delimiter = "\t" if "\t" in first else ","
        header = [name.strip() for name in
                  next(csv.reader([first], delimiter=delimiter))]
        body = fh.read()

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

    raw = None
    # a body of line ends alone holds no row (and loadtxt would warn)
    if body.strip("\r\n") and not any(c in body for c in _LOOP_ONLY):
        try:
            # lines split at LF alone: a CR elsewhere than before one fails
            raw = np.loadtxt(body.split("\n"), delimiter=delimiter,
                             comments=None, usecols=indices, ndmin=2)
        except (TypeError, ValueError):  # TypeError: a line-end delimiter
            pass
    dropped = 0
    if raw is None:
        rows = []
        reader = csv.reader(io.StringIO(body, newline=""), delimiter=delimiter)
        try:
            for row in reader:
                if not row:
                    continue
                try:
                    rows.append([float(row[i]) for i in indices])
                except (ValueError, IndexError):
                    dropped += 1
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise MalformedDataFile(
                f"{path} line {reader.line_num + 1}: {exc}") from None
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


def _numbers(text: str, kind, flag: str) -> list:
    try:
        return [kind(part) for part in _split_list(text)]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, "
                          f"not {text!r}") from None


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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``rrr`` parser.  When ``command`` names a subcommand only its
    subparser is built (building all five costs about a millisecond per
    call); otherwise every one is, for the top-level help and errors."""
    data, run, threshold, sampler, samples, mode = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    data.add_argument("input", help="delimited text file with a header row")
    data.add_argument("--cols", help="comma-separated column names (default: all)")
    data.add_argument("--dirs", help="comma-separated directions higher|lower per column")
    data.add_argument("--delimiter", help="field delimiter (default: auto comma/tab)")
    run.add_argument("--seed", type=int, help="RNG seed (generated and printed if absent)")
    run.add_argument("-o", "--output", help="output path (default: stdout)")
    sampler.add_argument("--c", type=int, default=ev.DEFAULT_SAMPLER_C,
                         help="termination counter of the random k-set collector")
    samples.add_argument("--samples", type=int, default=ev.DEFAULT_SAMPLES,
                         help="functions sampled when estimating rank-regret (d > 2)")
    mode.add_argument("--eval", choices=["auto", "exact", "estimate"], default="auto",
                      help="rank-regret evaluation: exact in 2-D in every mode, at "
                           "any n; for d > 2 auto and estimate sample, exact fails")
    group = threshold.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="absolute rank threshold")
    group.add_argument("--k-pct", type=float,
                       help="rank threshold as a percentage of n (rounded up)")

    parser = argparse.ArgumentParser(
        prog="rrr",
        description="rank-regret representatives of multi-attribute data")
    if command in COMMANDS:
        wanted = (command,)
        # every command stays in the usage line of an error the top-level
        # parser reports, such as an unrecognized argument
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        wanted, metavar = tuple(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    if "solve" in wanted:
        p_solve = sub.add_parser("solve", help="compute a representative",
                                 parents=[data, run, threshold, sampler,
                                          samples, mode])
        p_solve.add_argument("--algo", required=True, choices=ev.ALGORITHMS)
        p_solve.add_argument("--source", choices=ev.KSET_SOURCES,
                             help="k-set source for mdrrr (default: the exact "
                                  "sweep if d=2, else the random collector)")
        p_solve.add_argument("--ksets-file",
                             help="mdrrr only: read the k-set collection from "
                                  "a file in the ksets line format")
    if "ksets" in wanted:
        p_ksets = sub.add_parser("ksets", parents=[data, run, threshold, sampler],
                                 help="enumerate k-sets")
        p_ksets.add_argument("--source", required=True, choices=ev.KSET_SOURCES)
    if "eval" in wanted:
        p_eval = sub.add_parser("eval", parents=[data, run, samples, mode],
                                help="rank-regret of a given subset")
        group = p_eval.add_mutually_exclusive_group(required=True)
        group.add_argument("--members", help="comma-separated tuple ids")
        group.add_argument("--members-file",
                           help="JSON produced by solve (member_ids field)")
    if "dual" in wanted:
        p_dual = sub.add_parser("dual", parents=[data, run, sampler],
                                help="smallest k fitting a size budget")
        p_dual.add_argument("--size-budget", type=int, required=True)
        p_dual.add_argument("--algo", default="mdrc", choices=ev.ALGORITHMS)
    if "bench" in wanted:
        p_bench = sub.add_parser("bench", parents=[data, sampler, samples],
                                 help="run a benchmark grid")
        p_bench.add_argument("--algos", default=",".join(ev.ALGORITHMS),
                             help="comma-separated algorithm names")
        p_bench.add_argument("--ks", help="comma-separated absolute k values")
        p_bench.add_argument("--k-pcts", help="comma-separated percentage k values")
        p_bench.add_argument("--seeds", default="0",
                             help="comma-separated seeds (one run per seed)")
        p_bench.add_argument("--jsonl", help="write JSON-lines report here")
        p_bench.add_argument("--csv", help="write CSV summary here")
    return parser


def _cmd_solve(args, ing: IngestResult) -> dict:
    dataset = ing.dataset
    k = ev.resolve_k(dataset.n, args.k, args.k_pct)
    seed = _resolve_seed(args)
    if args.ksets_file and args.algo != "mdrrr":
        raise ConfigError("--ksets-file applies to --algo mdrrr only")
    start = time.perf_counter()
    rep = ev.run_algorithm(args.algo, dataset, k, seed=seed, c=args.c,
                           kset_source=args.source, ksets_file=args.ksets_file)
    elapsed = time.perf_counter() - start
    report = ev.evaluate_representative(dataset, rep, samples=args.samples,
                                        seed=seed, mode=args.eval,
                                        wall_time_seconds=elapsed)
    member_ids = rep.sorted_members()
    return {
        "algorithm": rep.algorithm,
        "params": rep.params,
        "seed": seed,
        "bound_guaranteed": rep.bound_guaranteed,
        "member_ids": member_ids,
        "member_rows": [ing.raw_values[t].tolist() for t in member_ids],
        "columns": ing.columns,
        "evaluation": asdict(report),
    }


def _cmd_ksets(args, ing: IngestResult) -> None:
    k = ev.resolve_k(ing.dataset.n, args.k, args.k_pct)
    seed = secrets.randbits(32) if args.seed is None else args.seed
    _, collection = ev.collect_ksets(ing.dataset, k, args.source, c=args.c,
                                     seed=seed)
    if args.seed is None and collection.draws is not None:
        log.info("seed: %d", seed)  # only a drawn collection used it
    _write("\n".join(collection_to_lines(collection)) + "\n", args.output)
    params = ev.collection_params(collection)
    size, complete = params.pop("collection_size"), params.pop("complete")
    counts = "".join(f", {key}={value}" for key, value in params.items()
                     if value is not None)
    log.info("%d k-sets (complete=%s%s)", size, complete, counts)


def _cmd_eval(args, ing: IngestResult) -> dict:
    if args.members is not None:
        members = _numbers(args.members, int, "--members")
    else:
        with open(args.members_file, "r", encoding="utf-8") as fh:
            try:
                members = [int(t) for t in json.load(fh)["member_ids"]]
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedMembersFile(
                    f"{args.members_file} has no integer member_ids list "
                    f"({type(exc).__name__}: {exc})") from None
    seed = _resolve_seed(args)
    regret, exact, samples = ev.measure_rank_regret(
        ing.dataset, members, samples=args.samples, seed=seed, mode=args.eval)
    return {"member_ids": sorted(members),
            "rank_regret": regret, "exact": exact,
            "samples": samples, "seed": seed,
            "n": ing.dataset.n, "d": ing.dataset.d}


def _cmd_dual(args, ing: IngestResult) -> dict:
    seed = _resolve_seed(args)
    k, rep = ev.dual_problem(ing.dataset, args.size_budget, solver=args.algo,
                             seed=seed, c=args.c)
    return {"k": k, "size_budget": args.size_budget,
            "algorithm": rep.algorithm, "seed": seed,
            "member_ids": rep.sorted_members(), "params": rep.params}


def _cmd_bench(args, ing: IngestResult) -> None:
    dataset = ing.dataset
    if args.ks:
        k_values = _numbers(args.ks, int, "--ks")
    elif args.k_pcts:
        k_values = [ev.resolve_k(dataset.n, k_pct=p)
                    for p in _numbers(args.k_pcts, float, "--k-pcts")]
    else:
        k_values = [ev.resolve_k(dataset.n, k_pct=1.0)]
    seeds = _numbers(args.seeds, int, "--seeds")
    algorithms = _split_list(args.algos)
    reports = ev.run_benchmark(dataset, algorithms, k_values, seeds,
                               samples=args.samples, c=args.c)
    jsonl = ev.reports_to_jsonl(reports)
    if args.jsonl:
        _write(jsonl, args.jsonl)
    if args.csv:
        _write(ev.reports_to_csv(reports), args.csv)
    if not args.jsonl and not args.csv:
        sys.stdout.write(jsonl)


COMMANDS = {
    "solve": _cmd_solve,
    "ksets": _cmd_ksets,
    "eval": _cmd_eval,
    "dual": _cmd_dual,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    with _diagnostics_to_stderr():
        try:
            ing = ingest(args.input, _split_list(args.cols),
                         _split_list(args.dirs), args.delimiter)
            payload = COMMANDS[args.command](args, ing)
            if payload is not None:
                _write(json.dumps(payload, indent=2) + "\n", args.output)
            return 0
        except INPUT_ERRORS as exc:
            _emit_error(exc, 2)
            return 2
        except NUMERIC_ERRORS as exc:
            _emit_error(exc, 4)
            return 4
        except CONFIG_ERRORS as exc:
            _emit_error(exc, 3)
            return 3
        except (RankRegretError, ValueError) as exc:
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
