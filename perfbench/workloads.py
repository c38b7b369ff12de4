"""The benchmark workloads: input pools, one request each, and the gate.

A request does what ``rrr solve`` does: it produces a representative and
then measures its rank-regret.  ``request`` is the timed region; ``check``
is the correctness gate and runs outside it.  Program functions are looked
up on their modules at call time, so a traced run sees its wrappers.
"""

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import gen

core = importlib.import_module("rankregret.core")
sweep2d = importlib.import_module("rankregret.sweep2d")
kset = importlib.import_module("rankregret.kset")
hitting = importlib.import_module("rankregret.hitting")
evaluate = importlib.import_module("rankregret.evaluate")
cli = importlib.import_module("rankregret.cli")

#: functions the independent check samples per output
ORACLE_FUNCTIONS = 256

#: rank-regret estimates use this many sampled functions
SAMPLES = 10_000


@dataclass
class Input:
    """One pool entry: the generated arrays, as the program receives them."""

    name: str
    seed: int
    tuples: int
    datasets: Dict[str, object]
    fingerprints: Dict[str, str]
    files: Dict[str, str] = field(default_factory=dict)


@dataclass
class Output:
    """One representative of a request with its measured quality."""

    part: str
    n: int
    k: int
    members: List[int]
    regret: int
    guaranteed: bool
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    solve_s: float
    eval_s: float
    outputs: List[Output]


def derive(seed: int, *words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def request_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index, 7]).generate_state(1)[0])


def fingerprint(values: np.ndarray) -> str:
    return core.Dataset(values).fingerprint()


def oracle_regret(values: np.ndarray, members, rng: np.random.Generator,
                  count: int = ORACLE_FUNCTIONS) -> int:
    """Worst best-member rank over ``count`` sampled functions.

    Written here with numpy alone, so the gate does not trust the
    program's evaluator.  Ranking is by descending score, ties by id.
    """
    members = np.asarray(sorted(members), dtype=np.int64)
    n, d = values.shape
    ids = np.arange(n)
    weights = np.abs(rng.standard_normal((count, d)))
    worst = 0
    for block in np.array_split(weights, max(1, count * n // 2_000_000)):
        scores = block @ values.T
        member_scores = scores[:, members]
        col = np.argmax(member_scores, axis=1)
        best = member_scores[np.arange(len(block)), col][:, None]
        rank = (1 + (scores > best).sum(axis=1)
                + ((scores == best) & (ids < members[col][:, None])).sum(axis=1))
        worst = max(worst, int(rank.max()))
    return worst


def ids_valid(members, n: int) -> bool:
    return len(members) > 0 and all(
        isinstance(t, (int, np.integer)) and 0 <= t < n for t in members)


def hits_all(members, collection) -> bool:
    chosen = set(int(t) for t in members)
    return all(chosen & s.members for s in collection.sets)


class Workload:
    """Base: a pool of inputs and a request over one of them."""

    name = ""
    why = ""
    pool_size = 3

    def make_pool(self, seed: int, workdir: str) -> List[Input]:
        return [self.make_input(seed, i, workdir) for i in range(self.pool_size)]

    def make_input(self, seed: int, index: int, workdir: str) -> Input:
        raise NotImplementedError

    def request(self, inp: Input, workdir: str) -> Outcome:
        raise NotImplementedError

    def check(self, inp: Input, outcome: Outcome) -> List[str]:
        """Names of the checks the outcome fails (empty when correct)."""
        raise NotImplementedError


class PlaneExact(Workload):
    name = "plane-exact"
    why = ("d=2 uniform n=250 k=10: mdrrr over the exact 2-D k-set sweep "
           "and exact evaluation; the O(n^2) ExchangeSweep does the work")
    N, K = 250, 10
    pool_size = 8

    def __init__(self):
        self._reference = {}

    def make_input(self, seed, index, workdir):
        values = gen.uniform(derive(seed, index, 1), self.N, 2)
        return Input(f"{self.name}#{index}", request_seed(seed, index), self.N,
                     {"data": core.Dataset(values)},
                     {"data": fingerprint(values)})

    def request(self, inp, workdir):
        data = inp.datasets["data"]
        t0 = time.perf_counter()
        rep = evaluate.run_algorithm("mdrrr", data, self.K, seed=inp.seed,
                                     kset_source="sweep2d")
        t1 = time.perf_counter()
        regret = sweep2d.exact_rank_regret_2d(data, rep.members)
        t2 = time.perf_counter()
        out = Output("mdrrr", data.n, self.K, rep.sorted_members(), int(regret),
                     bool(rep.params["complete"]),
                     {"collection_size": rep.params["collection_size"]})
        return Outcome(t1 - t0, t2 - t1, [out])

    def check(self, inp, outcome):
        data = inp.datasets["data"]
        out = outcome.outputs[0]
        # the complete collection depends on the input alone: build it once
        reference = self._reference.get(inp.name)
        if reference is None:
            reference = sweep2d.enumerate_ksets_2d(data, self.K)
            self._reference[inp.name] = reference
        failed = []
        if not ids_valid(out.members, data.n):
            return ["member_ids_valid"]
        if not (out.guaranteed and reference.complete
                and out.extra["collection_size"] == len(reference)):
            failed.append("collection_complete")
        if not hits_all(out.members, reference):
            failed.append("hits_every_set")
        if out.regret > self.K:
            failed.append("exact_regret_le_k")
        if oracle_regret(data.values, out.members, derive(inp.seed, 99)) > out.regret:
            failed.append("oracle_le_exact_regret")
        return failed


class PlaneLarge(Workload):
    name = "plane-large"
    why = ("d=2 anti-correlated n=1500 k=15 rounded to 3 decimals: rrr_2d "
           "on the find_ranges trajectory path with id tie-breaks")
    N, K, DECIMALS = 1_500, 15, 3
    pool_size = 8

    def make_input(self, seed, index, workdir):
        values = gen.rounded(
            gen.anticorrelated(derive(seed, index, 2), self.N, 2), self.DECIMALS)
        return Input(f"{self.name}#{index}", request_seed(seed, index), self.N,
                     {"data": core.Dataset(values)},
                     {"data": fingerprint(values)})

    def request(self, inp, workdir):
        data = inp.datasets["data"]
        t0 = time.perf_counter()
        rep = sweep2d.rrr_2d(data, self.K)
        t1 = time.perf_counter()
        regret = evaluate.estimate_rank_regret(data, rep.members, SAMPLES,
                                               derive(inp.seed, 1))
        t2 = time.perf_counter()
        out = Output("2drrr", data.n, self.K, rep.sorted_members(), int(regret),
                     bool(rep.bound_guaranteed))
        return Outcome(t1 - t0, t2 - t1, [out])

    def check(self, inp, outcome):
        data = inp.datasets["data"]
        out = outcome.outputs[0]
        if not ids_valid(out.members, data.n):
            return ["member_ids_valid"]
        failed = []
        if out.regret > 2 * self.K:
            failed.append("estimate_le_2k")
        if oracle_regret(data.values, out.members, derive(inp.seed, 99)) > 2 * self.K:
            failed.append("oracle_le_2k")
        return failed


class SpaceMdrc(Workload):
    name = "space-mdrc"
    why = ("d=4 anti-correlated n=2000 k=6 through rrr solve in-process: CSV "
           "ingest, mdrc angle-box partitioning, estimate on a large subset")
    N, D, K = 2_000, 4, 6
    pool_size = 8

    def make_input(self, seed, index, workdir):
        values = gen.anticorrelated(derive(seed, index, 3), self.N, self.D)
        path = os.path.join(workdir, f"{self.name}-{index}.csv")
        header = ",".join(f"a{j}" for j in range(self.D))
        np.savetxt(path, values, delimiter=",", header=header, comments="",
                   fmt="%.17g")
        return Input(f"{self.name}#{index}", request_seed(seed, index), self.N,
                     {"raw": values}, {"data": fingerprint(values)},
                     {"csv": path, "json": os.path.join(workdir, f"{self.name}-{index}.json")})

    def request(self, inp, workdir):
        argv = ["solve", inp.files["csv"], "--algo", "mdrc", "--k", str(self.K),
                "--eval", "estimate", "--samples", str(SAMPLES),
                "--seed", str(inp.seed), "-o", inp.files["json"]]
        t0 = time.perf_counter()
        code = cli.main(argv)
        t1 = time.perf_counter()
        payload = {}
        if code == 0:
            with open(inp.files["json"], "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        report = payload.get("evaluation", {})
        solve = float(report.get("wall_time_seconds", 0.0))
        out = Output("mdrc", self.N, self.K, payload.get("member_ids", []),
                     int(report.get("rank_regret") or 0),
                     bool(payload.get("bound_guaranteed", False)),
                     {"exit_code": code,
                      "fingerprint": report.get("dataset_fingerprint")})
        return Outcome(solve, (t1 - t0) - solve, [out])

    def check(self, inp, outcome):
        out = outcome.outputs[0]
        inp.fingerprints["ingested"] = out.extra["fingerprint"]
        if out.extra["exit_code"] != 0:
            return ["exit_code_0"]
        if not ids_valid(out.members, self.N):
            return ["member_ids_valid"]
        failed = []
        bound = self.D * self.K
        if out.guaranteed and out.regret > bound:
            failed.append("estimate_le_dk")
        # rank-regret over all non-negative weights is unchanged by the
        # per-column affine map ingest applies, so the raw values serve
        if out.guaranteed and oracle_regret(
                inp.datasets["raw"], out.members, derive(inp.seed, 99)) > bound:
            failed.append("oracle_le_dk")
        return failed


class SpaceKsets(Workload):
    name = "space-ksets"
    why = ("d=3 anti-correlated: mdrrr over the random k-set collector "
           "(n=600 k=6) and over the LP k-set graph (n=10 k=2)")
    # both parts' times vary by about a quarter between inputs, so this
    # pool is the largest, which evens them out in the run's median
    N_RANDOM, K_RANDOM, C = 600, 6, 100
    N_GRAPH, K_GRAPH = 10, 2
    pool_size = 24

    def make_input(self, seed, index, workdir):
        big = gen.anticorrelated(derive(seed, index, 4), self.N_RANDOM, 3)
        small = gen.anticorrelated(derive(seed, index, 5), self.N_GRAPH, 3)
        return Input(f"{self.name}#{index}", request_seed(seed, index),
                     self.N_RANDOM + self.N_GRAPH,
                     {"random": core.Dataset(big), "graph": core.Dataset(small)},
                     {"random": fingerprint(big), "graph": fingerprint(small)})

    def request(self, inp, workdir):
        big = inp.datasets["random"]
        small = inp.datasets["graph"]
        t0 = time.perf_counter()
        collection = kset.collect_ksets_random(big, self.K_RANDOM, self.C,
                                               derive(inp.seed, 1))
        members = hitting.mdrrr(collection, rng=derive(inp.seed, 2))
        t1 = time.perf_counter()
        regret = evaluate.estimate_rank_regret(big, members, SAMPLES,
                                               derive(inp.seed, 3))
        t2 = time.perf_counter()
        graph = kset.enumerate_ksets_graph(small, self.K_GRAPH)
        graph_members = hitting.mdrrr(graph, rng=derive(inp.seed, 4))
        t3 = time.perf_counter()
        graph_regret = evaluate.estimate_rank_regret(small, graph_members, SAMPLES,
                                                     derive(inp.seed, 5))
        t4 = time.perf_counter()
        outputs = [
            Output("random", big.n, self.K_RANDOM, sorted(members), int(regret),
                   bool(collection.complete), {"collection": collection}),
            Output("graph", small.n, self.K_GRAPH, sorted(graph_members),
                   int(graph_regret), bool(graph.complete), {"collection": graph}),
        ]
        return Outcome((t1 - t0) + (t3 - t2), (t2 - t1) + (t4 - t3), outputs)

    def check(self, inp, outcome):
        failed = []
        for out in outcome.outputs:
            if not ids_valid(out.members, out.n):
                failed.append(f"{out.part}.member_ids_valid")
            elif not hits_all(out.members, out.extra["collection"]):
                failed.append(f"{out.part}.hits_every_set")
        graph = outcome.outputs[1]
        if not graph.guaranteed:
            failed.append("graph.collection_complete")
        if graph.regret > self.K_GRAPH:
            failed.append("graph.estimate_le_k")
        if oracle_regret(inp.datasets["graph"].values, graph.members,
                         derive(inp.seed, 99)) > self.K_GRAPH:
            failed.append("graph.oracle_le_k")
        return failed


WORKLOADS = {w.name: w for w in (PlaneExact, PlaneLarge, SpaceMdrc, SpaceKsets)}


def quality(outcome: Outcome):
    """(mean size, mean regret / k, share guaranteed) of one request."""
    outs = outcome.outputs
    return (sum(len(o.members) for o in outs) / len(outs),
            sum(o.regret / o.k for o in outs) / len(outs),
            sum(o.guaranteed for o in outs) / len(outs))
