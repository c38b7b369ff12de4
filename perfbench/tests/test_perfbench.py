"""Self-tests of the benchmark: generators, self-time arithmetic, tracer, gate.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import tracing
import workloads
from tracing import Span, self_times, union_length

ROOT = Path(__file__).resolve().parents[2]


def spans_from(rows):
    """Spans from (name, start, end, parent index) rows."""
    out = []
    for name, start, end, parent in rows:
        span = Span(name, start, parent, request=0)
        span.end = end
        out.append(span)
    return out


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = spans_from([
            ("request", 0.0, 10.0, None),
            ("solve", 1.0, 6.0, 0),
            ("top_k", 2.0, 3.0, 1),
            ("top_k", 4.0, 4.5, 1),
            ("eval", 6.0, 9.0, 0),
        ])
        assert self_times(spans) == pytest.approx([2.0, 3.5, 1.0, 0.5, 3.0])

    def test_overlapping_children_count_once(self):
        spans = spans_from([
            ("parent", 0.0, 10.0, None),
            ("a", 1.0, 5.0, 0),
            ("b", 4.0, 7.0, 0),
        ])
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)

    def test_profiles_give_coverage_of_the_root(self):
        tracer = tracing.Tracer()
        tracer.spans = spans_from([
            ("request", 0.0, 10.0, None),
            ("solve", 1.0, 6.0, 0),
            ("eval", 6.0, 9.0, 0),
        ])
        selfs, covered, total = tracer.profiles()[0]
        assert covered == pytest.approx(8.0)
        assert total == pytest.approx(10.0)
        assert selfs["request"] == pytest.approx(2.0)


class TestGenerators:
    @pytest.mark.parametrize("make", [
        lambda rng: gen.uniform(rng, 500, 3),
        lambda rng: gen.anticorrelated(rng, 500, 4),
        lambda rng: gen.rounded(gen.anticorrelated(rng, 500, 2), 3),
    ])
    def test_same_seed_same_fingerprint(self, make):
        a = make(np.random.default_rng(11))
        b = make(np.random.default_rng(11))
        c = make(np.random.default_rng(12))
        assert workloads.fingerprint(a) == workloads.fingerprint(b)
        assert workloads.fingerprint(a) != workloads.fingerprint(c)

    def test_pools_repeat_per_seed(self, tmp_path):
        w = workloads.PlaneLarge()
        first = [i.fingerprints for i in w.make_pool(3, str(tmp_path))]
        again = [i.fingerprints for i in w.make_pool(3, str(tmp_path))]
        other = [i.fingerprints for i in w.make_pool(4, str(tmp_path))]
        assert first == again
        assert first != other
        assert len({f["data"] for f in first}) == len(first)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_anticorrelated_open_cube_negative_correlation(self, d):
        x = gen.anticorrelated(np.random.default_rng(5), 4000, d)
        assert x.shape == (4000, d)
        assert np.all(x > 0.0) and np.all(x < 1.0)
        corr = np.corrcoef(x.T)
        assert np.all(corr[~np.eye(d, dtype=bool)] < -0.1)

    def test_rounding_makes_ties(self):
        x = gen.rounded(gen.anticorrelated(np.random.default_rng(5), 10_000, 2), 3)
        assert len(np.unique(x[:, 0])) <= 1001
        assert np.all(np.round(x * 1000) == x * 1000)


class TestTracer:
    def test_install_patches_imported_names_and_uninstall_restores(self):
        mdrc_mod = importlib.import_module("rankregret.mdrc")
        kset = importlib.import_module("rankregret.kset")
        evaluate = importlib.import_module("rankregret.evaluate")
        before = (mdrc_mod.top_k, kset.top_k, kset.simplex_max, evaluate.rrr_2d)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            after = (mdrc_mod.top_k, kset.top_k, kset.simplex_max, evaluate.rrr_2d)
            assert all(a is not b for a, b in zip(after, before))
            assert all(a.__wrapped__ is b for a, b in zip(after, before))
        finally:
            tracer.uninstall()
        assert (mdrc_mod.top_k, kset.top_k, kset.simplex_max, evaluate.rrr_2d) == before

    def test_counters_and_spans_of_a_small_request(self):
        core = importlib.import_module("rankregret.core")
        evaluate = importlib.import_module("rankregret.evaluate")
        data = core.Dataset(gen.uniform(np.random.default_rng(0), 60, 2))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            root = tracer.begin_request(0)
            rep = evaluate.run_algorithm("mdrrr", data, 3, seed=1,
                                         kset_source="sweep2d")
            tracer.end_request(root)
        finally:
            tracer.uninstall()
        counters = tracer.counters[0]
        assert counters["hitting.mdrrr.rounds"] >= 1
        assert counters["hitting.mdrrr.sets_in"] == rep.params["collection_size"]
        assert counters["sweep2d.ExchangeSweep.swaps"] > 0
        selfs, covered, total = tracer.profiles()[0]
        assert {"sweep2d.enumerate_ksets_2d", "hitting.mdrrr"} <= set(selfs)
        assert 0.0 < covered <= total

    def test_mdrrr_wrapper_keeps_the_callers_return_shape(self):
        core = importlib.import_module("rankregret.core")
        hitting = importlib.import_module("rankregret.hitting")
        sweep2d = importlib.import_module("rankregret.sweep2d")
        data = core.Dataset(gen.uniform(np.random.default_rng(1), 40, 2))
        collection = sweep2d.enumerate_ksets_2d(data, 2)
        plain = hitting.mdrrr(collection, rng=np.random.default_rng(0))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            root = tracer.begin_request(0)
            traced = hitting.mdrrr(collection, rng=np.random.default_rng(0))
            with_stats = hitting.mdrrr(collection, rng=np.random.default_rng(0),
                                       return_stats=True)
            tracer.end_request(root)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert with_stats[0] == plain
        assert with_stats[1].total_rounds >= 1

    def test_every_traced_function_exists(self):
        for module, attr in tracing.TRACED:
            assert callable(getattr(importlib.import_module(f"rankregret.{module}"), attr))


class _SmallPlaneExact(workloads.PlaneExact):
    N, K = 120, 4
    pool_size = 1


class TestGate:
    def test_correct_answer_passes(self, tmp_path):
        w = _SmallPlaneExact()
        inp = w.make_pool(0, str(tmp_path))[0]
        assert w.check(inp, w.request(inp, str(tmp_path))) == []

    def test_single_arbitrary_tuple_is_rejected(self, tmp_path):
        w = _SmallPlaneExact()
        inp = w.make_pool(0, str(tmp_path))[0]
        outcome = w.request(inp, str(tmp_path))
        data = inp.datasets["data"]
        # the tuple with the lowest attribute sum is far from every top-k
        worst = int(np.argmin(data.values.sum(axis=1)))
        out = outcome.outputs[0]
        out.members = [worst]
        out.regret = int(workloads.sweep2d.exact_rank_regret_2d(data, [worst]))
        failed = w.check(inp, outcome)
        assert "hits_every_set" in failed
        assert "exact_regret_le_k" in failed

    def test_under_reported_regret_is_caught_by_the_oracle(self, tmp_path):
        w = _SmallPlaneExact()
        inp = w.make_pool(0, str(tmp_path))[0]
        outcome = w.request(inp, str(tmp_path))
        outcome.outputs[0].regret = 0
        assert "oracle_le_exact_regret" in w.check(inp, outcome)

    def test_invalid_ids_are_rejected(self, tmp_path):
        w = _SmallPlaneExact()
        inp = w.make_pool(0, str(tmp_path))[0]
        outcome = w.request(inp, str(tmp_path))
        outcome.outputs[0].members = [w.N + 5]
        assert w.check(inp, outcome) == ["member_ids_valid"]

    def test_oracle_matches_exact_regret_lower_bound(self):
        data = workloads.core.Dataset(gen.uniform(np.random.default_rng(2), 200, 2))
        members = [0, 1]
        exact = workloads.sweep2d.exact_rank_regret_2d(data, members)
        sampled = workloads.oracle_regret(data.values, members,
                                          np.random.default_rng(0), count=512)
        assert 1 <= sampled <= exact


class TestRequestMetrics:
    def test_request_ref_is_median_request_over_median_reference(self):
        def record(index, seconds, traced=False, failed=()):
            out = workloads.Output("p", 10, 2, [0], 1, True)
            return run.Record(index, seconds, workloads.Outcome(seconds, 0.0, [out]),
                              list(failed), traced, None)

        records = [record(0, 1.0), record(1, 3.0), record(0, 2.0),
                   record(1, 9.0, traced=True), record(0, 50.0, failed=["x"])]
        pool = [workloads.Input("a", 0, 10, {}, {}), workloads.Input("b", 0, 10, {}, {})]
        gauge = type("Gauge", (), {"seconds": [0.5, 0.1, 0.4]})()
        measured = run.request_metrics(records, pool, gauge)
        assert measured["request_s"] == 2.0
        assert measured["ref_s"] == 0.4
        assert measured["request_ref"] == pytest.approx(5.0)


class TestContract:
    def test_benchmark_json_lists_what_the_run_prints(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
        assert [w["why"] for w in bench["workloads"]] == [
            w.why for w in workloads.WORKLOADS.values()]
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
            **tracing.LAYER_METRICS, **run.UNBOUNDED}

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plane-exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
