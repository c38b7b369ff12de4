"""Per-layer tracing by runtime wrappers, installed only for a traced run.

``Tracer.install`` replaces the public functions of the rankregret modules
with wrappers that record a span (name, start, end, parent, request id)
per call and bump per-request counters.  Every module attribute bound to
an original function is replaced, so names imported with ``from ... import``
(``evaluate.rrr_2d``, ``mdrc.top_k``, ``kset.simplex_max``, ...) are traced
too.  ``uninstall`` restores the originals.  Nothing under ``src/`` changes.
"""

import functools
import json
import sys
import time
from collections import defaultdict

#: (module, attribute) of every traced function; the span takes the name
#: "<module>.<attribute>" without the package prefix
TRACED = [
    ("core", "top_k"),
    ("sweep2d", "find_ranges"),
    ("sweep2d", "cover_2d"),
    ("sweep2d", "rrr_2d"),
    ("sweep2d", "enumerate_ksets_2d"),
    ("sweep2d", "exact_rank_regret_2d"),
    ("mdrc", "mdrc"),
    ("kset", "collect_ksets_random"),
    ("kset", "enumerate_ksets_graph"),
    ("kset", "is_valid_kset"),
    ("simplex", "simplex_max"),
    ("hitting", "mdrrr"),
    ("evaluate", "estimate_rank_regret"),
    ("cli", "ingest"),
    ("cli", "main"),
]

PACKAGE = "rankregret"

#: per-layer metrics and their units; "better" is in BENCHMARK.json
LAYER_METRICS = {
    "sweep2d.enumerate_ksets_2d.self_s": "s",
    "sweep2d.exact_rank_regret_2d.self_s": "s",
    "sweep2d.ExchangeSweep.swaps": "count",
    "sweep2d.find_ranges.self_s": "s",
    "sweep2d.find_ranges.ranges": "count",
    "sweep2d.rrr_2d.self_s": "s",
    "sweep2d.cover_2d.self_s": "s",
    "mdrc.mdrc.self_s": "s",
    "mdrc.mdrc.leaves": "count",
    "mdrc.mdrc.memo_hit_ratio": "ratio",
    "core.top_k.calls": "count",
    "core.top_k.self_s": "s",
    "kset.collect_ksets_random.self_s": "s",
    "kset.collect_ksets_random.draws": "count",
    "kset.collect_ksets_random.sets": "count",
    "kset.collect_ksets_random.new_set_ratio": "ratio",
    "kset.enumerate_ksets_graph.self_s": "s",
    "kset.enumerate_ksets_graph.sets": "count",
    "kset.is_valid_kset.calls": "count",
    "kset.is_valid_kset.self_s": "s",
    "kset.is_valid_kset.valid_ratio": "ratio",
    "simplex.simplex_max.calls": "count",
    "simplex.simplex_max.self_s": "s",
    "simplex.simplex_max.nonoptimal": "count",
    "hitting.mdrrr.self_s": "s",
    "hitting.mdrrr.rounds": "count",
    "hitting.mdrrr.doublings": "count",
    "hitting.mdrrr.sets_in": "count",
    "evaluate.estimate_rank_regret.self_s": "s",
    "cli.ingest.self_s": "s",
    "cli.main.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: ratio metric -> (numerator counter, denominator counter); a ratio is
#: taken over the summed counters of the requests it covers
RATIOS = {
    "kset.collect_ksets_random.new_set_ratio":
        ("kset.collect_ksets_random.sets", "kset.collect_ksets_random.draws"),
    "kset.is_valid_kset.valid_ratio":
        ("kset.is_valid_kset.valid", "kset.is_valid_kset.calls"),
    # 1 - top_k calls / corner evaluations without a memo, as a hit count
    "mdrc.mdrc.memo_hit_ratio":
        ("mdrc.mdrc.memo_hits", "mdrc.mdrc.corner_evals"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request}


def union_length(intervals, lo, hi):
    """Length of the union of closed intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start
            - union_length(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._request = None
        self._patches = []

    # --- spans ---------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._request))
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def begin_request(self, request_id):
        """Open the root span of a request; layer spans nest under it."""
        self._request = request_id
        return self.open("request")

    def end_request(self, index):
        self.close(index)
        self._request = None

    def count(self, name, value=1):
        self.counters[self._request][name] += value

    # --- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, after=None, call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = (call or fn)(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                result = after(result, args, kwargs)
            return result

        return traced

    def _hooks(self, modules):
        """Per-function (after, call) hooks that record counters."""
        count = self.count
        topk_total = [0]

        def top_k_after(result, args, kwargs):
            topk_total[0] += 1
            count("core.top_k.calls")
            return result

        def find_ranges_after(result, args, kwargs):
            count("sweep2d.find_ranges.ranges", len(result))
            return result

        mdrc_fn = modules["mdrc"].mdrc

        def mdrc_call(dataset, *args, **kwargs):
            before = topk_total[0]
            rep = mdrc_fn(dataset, *args, **kwargs)
            calls = topk_total[0] - before
            leaves = int(rep.params["leaves"])
            corner_evals = 2 ** (dataset.d - 1) * (2 * leaves - 1)
            count("mdrc.mdrc.leaves", leaves)
            count("mdrc.mdrc.corner_evals", corner_evals)
            count("mdrc.mdrc.memo_hits", corner_evals - calls)
            return rep

        collect_fn = modules["kset"].collect_ksets_random

        def collect_call(*args, **kwargs):
            before = topk_total[0]
            collection = collect_fn(*args, **kwargs)
            count("kset.collect_ksets_random.draws", topk_total[0] - before)
            count("kset.collect_ksets_random.sets", len(collection))
            return collection

        def graph_after(result, args, kwargs):
            count("kset.enumerate_ksets_graph.sets", len(result))
            return result

        def valid_after(result, args, kwargs):
            count("kset.is_valid_kset.calls")
            count("kset.is_valid_kset.valid", int(result is not None))
            return result

        def simplex_after(result, args, kwargs):
            count("simplex.simplex_max.calls")
            count("simplex.simplex_max.nonoptimal", int(not result.ok))
            return result

        mdrrr_fn = modules["hitting"].mdrrr

        def mdrrr_call(*args, **kwargs):
            wants_stats = kwargs.pop("return_stats", False)
            collection = args[0] if args else kwargs["collection"]
            members, stats = mdrrr_fn(*args, return_stats=True, **kwargs)
            count("hitting.mdrrr.rounds", stats.total_rounds)
            count("hitting.mdrrr.doublings", len(stats.doublings))
            count("hitting.mdrrr.sets_in", len(collection))
            return (members, stats) if wants_stats else members

        return {
            "core.top_k": (top_k_after, None),
            "sweep2d.find_ranges": (find_ranges_after, None),
            "mdrc.mdrc": (None, mdrc_call),
            "kset.collect_ksets_random": (None, collect_call),
            "kset.enumerate_ksets_graph": (graph_after, None),
            "kset.is_valid_kset": (valid_after, None),
            "simplex.simplex_max": (simplex_after, None),
            "hitting.mdrrr": (None, mdrrr_call),
        }

    def install(self):
        """Replace every binding of the traced functions in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {short: sys.modules[f"{PACKAGE}.{short}"]
                   for short in {m for m, _ in TRACED}}
        hooks = self._hooks(modules)
        replacement = {}
        for short, attr in TRACED:
            name = f"{short}.{attr}"
            fn = getattr(modules[short], attr)
            after, call = hooks.get(name, (None, None))
            replacement[id(fn)] = (fn, self._wrap(name, fn, after, call))
        package_modules = [mod for key, mod in sorted(sys.modules.items())
                           if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in package_modules:
            for key, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patches.append((mod, key, value))
        sweep_cls = modules["sweep2d"].ExchangeSweep
        original_batches = sweep_cls.batches
        count = self.count

        def batches(sweep):
            try:
                yield from original_batches(sweep)
            finally:
                count("sweep2d.ExchangeSweep.swaps", sweep.swap_count)

        sweep_cls.batches = batches
        self._patches.append((sweep_cls, "batches", original_batches))

    def uninstall(self):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches = []

    # --- results -------------------------------------------------------

    def profiles(self):
        """Per request: self time per span name, the time layer spans
        cover (the union of the root's children) and the request time."""
        selfs = self_times(self.spans)
        by_request = defaultdict(lambda: defaultdict(float))
        roots = {}
        for i, span in enumerate(self.spans):
            by_request[span.request][span.name] += selfs[i]
            if span.parent is None:
                roots[i] = span
        layers = defaultdict(list)
        for span in self.spans:
            if span.parent in roots:
                layers[span.parent].append((span.start, span.end))
        out = {}
        for i, root in roots.items():
            covered = union_length(layers[i], root.start, root.end)
            out[root.request] = (by_request[root.request], covered,
                                 root.end - root.start)
        return out

    def dump(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")
            for request, counters in sorted(self.counters.items(),
                                            key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"request": request,
                                     "counters": dict(counters)}) + "\n")
