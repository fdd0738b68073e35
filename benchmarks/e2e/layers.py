"""Span wrappers around each layer's callables, and the per-layer metrics.

The traced run replaces a fixed list of class and module attributes with
timing wrappers *inside the child process only*; nothing under ``src/``
is edited and the library's own observability hub stays disarmed.  Two
kinds of wrapper share one stack:

* a **span** records ``(name, start, end, parent, request, self_seconds)``;
* a **leaf** (the store probes, called thousands of times per base scan)
  only adds to a per-request ``(calls, seconds, self_seconds)`` counter.

Self time is a call's duration minus the time its wrapped callees took.
A request is one timed call of the loop (one answer, one window's apply
or maintain, one offline step); its spans share the request id.  Probe
wrappers time the call itself: a generator or per-key closure the store
hands back (``DictStore.match_ids``, ``pair_adjacency``) is consumed on
the executor's clock, so on the dict store ``probe_self_ms`` is a floor.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

#: (module, class or None, attribute, span name) -- class attributes are
#: replaced on the class, functions on the module that *binds* them.
SPANS = (
    ("repro.datasets", None, "generate_lubm", "datasets.generate"),
    ("repro.datasets", None, "generate_dbpedia", "datasets.generate"),
    ("repro.datasets", None, "generate_swdf", "datasets.generate"),
    ("repro.core.sofos", "Sofos", "generate_workload",
     "workload.generate_queries"),
    ("repro.core.sofos", "Sofos", "profile", "core.sofos.profile"),
    ("repro.core.sofos", "Sofos", "select", "selection.select"),
    ("repro.core.sofos", "Sofos", "materialize", "core.sofos.materialize"),
    ("repro.core.sofos", "Sofos", "answer", "core.sofos.answer"),
    ("repro.core.sofos", "Sofos", "answer_sparql",
     "core.sofos.answer_sparql"),
    ("repro.core.sofos", "Sofos", "maintain", "core.sofos.maintain"),
    ("repro.core.online", "OnlineModule", "answer", "core.online.answer"),
    ("repro.core.online", None, "rewrite_on_view", "views.rewriter.rewrite"),
    ("repro.cost.profiler", "LatticeProfile", "profile",
     "cost.profiler.profile"),
    ("repro.sparql.parser", None, "parse_query", "sparql.parser.parse"),
    ("repro.views.analyzer", None, "analyze_query", "views.analyzer.analyze"),
    ("repro.views.router", "ViewRouter", "route", "views.router.route"),
    ("repro.sparql.engine", "QueryEngine", "prepare",
     "sparql.engine.prepare"),
    ("repro.sparql.engine", "QueryEngine", "query", "sparql.engine.query"),
    ("repro.sparql.engine", "QueryEngine", "timed_query",
     "sparql.engine.timed_query"),
    ("repro.sparql.executor", "Executor", "run_ids",
     "sparql.executor.run_ids"),
    ("repro.sparql.executor", "Executor", "group_table",
     "sparql.executor.group_table"),
    ("repro.views.catalog", "ViewCatalog", "materialize_all",
     "views.catalog.materialize_all"),
    ("repro.views.catalog", "ViewCatalog", "refresh",
     "views.catalog.refresh"),
    ("repro.workload.updates", "UpdateBatch", "apply_to",
     "workload.updates.apply"),
    ("repro.rdf.graph", "Graph", "remove", "rdf.graph.remove"),
    ("repro.rdf.graph", "Graph", "update", "rdf.graph.update"),
    # the one private name: every compaction, eager or forced by a probe,
    # goes through it (the public compact() is only the manual trigger)
    ("repro.rdf.columnar", "ColumnarStore", "_compact",
     "rdf.columnar.compact"),
    ("repro.rdf.changelog", "ChangeLog", "drain", "rdf.changelog.drain"),
    ("repro.sparql.delta", "DeltaEvaluator", "adjustments",
     "sparql.delta.adjustments"),
    ("repro.views.maintenance", "ViewMaintainer", "synchronize",
     "views.maintenance.synchronize"),
)

LEAVES = tuple(
    ("repro.rdf.graph", "Graph", attr, "rdf.store.probe")
    for attr in ("match_ids", "adjacent_ids", "pair_adjacency", "count_ids")
) + tuple(
    ("repro.rdf.columnar", "ColumnarStore", attr, "rdf.store.probe")
    for attr in ("bulk_probe", "bulk_exists", "bulk_scan"))

#: Layer metrics made of counts only: they must repeat bit for bit.
EXACT_METRICS = (
    "cost.profiler.view_evals", "views.router.hit_ratio",
    "rdf.store.probe_calls_per_query", "rdf.columnar.compactions",
    "rdf.changelog.window_triples_p50", "views.maintenance.rebuild_fallbacks")


class Tracer:
    """In-memory spans and leaf counters of one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.requests: list[str] = []
        self.missing: list[str] = []
        self._request = -1
        # frames of open wrapped calls: [callee seconds, enclosing span]
        self._stack: list[list] = []

    # -- requests ----------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Open a request; spans recorded from now on carry its id."""
        self.requests.append(kind)
        self._request = len(self.requests) - 1

    def retag(self, kind: str) -> None:
        """Rename the open request once its outcome (route) is known."""
        self.requests[self._request] = kind

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            record = [name, 0.0, 0.0, parent, self._request, 0.0]
            frame = [0.0, len(spans)]
            spans.append(record)
            stack.append(frame)
            record[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                record[5] = end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
        traced.__wrapped__ = fn
        return traced

    def _leaf(self, fn, name: str):
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                key = (self._request, name)
                counter = leaves.get(key)
                if counter is None:
                    leaves[key] = [1, seconds, seconds - frame[0]]
                else:
                    counter[0] += 1
                    counter[1] += seconds
                    counter[2] += seconds - frame[0]
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target that exists; remember the ones that don't."""
        for targets, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module_name, class_name, attr, name in targets:
                module = importlib.import_module(module_name)
                owner = module if class_name is None \
                    else getattr(module, class_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(
                        ".".join(filter(None, (module_name, class_name,
                                               attr))))
                elif isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(make(raw.__func__, name)))
                else:
                    setattr(owner, attr, make(raw, name))

    # -- output ------------------------------------------------------------

    def dump(self, path: str, workload: str) -> None:
        """Write every span and leaf counter of the run as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": workload,
                "span_fields": ["name", "start", "end", "parent", "request",
                                "self_seconds"],
                "spans": self.spans,
                "leaf_fields": ["request", "name", "calls", "seconds",
                                "self_seconds"],
                "leaves": [[request, name, *counter] for (request, name),
                           counter in self.leaves.items()],
                "requests": self.requests,
                "missing": self.missing,
            }, handle)

    def totals(self) -> dict[tuple[int, str], list]:
        """(request, name) -> [calls, seconds, self seconds], spans+leaves."""
        out = {key: list(counter) for key, counter in self.leaves.items()}
        for name, start, end, _parent, request, self_seconds in self.spans:
            counter = out.get((request, name))
            if counter is None:
                out[(request, name)] = [1, end - start, self_seconds]
            else:
                counter[0] += 1
                counter[1] += end - start
                counter[2] += self_seconds
        return out


CALLS, SECONDS, SELF = 0, 1, 2

#: Request kinds (set by loop.py) that make up the timed loop.
ANSWERS = ("answer:view", "answer:base")
LOOP_KINDS = ANSWERS + ("apply:small", "apply:large", "maintain:small",
                        "maintain:large")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, run: dict) -> dict:
    """The per-layer metrics of one traced run.

    ``run`` is what the loop measured itself: raw loop seconds of this
    child and of a plain one, the large-window median, window sizes,
    rebuild fallbacks, GC pauses and the memory report.
    """
    totals = tracer.totals()
    by_kind: dict[str, list[int]] = {}
    for request, kind in enumerate(tracer.requests):
        by_kind.setdefault(kind, []).append(request)

    def per_request(name: str, kinds, field: int = SECONDS) -> list[float]:
        """One value per request of the kinds (0 where the layer idled)."""
        return [totals.get((request, name), (0, 0.0, 0.0))[field]
                for kind in kinds for request in by_kind.get(kind, ())]

    n_answers = sum(len(by_kind.get(kind, ())) for kind in ANSWERS) or 1

    def per_answer(name: str, field: int = SELF) -> float:
        return sum(per_request(name, ANSWERS, field)) / n_answers

    routes = sum(per_request("views.router.route", ANSWERS, CALLS))
    materialize_s = _median(per_request("views.catalog.materialize_all",
                                        ("offline:materialize",)))
    loop_requests = {request for kind in LOOP_KINDS
                     for request in by_kind.get(kind, ())}
    loop_self = sum(counter[SELF] for (request, _), counter in totals.items()
                    if request in loop_requests)
    traced_loop_s = run["traced_loop_s"]

    def loop_total(name: str, field: int) -> float:
        return sum(counter[field] for (request, span), counter
                   in totals.items()
                   if span == name and request in loop_requests)

    metrics = {
        "datasets.generate_s": (_median(per_request(
            "datasets.generate", ("setup",))), "s"),
        "workload.generate_queries_s": (_median(per_request(
            "workload.generate_queries", ("setup",))), "s"),
        "cost.profiler.profile_s": (_median(per_request(
            "cost.profiler.profile", ("offline:profile",))), "s"),
        "cost.profiler.view_evals": (_median(per_request(
            "sparql.engine.query", ("offline:profile",), CALLS)), "count"),
        "selection.select_ms": (1e3 * _median(per_request(
            "selection.select", ("offline:select",))), "ms"),
        "views.catalog.materialize_s": (materialize_s, "s"),
        "sparql.executor.group_table_s": (_median(per_request(
            "sparql.executor.group_table", ("offline:materialize",))), "s"),
        "sparql.parser.parse_us": (
            1e6 * per_answer("sparql.parser.parse"), "us"),
        "views.analyzer.analyze_us": (
            1e6 * per_answer("views.analyzer.analyze"), "us"),
        "views.router.route_us": (
            1e6 * per_answer("views.router.route"), "us"),
        "views.router.hit_ratio": (
            len(by_kind.get("answer:view", ())) / routes if routes else 0.0,
            "ratio"),
        "views.rewriter.rewrite_us": (
            1e6 * per_answer("views.rewriter.rewrite"), "us"),
        "sparql.engine.prepare_us": (
            1e6 * per_answer("sparql.engine.prepare"), "us"),
        "sparql.engine.decode_us": (
            1e6 * (per_answer("sparql.engine.timed_query")
                   + per_answer("sparql.engine.query")), "us"),
        "sparql.executor.view_run_ms": (1e3 * _mean(per_request(
            "sparql.executor.run_ids", ("answer:view",))), "ms"),
        "sparql.executor.base_run_ms": (1e3 * _mean(per_request(
            "sparql.executor.run_ids", ("answer:base",))), "ms"),
        "rdf.store.probe_calls_per_query": (
            per_answer("rdf.store.probe", CALLS), "count"),
        "rdf.store.probe_self_ms_per_query": (
            1e3 * per_answer("rdf.store.probe"), "ms"),
        "rdf.graph.apply_small_ms_p50": (1e3 * _median(per_request(
            "workload.updates.apply", ("apply:small",))), "ms"),
        "rdf.graph.apply_large_ms_p50": (1e3 * _median(per_request(
            "workload.updates.apply", ("apply:large",))), "ms"),
        "rdf.columnar.compactions": (
            loop_total("rdf.columnar.compact", CALLS), "count"),
        "rdf.columnar.compact_ms_total": (
            1e3 * loop_total("rdf.columnar.compact", SECONDS), "ms"),
        "rdf.changelog.drain_ms_p50": (1e3 * _median(per_request(
            "rdf.changelog.drain", ("maintain:small", "maintain:large"))),
            "ms"),
        "rdf.changelog.window_triples_p50": (
            _median(run["window_triples"]), "count"),
        "runtime.gc_gen2_collections": (run["gc_gen2"], "count"),
        "runtime.gc_pause_ms_total": (1e3 * run["gc_pause_s"], "ms"),
        "rdf.memory.base_mb": (run["memory_base_mb"], "MB"),
        "rdf.memory.views_mb": (run["memory_views_mb"], "MB"),
        "views.maintenance.rebuild_fallbacks": (
            run["rebuild_fallbacks"], "count"),
        "views.maintenance.patch_vs_rebuild_ratio": (
            run["maintain_large_s_p50"] / materialize_s
            if materialize_s else 0.0, "ratio"),
        "harness.trace_overhead_ratio": (
            traced_loop_s / run["untraced_loop_s"], "ratio"),
        "harness.layer_coverage": (loop_self / traced_loop_s, "ratio"),
    }
    for size in ("small", "large"):
        kind = (f"maintain:{size}",)
        metrics[f"sparql.delta.adjustments_{size}_ms_p50"] = (
            1e3 * _median(per_request("sparql.delta.adjustments", kind)),
            "ms")
        metrics[f"views.maintenance.patch_self_{size}_ms_p50"] = (
            1e3 * _median(per_request("views.maintenance.synchronize", kind,
                                      SELF)), "ms")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def layer_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Each span name's share of the self time of its phase.

    Phases are ``offline`` (profile + select + materialize) and ``loop``
    (apply + maintain + answers); the README's layer table is this.
    """
    phase_of = {}
    for request, kind in enumerate(tracer.requests):
        if kind.startswith("offline"):
            phase_of[request] = "offline"
        elif kind in LOOP_KINDS:
            phase_of[request] = "loop"
    shares: dict[str, dict[str, float]] = {"offline": {}, "loop": {}}
    for (request, name), counter in tracer.totals().items():
        phase = phase_of.get(request)
        if phase is not None:
            shares[phase][name] = shares[phase].get(name, 0.0) \
                + counter[SELF]
    for phase, by_name in shares.items():
        total = sum(by_name.values()) or 1.0
        shares[phase] = {name: seconds / total for name, seconds
                         in sorted(by_name.items(), key=lambda kv: -kv[1])}
    return shares
