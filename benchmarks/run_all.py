"""Benchmark entry point: write the machine-readable perf trajectory.

Runs the engine benchmark suites (store microbenchmarks, join/aggregate/
cube queries, and the E5-style generated workload on all three demo
datasets) through BOTH executors — the batched id-space pipeline and the
retained tuple-at-a-time reference — and writes ``BENCH_engine.json`` at
the repo root: per-suite median timings, dataset sizes, and speedup vs
the seed baseline.  Every suite also carries the storage-backend
dimension: the identical prepared queries run against a columnar twin of
the graph (same term dictionary, ``store="columnar"``), with result
parity and twin-world maintenance parity asserted before any timing, and
``columnar_vs_dict`` reporting the sorted-id-array backend's speedup
over the nested-dict index baseline.  The maintenance suite (incremental
view patching vs full rebuilds, see ``run_maintenance.py``) is folded
into the same summary; materialization cost is tracked end to end by
``benchmarks/e2e`` (``offline_s``, ``views.catalog.materialize_s``).
Every future perf PR appends its own before/after point by re-running
this script.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--smoke] [--out PATH]

``--smoke`` shrinks repetitions and scales for CI sanity runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.datasets import DBPediaConfig, generate_dbpedia, load_dataset
from repro.obs import hub as obs_hub
from repro.rdf import Graph
from repro.sparql import QueryEngine, ReferenceExecutor, ResultTable
from repro.workload import WorkloadConfig, WorkloadGenerator

from run_maintenance import run_suites as run_maintenance_suites, \
    small_delta_summary

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

PREFIX = "PREFIX dbp: <http://dbpedia.org/ontology/>\n"

JOIN_QUERY = PREFIX + """
SELECT ?country ?pop WHERE {
  ?obs dbp:ofCountry ?country ; dbp:year 2015 ; dbp:population ?pop .
  ?country dbp:partOf ?continent .
}
"""

AGG_QUERY = PREFIX + """
SELECT ?continent (SUM(?pop) AS ?total) WHERE {
  ?obs dbp:ofCountry ?country ; dbp:population ?pop .
  ?country dbp:partOf ?continent .
  ?continent a dbp:Continent .
} GROUP BY ?continent
"""

# The SOFOS workhorse shape: a two-dimension cube rollup over the fact
# table — joins, multi-key grouping, and a numeric fold in one query.
CUBE_QUERY = PREFIX + """
SELECT ?continent ?year (AVG(?pop) AS ?mean) WHERE {
  ?obs dbp:ofCountry ?country ; dbp:year ?year ; dbp:population ?pop .
  ?country dbp:partOf ?continent .
} GROUP BY ?continent ?year
"""


def _median_seconds(fn, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _columnar_twin(graph):
    """The same triples in a columnar store sharing ``graph``'s dictionary."""
    twin = Graph(dictionary=graph.dictionary, store="columnar")
    twin.add_ids_bulk(graph.snapshot_ids())
    return twin


def _assert_twin_maintenance_parity(graph) -> None:
    """Both backends must evolve identically under a maintenance cycle.

    Replays an insert/delete/rollback interleaving against dict and
    columnar twins of ``graph`` and compares the full reachable state —
    the backend dimension below times two worlds only after proving they
    are the same world.
    """
    ids = graph.snapshot_ids()
    twins = []
    for kind in ("dict", "columnar"):
        twin = Graph(dictionary=graph.dictionary, store=kind)
        twin.add_ids_bulk(ids)
        twins.append(twin)
    victims = ids[:: max(1, len(ids) // 50)][:40]
    novel = [(s, p, o + 1_000_000) for s, p, o in victims[:20]]
    for twin in twins:
        twin.remove_ids_bulk(victims)
        twin.add_ids_bulk(novel)
        before = twin.snapshot_ids()
        twin.add_ids_bulk([(s, p, o + 2_000_000) for s, p, o in novel])
        twin.remove_ids_bulk(novel[:10])
        twin.clear()
        twin.add_ids_bulk(before)  # snapshot-style rollback
    dict_twin, col_twin = twins
    if sorted(dict_twin.snapshot_ids()) != sorted(col_twin.snapshot_ids()) \
            or len(dict_twin) != len(col_twin) \
            or dict(dict_twin.predicate_histogram()) \
            != dict(col_twin.predicate_histogram()):
        raise AssertionError(
            "storage backends diverged under the maintenance interleaving")


def _run_pair(engine: QueryEngine, reference: ReferenceExecutor,
              prepared_queries, repetitions: int,
              columnar_engine: QueryEngine | None = None,
              columnar_prepared=None) -> dict:
    """Median end-to-end timings of one query list through both executors."""
    def batched() -> None:
        for prepared in prepared_queries:
            engine.query(prepared)

    def naive() -> None:
        for prepared in prepared_queries:
            ResultTable.from_bindings(prepared.ast.projected_variables(),
                                      reference.run(prepared.plan))

    # Parity guard: a benchmark over diverging engines measures nothing.
    for k, prepared in enumerate(prepared_queries):
        got = engine.query(prepared)
        want = ResultTable.from_bindings(prepared.ast.projected_variables(),
                                         reference.run(prepared.plan))
        if not got.same_solutions(want):
            raise AssertionError(
                f"executor divergence on benchmark query:\n{prepared.text}")
        if columnar_engine is not None:
            col = columnar_engine.query(columnar_prepared[k])
            if not col.same_solutions(want):
                raise AssertionError(
                    "columnar backend divergence on benchmark query:\n"
                    f"{prepared.text}")

    batched_s = _median_seconds(batched, repetitions)
    reference_s = _median_seconds(naive, max(2, repetitions // 2))
    suite = {
        "queries": len(prepared_queries),
        "batched_ms": round(batched_s * 1e3, 3),
        "reference_ms": round(reference_s * 1e3, 3),
        "speedup": round(reference_s / batched_s, 2),
    }
    if columnar_engine is not None:
        def columnar() -> None:
            for prepared in columnar_prepared:
                columnar_engine.query(prepared)

        columnar_s = _median_seconds(columnar, repetitions)
        suite["columnar_ms"] = round(columnar_s * 1e3, 3)
        suite["columnar_vs_dict"] = round(batched_s / columnar_s, 2)
    return suite


def run_suites(smoke: bool = False) -> dict:
    repetitions = 3 if smoke else 9
    suites: dict[str, dict] = {}

    # E9 microbench trio: medium DBpedia — join, aggregation, and the
    # two-dimension cube rollup.  (Smoke keeps enough rows that the
    # timings stay above measurement noise.)
    countries = 80 if smoke else 120
    years = tuple(range(2010, 2020)) if smoke else tuple(range(2000, 2020))
    graph = generate_dbpedia(DBPediaConfig(countries=countries, years=years,
                                           seed=9))
    _assert_twin_maintenance_parity(graph)
    engine = QueryEngine(graph)
    reference = ReferenceExecutor(graph)
    columnar = QueryEngine(_columnar_twin(graph))
    for label, query in (("engine_join", JOIN_QUERY),
                         ("engine_aggregate", AGG_QUERY),
                         ("engine_cube", CUBE_QUERY)):
        suite = _run_pair(engine, reference, [engine.prepare(query)],
                          repetitions, columnar, [columnar.prepare(query)])
        suite["dataset"] = {"name": "dbpedia-medium", "triples": len(graph)}
        suites[label] = suite

    # E5-style generated workloads over the three demo datasets, at the
    # scale the paper demo runs them (tiny in smoke runs): demo-scale
    # batches are what separate the storage backends from fixed per-query
    # overhead.
    scale = "tiny" if smoke else "demo"
    workload_size = 8 if smoke else 30
    for name in ("dbpedia", "lubm", "swdf"):
        ds = load_dataset(name, scale)
        _assert_twin_maintenance_parity(ds.graph)
        ds_engine = QueryEngine(ds.graph)
        ds_reference = ReferenceExecutor(ds.graph)
        ds_columnar = QueryEngine(_columnar_twin(ds.graph))
        generator = WorkloadGenerator(
            ds.facet(), ds_engine, WorkloadConfig(size=workload_size, seed=7))
        queries = [q.to_select_query() for q in generator.generate()]
        prepared = [ds_engine.prepare(q) for q in queries]
        col_prepared = [ds_columnar.prepare(q) for q in queries]
        suite = _run_pair(ds_engine, ds_reference, prepared, repetitions,
                          ds_columnar, col_prepared)
        suite["dataset"] = {"name": f"{name}-{scale}",
                            "triples": len(ds.graph)}
        suites[f"workload_{name}"] = suite

    return suites


def assert_disarmed_registry_empty() -> None:
    """Structural zero-overhead check: disabled runs must record nothing.

    Every timing suite above runs with the observability hub disabled;
    if any instrument still accumulated a series, the disarmed fast path
    has regressed from "attribute read + branch" to real work.
    """
    snap = obs_hub().metrics.snapshot()
    leaked = list(snap["counters"]) + list(snap["gauges"]) \
        + list(snap["histograms"])
    if leaked:
        raise AssertionError(
            "disabled instrumentation recorded metric series during the "
            "timing suites: " + ", ".join(leaked))


def observability_probe(smoke: bool) -> dict:
    """One fully instrumented workload pass, dumped into the payload.

    Runs after (and independently of) the timing suites so the hub
    snapshot in ``BENCH_engine.json`` shows live counters and spans
    without contaminating the medians the speedup gates read.
    """
    h = obs_hub()
    h.reset()
    h.enable()
    try:
        ds = load_dataset("swdf", "tiny" if smoke else "small")
        engine = QueryEngine(ds.graph)
        generator = WorkloadGenerator(
            ds.facet(), engine, WorkloadConfig(size=8 if smoke else 20,
                                               seed=7))
        for query in generator.generate():
            engine.query(engine.prepare(query.to_select_query()))
    finally:
        h.disable()
    snapshot = h.snapshot(span_limit=8)
    h.reset()
    return snapshot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI pass: smaller scales and repetitions")
    parser.add_argument("--skip-maintenance", action="store_true",
                        help="omit the maintenance suite (when a separate "
                             "run_maintenance.py invocation covers it)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT,
                                                      "BENCH_engine.json"))
    args = parser.parse_args(argv)

    suites = run_suites(smoke=args.smoke)
    speedups = [s["speedup"] for s in suites.values()]
    columnar_speedups = [s["columnar_vs_dict"] for s in suites.values()
                         if "columnar_vs_dict" in s]
    maintenance_suites = {} if args.skip_maintenance \
        else run_maintenance_suites(smoke=args.smoke)
    maintenance = small_delta_summary(maintenance_suites)
    assert_disarmed_registry_empty()
    observability = observability_probe(smoke=args.smoke)
    payload = {
        "benchmark": "engine",
        "mode": "smoke" if args.smoke else "full",
        "baseline": "seed tuple-at-a-time executor (ReferenceExecutor)",
        "python": sys.version.split()[0],
        "suites": suites,
        "median_speedup": round(statistics.median(speedups), 2),
        "min_speedup": round(min(speedups), 2),
        "observability": observability,
    }
    if columnar_speedups:
        payload["store_backends"] = {
            "baseline": "nested-dict permutation indexes (DictStore)",
            "candidate": "sorted id-array columnar store (ColumnarStore)",
            "columnar_median_speedup": round(
                statistics.median(columnar_speedups), 2),
            "columnar_min_speedup": round(min(columnar_speedups), 2),
        }
    if maintenance_suites:
        payload["maintenance"] = {
            "baseline": "per-view ViewCatalog.refresh full rebuilds",
            "suites": maintenance_suites,
            "small_delta": maintenance,
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(k) for k in list(suites) + list(maintenance_suites))
    print(f"{'suite'.ljust(width)}  batched ms  reference ms  speedup  "
          "columnar ms  vs dict")
    for key, suite in suites.items():
        line = (f"{key.ljust(width)}  {suite['batched_ms']:>10.2f}  "
                f"{suite['reference_ms']:>12.2f}  {suite['speedup']:>6.1f}x")
        if "columnar_vs_dict" in suite:
            line += (f"  {suite['columnar_ms']:>11.2f}  "
                     f"{suite['columnar_vs_dict']:>6.1f}x")
        print(line)
    summary = f"median speedup: {payload['median_speedup']:.1f}x engine"
    if columnar_speedups:
        col_median = payload["store_backends"]["columnar_median_speedup"]
        summary += f", {col_median:.1f}x columnar-vs-dict"
    if maintenance_suites:
        print(f"{'maintenance'.ljust(width)}    patch ms    rebuild ms  "
              "speedup")
        for key, suite in maintenance_suites.items():
            print(f"{key.ljust(width)}  {suite['incremental_ms']:>10.2f}  "
                  f"{suite['rebuild_ms']:>12.2f}  {suite['speedup']:>6.1f}x")
        summary += (f", {maintenance['median_speedup']:.1f}x small-delta "
                    "maintenance")
    print(f"{summary} (written to {os.path.relpath(args.out, REPO_ROOT)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
