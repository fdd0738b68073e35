"""Maintenance benchmark: incremental view patching vs full rebuilds.

For each demo dataset the suite builds two identical worlds — one
maintained incrementally through a :class:`ViewMaintainer`, one by
per-view ``ViewCatalog.refresh()`` full rebuilds — applies the same
deterministic insert/delete stream to both, and times each side's
reconciliation per batch.  Parity between the two worlds' view graphs is
asserted (up to blank-node labels) before any timing is trusted.

The rebuild side deliberately refreshes view by view rather than through
``refresh_stale()``: ``refresh(view)`` is a batch of one — its own facet
scan, rollup and encode — while ``refresh_stale`` shares one scan across
the batch, which would silently change this suite's baseline; per-view
refresh keeps the "rebuild each stale view from scratch" cost the
incremental numbers have always been compared against.

Writes ``BENCH_maintenance.json`` at the repo root: per dataset × delta
size, the median per-batch patch and rebuild times plus their ratio, and
a ``small_delta`` summary over the streams touching ≤ 1% of the base
graph — the headline number the maintenance PR is gated on (≥ 5× on at
least two datasets).

Usage::

    PYTHONPATH=src python benchmarks/run_maintenance.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.cube import ViewLattice
from repro.datasets import load_dataset
from repro.rdf import Dataset
from repro.views import ViewCatalog, ViewMaintainer
from repro.workload import UpdateStreamConfig, UpdateStreamGenerator

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Streams at or below this fraction of the base graph count as
#: "small delta" for the headline summary.
SMALL_DELTA_FRACTION = 0.01

#: Average triples one update operation touches (entity stars run 3-6
#: triples); used to convert a target delta fraction into operation counts.
_TRIPLES_PER_OPERATION = 4


def group_signatures(graph):
    """Multiset of per-group (p, o) signatures — blank-label-free equality."""
    by_node: dict = {}
    for t in graph:
        by_node.setdefault(t.s, []).append((t.p, t.o))
    signatures: dict[frozenset, int] = {}
    for po in by_node.values():
        key = frozenset(po)
        signatures[key] = signatures.get(key, 0) + 1
    return signatures


def _build_world(graph, facet, view_count: int):
    """A catalog over ``graph`` with up to ``view_count`` lattice views."""
    catalog = ViewCatalog(Dataset.wrap(graph))
    lattice = ViewLattice(facet)
    views = [lattice.finest, lattice.apex]
    views += [v for v in lattice if v not in (lattice.finest, lattice.apex)]
    views = views[:view_count]
    for view in views:
        catalog.materialize(view)
    return catalog, views


def run_stream(dataset_name: str, scale: str, delta_fraction: float,
               batches: int, view_count: int = 3, seed: int = 11) -> dict:
    """Time one insert/delete stream through both maintenance paths."""
    loaded = load_dataset(dataset_name, scale)
    facet = loaded.facet()
    base = loaded.graph
    shadow = base.copy()

    incremental_catalog, views = _build_world(base, facet, view_count)
    rebuild_catalog, _ = _build_world(shadow, facet, view_count)
    maintainer = ViewMaintainer(incremental_catalog)

    operations = max(1, round(len(base) * delta_fraction
                              / _TRIPLES_PER_OPERATION))
    generator = UpdateStreamGenerator(base, UpdateStreamConfig(
        batches=batches, operations_per_batch=operations, seed=seed))

    patch_times: list[float] = []
    rebuild_times: list[float] = []
    delta_sizes: list[int] = []
    fallbacks = 0
    for batch in generator.stream(apply=False):
        added, removed = batch.apply_to(base)
        batch.apply_to(shadow)
        delta_sizes.append(added + removed)

        start = time.perf_counter()
        report = maintainer.synchronize()
        patch_times.append(time.perf_counter() - start)
        fallbacks += len(report.rebuilt)

        start = time.perf_counter()
        for entry in rebuild_catalog.stale_views():
            rebuild_catalog.refresh(entry.definition)
        rebuild_times.append(time.perf_counter() - start)

        for view in views:
            got = group_signatures(incremental_catalog.graph_of(view))
            want = group_signatures(rebuild_catalog.graph_of(view))
            if got != want:
                raise AssertionError(
                    f"maintenance divergence: {dataset_name} view "
                    f"{view.label} after batch {batch.index}")

    patch_ms = statistics.median(patch_times) * 1e3
    rebuild_ms = statistics.median(rebuild_times) * 1e3
    return {
        "dataset": {"name": f"{dataset_name}-{scale}",
                    "triples": len(base)},
        "views": [v.label for v in views],
        "batches": batches,
        "delta_fraction": delta_fraction,
        "delta_triples_median": int(statistics.median(delta_sizes)),
        "incremental_ms": round(patch_ms, 3),
        "rebuild_ms": round(rebuild_ms, 3),
        "speedup": round(rebuild_ms / patch_ms, 2) if patch_ms else 0.0,
        "fallback_rebuilds": fallbacks,
    }


def run_suites(smoke: bool = False) -> dict:
    scale = "tiny" if smoke else "demo"
    batches = 2 if smoke else 5
    fractions = (0.01,) if smoke else (0.002, 0.01, 0.05)
    suites: dict[str, dict] = {}
    for name in ("dbpedia", "lubm", "swdf"):
        for fraction in fractions:
            suite = run_stream(name, scale, fraction, batches)
            suites[f"{name}@{fraction:g}"] = suite
    return suites


def small_delta_summary(suites: dict) -> dict:
    """Per-dataset median speedup over the ≤ 1%-of-base streams."""
    per_dataset: dict[str, list[float]] = {}
    for suite in suites.values():
        if suite["delta_fraction"] > SMALL_DELTA_FRACTION:
            continue
        name = suite["dataset"]["name"].split("-")[0]
        per_dataset.setdefault(name, []).append(suite["speedup"])
    medians = {name: round(statistics.median(values), 2)
               for name, values in per_dataset.items()}
    return {
        "threshold_fraction": SMALL_DELTA_FRACTION,
        "per_dataset_speedup": medians,
        "median_speedup": round(statistics.median(medians.values()), 2)
        if medians else 0.0,
        "datasets_at_5x": sum(1 for s in medians.values() if s >= 5.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI pass: tiny scales, fewer batches")
    parser.add_argument("--out", default=os.path.join(
        REPO_ROOT, "BENCH_maintenance.json"))
    args = parser.parse_args(argv)

    # Metrics (not spans) stay on for the whole run so the dump shows the
    # maintenance counters this benchmark exercises; both sides of every
    # patch-vs-rebuild pair pay the same (cold-path) instrumentation.
    from repro.obs import hub as obs_hub
    h = obs_hub()
    h.reset()
    h.enable(tracing=False)
    try:
        suites = run_suites(smoke=args.smoke)
    finally:
        h.disable()
    summary = small_delta_summary(suites)
    payload = {
        "benchmark": "maintenance",
        "mode": "smoke" if args.smoke else "full",
        "baseline": "per-view ViewCatalog.refresh full rebuilds",
        "python": sys.version.split()[0],
        "suites": suites,
        "small_delta": summary,
        "observability": h.snapshot(),
    }
    h.reset()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(k) for k in suites)
    print(f"{'stream'.ljust(width)}  Δtriples  patch ms  rebuild ms  speedup")
    for key, suite in suites.items():
        print(f"{key.ljust(width)}  {suite['delta_triples_median']:>8}  "
              f"{suite['incremental_ms']:>8.2f}  "
              f"{suite['rebuild_ms']:>10.2f}  {suite['speedup']:>6.1f}x")
    print(f"small-delta (≤{SMALL_DELTA_FRACTION:.0%}) median speedup: "
          f"{summary['median_speedup']:.1f}x across "
          f"{summary['datasets_at_5x']} dataset(s) ≥ 5x "
          f"(written to {os.path.relpath(args.out, REPO_ROOT)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
