"""The four GUI panels of Figure 3, rendered as text.

① full-lattice view  ② cost-function selection  ③ materialized-lattice
view  ④ query-performance analyzer — plus the configuration screen and
the per-view data inspector the demo walkthrough uses.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import ObservabilityHub
from ..rdf.namespace import default_prefixes
from ..rdf.turtle import serialize_turtle
from ..cube.lattice import ViewLattice
from ..cost.base import CostModel
from ..cost.profiler import LatticeProfile
from ..core.metrics import WorkloadRun
from ..core.report import ComparisonReport, format_table
from ..datasets.catalog import DATASET_NAMES, LoadedDataset, dataset_spec
from ..selection.plans import SelectionResult
from ..selection.problem import SelectionProblem
from ..views.catalog import ViewCatalog
from .lattice_render import render_lattice

__all__ = [
    "panel_configuration", "panel_full_lattice", "panel_cost_functions",
    "panel_materialized_lattice", "panel_observability",
    "panel_performance", "panel_query_characteristics", "panel_view_data",
]


def _section(title: str, body: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"{title}\n{bar}\n{body}\n"


def panel_configuration(loaded: LoadedDataset | None = None) -> str:
    """The configuration step: datasets, facets, and their templates."""
    if loaded is None:
        lines = ["Available datasets:"]
        for name in DATASET_NAMES:
            spec = dataset_spec(name)
            lines.append(f"  {name}: {spec.description}")
            for facet in spec.facets:
                lines.append(f"      facet {facet.name}: {facet.description}")
        return _section("Configuration", "\n".join(lines))
    lines = [f"dataset: {loaded.name} (scale={loaded.scale})",
             f"triples: {len(loaded.graph)}",
             ""]
    for name, facet in sorted(loaded.facets.items()):
        dims = ", ".join(f"?{v.name}" for v in facet.grouping_variables)
        lines.append(f"facet {name} — {facet.description}")
        lines.append(f"  X = [{dims}]   agg = {facet.aggregate.name}   "
                     f"lattice = {facet.lattice_size} views")
    return _section("Configuration", "\n".join(lines))


def panel_full_lattice(lattice: ViewLattice, profile: LatticeProfile) -> str:
    """① the full materialized lattice with per-level statistics."""
    drawing = render_lattice(lattice, profile)
    rows = []
    for level_profiles in profile.by_level():
        if not level_profiles:
            continue
        level = level_profiles[0].level
        rows.append([
            str(level),
            str(len(level_profiles)),
            str(sum(p.rows for p in level_profiles)),
            str(sum(p.triples for p in level_profiles)),
            f"{sum(p.eval_seconds for p in level_profiles) * 1000:.1f}",
        ])
    table = format_table(
        ("level", "views", "groups", "triples", "build ms"), rows,
        align_right=[True] * 5)
    amplification = profile.full_lattice_amplification()
    footer = (f"\nfull lattice: {profile.total_triples()} extra triples "
              f"({amplification:.2f}x storage amplification) — why "
              "materializing everything is impractical")
    return _section("① Full lattice view", drawing + "\n\n" + table + footer)


def panel_cost_functions(lattice: ViewLattice, profile: LatticeProfile,
                         models: Sequence[CostModel]) -> str:
    """② per-view costs under each cost model."""
    priced = [SelectionProblem(lattice, profile, model) for model in models]
    headers = ["view"] + [problem.cost_model for problem in priced]
    rows = [[view.label] + [f"{problem.costs[view.mask]:.1f}"
                            for problem in priced] for view in lattice]
    rows.append(["(base graph)"]
                + [f"{problem.base_cost:.1f}" for problem in priced])
    table = format_table(headers, rows,
                         align_right=[False] + [True] * len(models))
    return _section("② Cost function selection", table)


def panel_materialized_lattice(lattice: ViewLattice, profile: LatticeProfile,
                               selection: SelectionResult,
                               catalog: ViewCatalog) -> str:
    """③ the lattice with the selected views starred + storage report."""
    from ..rdf.memory import graph_memory_bytes
    drawing = render_lattice(lattice, profile,
                             selected_masks=[v.mask for v in selection.views])
    rows = []
    view_bytes = 0
    for entry in catalog:
        graph = catalog.graph_of(entry.definition)
        kib = graph_memory_bytes(graph) / 1024.0
        view_bytes += kib
        rows.append([entry.label, str(entry.groups), str(entry.triples),
                     str(catalog.node_count(entry.definition)), f"{kib:.1f}",
                     f"{entry.build_seconds * 1000:.1f}"])
    table = format_table(
        ("view", "groups", "triples", "nodes", "mem KiB", "build ms"),
        rows, align_right=[False] + [True] * 5)
    base_kib = graph_memory_bytes(catalog.dataset.default) / 1024.0
    footer = (f"\nselection: {selection.describe()}\n"
              f"storage amplification: {catalog.storage_amplification():.3f}x"
              f"  (base graph {base_kib:.0f} KiB + views {view_bytes:.0f} KiB)")
    return _section("③ Materialized lattice view",
                    drawing + "\n\n" + table + footer)


def panel_performance(report: ComparisonReport) -> str:
    """④ the query-performance analyzer across cost models."""
    return _section("④ Query performance analyzer", report.render())


def panel_workload_detail(run: WorkloadRun, title: str = "workload") -> str:
    """Per-view routing breakdown of one workload run."""
    rows = []
    for view_label, count in sorted(run.by_view().items(),
                                    key=lambda kv: -kv[1]):
        rows.append([view_label if view_label is not None else "(base graph)",
                     str(count)])
    table = format_table(("answered by", "queries"), rows,
                         align_right=[False, True])
    summary = (f"total {run.total_seconds * 1000:.1f} ms over {len(run)} "
               f"queries, hit rate {run.hit_rate * 100:.0f}%")
    return _section(f"Workload detail: {title}", summary + "\n" + table)


def panel_query_characteristics(run: WorkloadRun,
                                max_rows: int = 25) -> str:
    """Per-query characteristics table (grouping level, filters, routing)."""
    rows = []
    for record in run.characteristics()[:max_rows]:
        flags = "+".join(flag for flag in ("stale", "degraded")
                         if record[flag]) or "-"
        rows.append([
            str(record["query"])[:60],
            str(record["group_level"]) if record["group_level"] is not None
            else "-",
            str(record["filters"]),
            str(record["answered_by"]),
            str(record["rows"]),
            f"{record['ms']:.2f}",
            flags,
        ])
    table = format_table(
        ("query", "level", "filters", "answered by", "rows", "ms", "flags"),
        rows, align_right=[False, True, True, False, True, True, False])
    return _section("Query characteristics", table)


def _hit_rate_row(label: str, hits: int, misses: int) -> list[str]:
    total = hits + misses
    rate = f"{hits / total * 100:.0f}%" if total else "-"
    return [label, str(hits), str(misses), rate]


def panel_observability(hub: ObservabilityHub, max_spans: int = 6) -> str:
    """Metrics and trace summary from the unified observability layer."""
    reg = hub.metrics
    parts: list[str] = []

    latency = reg.get("online_query_seconds")
    if latency is not None and latency._series:
        rows = []
        for key, series in latency.labeled_series():
            rows.append([
                key[0] if key else "(all)",
                str(series.count),
                f"{series.sum / series.count * 1000:.2f}",
                f"{latency.percentile(0.50, key) * 1000:.2f}",
                f"{latency.percentile(0.95, key) * 1000:.2f}",
                f"{latency.percentile(0.99, key) * 1000:.2f}",
            ])
        parts.append("Query latency by route:\n" + format_table(
            ("route", "queries", "mean ms", "p50 ms", "p95 ms", "p99 ms"),
            rows, align_right=[False] + [True] * 5))

    cache_rows = [
        _hit_rate_row("BGP plan cache",
                      reg.counter_total("engine_bgp_plan_cache_hits_total"),
                      reg.counter_total("engine_bgp_plan_cache_misses_total")),
        _hit_rate_row("prepared queries",
                      reg.counter_total("engine_prepared_cache_hits_total"),
                      reg.counter_total("engine_prepared_cache_misses_total")),
        _hit_rate_row("serving plans",
                      reg.counter_total("serving_plan_cache_hits_total"),
                      reg.counter_total("serving_plan_cache_misses_total")),
        _hit_rate_row("decode memo",
                      reg.counter_total("engine_decode_memo_hits_total"),
                      reg.counter_total("engine_decode_memo_misses_total")),
        # misses = facet pattern scans the offline phases actually ran
        _hit_rate_row("facet scan",
                      reg.value("facet_scan_total", ("reuse",)),
                      reg.value("facet_scan_total", ("scan",))),
    ]
    parts.append("Cache efficiency:\n" + format_table(
        ("cache", "hits", "misses", "rate"), cache_rows,
        align_right=[False, True, True, True]))

    storage_rows = [
        ["probe rows", str(reg.counter_total("engine_probe_rows_total"))],
        ["distinct probe keys",
         str(reg.counter_total("engine_probe_keys_total"))],
    ]
    bulk = reg.get("engine_probe_bulk_total")
    if bulk is not None:
        for key, count in bulk.labeled_series():
            storage_rows.append([f"bulk kernel probes [{key[0]}]",
                                 str(count)])
    storage_rows.append(
        ["store compactions",
         str(reg.counter_total("store_compactions_total"))])
    compaction = reg.get("store_compaction_seconds")
    if compaction is not None:
        seconds = sum(series.sum for _, series in compaction.labeled_series())
        storage_rows.append(["store compaction ms", f"{seconds * 1e3:.2f}"])
    parts.append("Storage engine:\n" + format_table(
        ("probe/kernel", "count"), storage_rows,
        align_right=[False, True]))

    decisions = reg.get("maintenance_decisions_total")
    decision_rows = []
    if decisions is not None:
        for key, count in decisions.labeled_series():
            decision_rows.append([key[0], key[1], str(count)])
    if decision_rows:
        parts.append("Maintenance decisions:\n" + format_table(
            ("action", "reason", "views"), decision_rows,
            align_right=[False, False, True]))

    health = [
        ("maintenance windows",
         reg.counter_total("maintenance_windows_total")),
        ("patch rollbacks", reg.counter_total("maintenance_rollbacks_total")),
        ("changelog truncations",
         reg.counter_total("maintenance_changelog_truncations_total")),
        ("stale answers", reg.counter_total("online_stale_answers_total")),
        ("degraded answers",
         reg.counter_total("online_degraded_answers_total")),
        ("quarantine events",
         reg.counter_total("views_quarantine_events_total")),
        ("audit passes", reg.counter_total("audit_runs_total")),
        ("corrupt views found",
         reg.counter_total("audit_corrupt_views_total")),
        ("failpoints fired",
         reg.counter_total("resilience_failpoints_fired_total")),
    ]
    parts.append("Serving & maintenance health:\n" + format_table(
        ("event", "count"), [[n, str(v)] for n, v in health],
        align_right=[False, True]))

    spans = hub.tracer.recent(max_spans)
    if spans:
        rendered = "\n".join(span.render() for span in reversed(spans))
        parts.append(f"Recent traces (newest last):\n{rendered}")

    state = []
    state.append("metrics " + ("on" if reg.enabled else "off"))
    state.append("tracing " + ("on" if hub.tracer.enabled else "off"))
    return _section("Observability", ", ".join(state) + "\n\n"
                    + "\n\n".join(parts))


def panel_view_data(catalog: ViewCatalog, label: str,
                    max_triples: int = 30) -> str:
    """The node inspector: the RDF stored for one materialized view."""
    for entry in catalog:
        if entry.label == label:
            graph = catalog.graph_of(entry.definition)
            text = serialize_turtle(graph, default_prefixes())
            lines = text.splitlines()
            if len(lines) > max_triples:
                lines = lines[:max_triples] + [
                    f"# ... ({len(graph)} triples total)"]
            return _section(f"View data: {label}", "\n".join(lines))
    available = ", ".join(e.label for e in catalog) or "(none)"
    return _section(f"View data: {label}",
                    f"view not materialized; available: {available}")
