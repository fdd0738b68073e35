"""The consistency auditor: cross-checking views against ground truth.

A half-patched or bit-flipped view graph is worse than a stale one — it
answers *wrong*, not merely old.  The auditor recomputes each fresh
view's aggregation from the current base graph and compares it, group by
group (all groups or a seeded sample), with what the view graph actually
stores and with the catalog's
:class:`~repro.views.materializer.GroupIndex` of it.  Views that fail are
quarantined on the catalog: the router stops serving them (queries fall
back to the base graph, flagged ``degraded``) and the next maintenance
cycle or ``refresh_stale`` rebuilds them.

Stale views are skipped, not audited — they legitimately disagree with
the current base graph until maintenance runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExpressionError, ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.namespace import SOFOS
from ..rdf.terms import Term
from ..cube.view import COUNT_VAR, MEASURE_VAR, SUM_VAR, ViewDefinition
from ..sparql.values import to_number
from ..views.catalog import MaterializedView, ViewCatalog
from ..views.materializer import GroupIndex, dimension_predicate

__all__ = ["ViewAudit", "AuditReport", "ConsistencyAuditor"]

_LOG = get_logger("resilience.audit")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_AUDIT_RUNS = _REG.counter(
    "audit_runs_total", "full consistency-audit passes over the catalog")
_AUDIT_CORRUPT = _REG.counter(
    "audit_corrupt_views_total", "views an audit found corrupt")


@dataclass(frozen=True)
class ViewAudit:
    """The audit outcome for one materialized view."""

    label: str
    status: str                    # "ok" | "skipped" | "corrupt"
    issues: tuple[str, ...] = ()
    groups_checked: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class AuditReport:
    """Aggregated outcome of one :meth:`ConsistencyAuditor.audit` pass."""

    results: list[ViewAudit] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> list[ViewAudit]:
        return [r for r in self.results if r.status == "ok"]

    @property
    def corrupt(self) -> list[ViewAudit]:
        return [r for r in self.results if r.status == "corrupt"]

    @property
    def skipped(self) -> list[ViewAudit]:
        return [r for r in self.results if r.status == "skipped"]

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def __repr__(self) -> str:
        return (f"<AuditReport {len(self.ok)} ok, {len(self.corrupt)} "
                f"corrupt, {len(self.skipped)} skipped>")


def _comparable(term: Optional[Term]):
    """A comparison key tolerant of numeric-representation differences."""
    if term is None:
        return None
    try:
        return to_number(term)
    except ExpressionError:
        return term


def _describe_key(key: tuple) -> str:
    if not key:
        return "()"
    return "(" + ", ".join("∅" if t is None else t.n3() for t in key) + ")"


class ConsistencyAuditor:
    """Verifies materialized views against recomputed ground truth.

    ``sample_groups`` bounds the per-group comparison work: when set, at
    most that many group keys (drawn by a ``seed``-deterministic sample)
    are compared in detail; group-count totals and the stored-encoding
    shape are always checked in full.  The third leg cross-checks the
    catalog's group index against the view graph, catching index drift
    before it corrupts a future patch.
    """

    def __init__(self, catalog: ViewCatalog, *,
                 sample_groups: int | None = None, seed: int = 0) -> None:
        self._catalog = catalog
        self._sample_groups = sample_groups
        self._seed = seed

    def audit(self, quarantine: bool = True) -> AuditReport:
        """Audit every catalog view; optionally quarantine the corrupt ones."""
        with _TRACER.span("audit.run") as sp:
            report = self._audit(quarantine)
            sp.set_tags(ok=len(report.ok), corrupt=len(report.corrupt),
                        skipped=len(report.skipped),
                        quarantined=len(report.quarantined))
        _AUDIT_RUNS.inc()
        if _REG.enabled and report.corrupt:
            _AUDIT_CORRUPT.inc(len(report.corrupt))
        return report

    def _audit(self, quarantine: bool) -> AuditReport:
        report = AuditReport()
        current = self._catalog.base_version
        for entry in self._catalog:
            view = entry.definition
            if self._catalog.is_quarantined(view):
                report.results.append(ViewAudit(
                    label=view.label, status="skipped",
                    issues=("already quarantined",)))
                continue
            if entry.base_version != current:
                report.results.append(ViewAudit(
                    label=view.label, status="skipped",
                    issues=("stale (pending maintenance)",)))
                continue
            result = self.audit_view(entry)
            report.results.append(result)
            if result.status == "corrupt":
                _LOG.warning("audit found view %s corrupt: %s",
                             view.label, "; ".join(result.issues))
            if result.status == "corrupt" and quarantine:
                self._catalog.quarantine(view, "; ".join(result.issues))
                report.quarantined.append(view.label)
        return report

    def audit_view(self, entry: MaterializedView) -> ViewAudit:
        """Audit one view: graph vs recomputed truth vs group index."""
        start = time.perf_counter()
        view = entry.definition
        graph = self._catalog.graph_of(view)
        issues: list[str] = []

        stored = self._scan_view(view, graph, issues)
        expected = self._recompute(view)

        if len(stored) != len(expected):
            issues.append(
                f"group count mismatch: view stores {len(stored)} groups, "
                f"recomputation expects {len(expected)}")

        all_keys = sorted(set(stored) | set(expected), key=_describe_key)
        if self._sample_groups is not None \
                and len(all_keys) > self._sample_groups:
            rng = random.Random(self._seed)
            checked = rng.sample(all_keys, self._sample_groups)
        else:
            checked = all_keys
        for key in checked:
            have = stored.get(key)
            want = expected.get(key)
            if have is None:
                issues.append(f"missing group {_describe_key(key)}")
                continue
            if want is None:
                issues.append(f"phantom group {_describe_key(key)}")
                continue
            have_value, have_count = have
            want_value, want_count = want
            if _comparable(have_count) != _comparable(want_count):
                issues.append(
                    f"group {_describe_key(key)}: stored count "
                    f"{have_count.n3() if have_count else '∅'} != expected "
                    f"{want_count.n3() if want_count else '∅'}")
            if _comparable(have_value) != _comparable(want_value):
                issues.append(
                    f"group {_describe_key(key)}: stored aggregate "
                    f"{have_value.n3() if have_value else '∅'} != expected "
                    f"{want_value.n3() if want_value else '∅'}")

        self._check_index(view, graph, issues)

        return ViewAudit(
            label=view.label,
            status="corrupt" if issues else "ok",
            issues=tuple(issues),
            groups_checked=len(checked),
            seconds=time.perf_counter() - start,
        )

    # -- the three legs ------------------------------------------------------

    def _scan_view(self, view: ViewDefinition, graph,
                   issues: list[str]) -> dict:
        """Decode the view graph's §3.1 encoding, tolerantly.

        Returns group key terms → (value term or None, count term).
        Structural violations (multiple values under one predicate,
        missing counts, duplicate keys, triples outside the encoding)
        land in ``issues`` rather than raising — a tampered graph must
        be *reported*, not crash the auditor.
        """
        is_avg = view.facet.aggregate.name == "AVG"
        value_pred = SOFOS.sum if is_avg else SOFOS.measure
        dim_preds = [dimension_predicate(v) for v in view.variables]
        stored: dict[tuple, tuple[Optional[Term], Optional[Term]]] = {}
        nodes = [t.s for t in graph.triples(p=SOFOS.view, o=view.iri)]
        accounted = 0
        for node in nodes:
            accounted += graph.count(s=node)
            key_parts = []
            for pred in dim_preds:
                values = list(graph.objects(node, pred))
                if len(values) > 1:
                    issues.append(
                        "group node stores multiple values for dimension "
                        + pred.n3())
                key_parts.append(values[0] if values else None)
            values = list(graph.objects(node, value_pred))
            if len(values) > 1:
                issues.append("group node stores multiple aggregates under "
                              + value_pred.n3())
            value = values[0] if values else None
            counts = list(graph.objects(node, SOFOS.groupCount))
            if len(counts) != 1:
                issues.append(f"group node stores {len(counts)} "
                              "sofos:groupCount values (expected 1)")
            count = counts[0] if counts else None
            key = tuple(key_parts)
            if key in stored:
                issues.append(f"duplicate group key {_describe_key(key)}")
                continue
            stored[key] = (value, count)
        if accounted != len(graph):
            issues.append(
                f"view graph holds {len(graph) - accounted} triple(s) "
                "outside the §3.1 group encoding")
        return stored

    def _recompute(self, view: ViewDefinition) -> dict:
        """Ground truth: re-run the materialization query on the base graph."""
        is_avg = view.facet.aggregate.name == "AVG"
        value_var = SUM_VAR if is_avg else MEASURE_VAR
        engine = self._catalog.base_engine
        table = engine.query(view.materialization_query())
        dim_idx = [table.variables.index(v) for v in view.variables]
        value_idx = table.variables.index(value_var)
        count_idx = table.variables.index(COUNT_VAR)
        expected: dict[tuple, tuple[Optional[Term], Optional[Term]]] = {}
        for row in table:
            key = tuple(row[i] for i in dim_idx)
            expected[key] = (row[value_idx], row[count_idx])
        return expected

    def _check_index(self, view: ViewDefinition, graph,
                     issues: list[str]) -> None:
        """Cross-check the catalog's group index with a scan of the graph."""
        def states(index: GroupIndex) -> dict:
            return {key: (s.node_id, s.count_id, s.value_id)
                    for key, s in index.groups.items()}

        try:
            held = states(self._catalog.group_index(view))
        except ViewError:
            return  # not patchable, so no index to drift (legs 1-2 judge it)
        try:
            drift = held != states(GroupIndex.from_graph(view, graph))
        except ViewError:
            drift = True
        if drift:
            issues.append("cached group index drifted from the view graph")
