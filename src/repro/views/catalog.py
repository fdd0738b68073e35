"""The catalog of materialized views inside an expanded dataset.

The catalog owns the bookkeeping half of the offline module: which views
of which facet are materialized, in which named graph, with what exact
storage footprint.  It is the source of truth the router consults and the
storage-amplification panels read.

There is one way to build a view.  :meth:`ViewCatalog.materialize`,
:meth:`~ViewCatalog.materialize_all`, :meth:`~ViewCatalog.refresh` and
:meth:`~ViewCatalog.refresh_stale` differ only in which views they pick
and which failpoint and counter they own; all four hand their batch (of
one, for the single-view pair) to one transactional helper that takes a
group table from :func:`~repro.cube.rollup.facet_scan`, rolls it up and
encodes each view through
:func:`~repro.views.materializer.materialize_view_from_table`.

The catalog also owns each view's
:class:`~repro.views.materializer.GroupIndex` (:meth:`ViewCatalog.group_index`)
— the one copy every patcher, the auditor and persistence read: written
by a build, edited in place by a patch, dropped with the view or a
rolled-back patch, and scanned from the view graph only when absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at, suppressed
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.rollup import facet_scan, rollup_tables
from ..cube.view import ViewDefinition
from ..sparql.engine import QueryEngine
from .materializer import GroupIndex, materialize_view_from_table

__all__ = ["MaterializedView", "ViewCatalog"]

_LOG = get_logger("views.catalog")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_MATERIALIZED = _REG.counter(
    "views_materialized_total", "views built into the catalog")
_REFRESHES = _REG.counter(
    "views_refreshed_total", "single-view full rebuilds (refresh)")
_QUARANTINE_EVENTS = _REG.counter(
    "views_quarantine_events_total",
    "views pulled from serving pending a rebuild")


@dataclass(frozen=True)
class MaterializedView:
    """A catalog entry: the definition plus its exact materialized footprint.

    Node counts are read on demand (:meth:`ViewCatalog.node_count`), so a
    patch never recounts its graph.  ``base_version`` snapshots the base
    graph's mutation counter at build time; the catalog compares it
    against the current version to detect stale views.
    """

    definition: ViewDefinition
    groups: int
    triples: int
    build_seconds: float
    base_version: int = 0
    maintain_seconds: float = 0.0
    maintain_count: int = 0

    @property
    def mask(self) -> int:
        return self.definition.mask

    @property
    def label(self) -> str:
        return self.definition.label

    @property
    def upkeep_seconds(self) -> float:
        """Observed cost of keeping this view current, per window.

        The *mean* incremental patching cost when the view has any
        maintenance history (a total would penalize long-lived, cheaply
        patched views), the full-rebuild cost otherwise — the
        delta-aware signal the router uses to break ranking ties in
        favour of views that are cheap to keep fresh.
        """
        if self.maintain_count > 0:
            return self.maintain_seconds / self.maintain_count
        return self.build_seconds


class ViewCatalog:
    """Materialized views of one facet, stored as named graphs of a dataset."""

    def __init__(self, dataset: Dataset, engine: QueryEngine | None = None
                 ) -> None:
        self._dataset = dataset
        self._engine = engine if engine is not None \
            else QueryEngine(dataset.default)
        if self._engine.graph.dictionary is not dataset.dictionary:
            # Views are written, patched and audited in the base graph's
            # id-space; a dataset with its own dictionary would read
            # those ids as different terms.
            raise ViewError(
                "the catalog's dataset must share the term dictionary of "
                "the engine's graph (wrap the base graph with "
                "Dataset.wrap)")
        self._entries: dict[int, MaterializedView] = {}
        self._group_indexes: dict[int, GroupIndex] = {}
        # Views the auditor (or a failed rebuild) has pulled from serving:
        # mask → human-readable reason.  Routing skips them like stale
        # views; refresh clears the flag on a successful rebuild.
        self._quarantined: dict[int, str] = {}
        # Set by persistence.load_expanded(recover=True) to describe what
        # survived a corrupted on-disk catalog (a CatalogRecovery).
        self.recovery: object | None = None

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def base_engine(self) -> QueryEngine:
        """Engine over the base graph G (used to build views)."""
        return self._engine

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, view: ViewDefinition) -> bool:
        return view.mask in self._entries

    def __iter__(self) -> Iterator[MaterializedView]:
        for mask in sorted(self._entries):
            yield self._entries[mask]

    # -- mutation ----------------------------------------------------------

    def materialize(self, view: ViewDefinition) -> MaterializedView:
        """Build one view into its named graph and register it."""
        if view.mask in self._entries:
            raise ViewError(f"view {view.label!r} is already materialized")
        return self._build([view])[0]

    def materialize_all(self, views: Iterable[ViewDefinition]
                        ) -> list[MaterializedView]:
        """Materialize a batch of views, atomically, from one scan per facet.

        Each facet's batch takes **one** id-space group table covering
        the union grain from :func:`~repro.cube.rollup.facet_scan` — the
        engine's kept scan when the profiler left one for this graph
        version, else a fresh evaluation — and derives every view from
        that table or from the smallest already-built ancestor.

        If any view fails to materialize, every view the batch already
        built is dropped before the error propagates, so a failed batch
        never leaves the catalog half-registered.  Entries return in
        input order.
        """
        batch = list(views)
        seen: set[int] = set()
        for view in batch:
            if view.mask in self._entries or view.mask in seen:
                raise ViewError(
                    f"view {view.label!r} is already materialized")
            seen.add(view.mask)
        fail_at("catalog.materialize_all")
        with _TRACER.span("catalog.materialize_all", views=len(batch)):
            return self._build(batch)

    # -- the one build path --------------------------------------------------

    def _build(self, batch: list[ViewDefinition]) -> list[MaterializedView]:
        """Snapshot → clear → build → restore-on-failure, for any batch.

        Views already in the catalog are rebuilt *in place* — the named
        graph object is cleared and refilled, never replaced — so query
        engines and other holders of the graph observe the fresh data.
        On any failure (simulated crashes included) every view of the
        batch returns to what it was before the call: graph content from
        an id-space snapshot, catalog entry, and graphs the batch created
        dropped again.  Success lifts the views' quarantines.  Entries
        return in input order.
        """
        saved = []
        for view in batch:
            entry = self._entries.pop(view.mask, None)
            graph = self._dataset.get_graph(view.iri)
            snapshot = None if graph is None else graph.snapshot_ids()
            if entry is not None and graph is not None:
                graph.clear()
            # A rebuild mints fresh group nodes (after a failed one the
            # restored graph is re-scanned on demand).
            self._group_indexes.pop(view.mask, None)
            saved.append((view, entry, graph, snapshot))
        try:
            self._build_from_scans(batch)
        except BaseException:
            with suppressed():
                for view, entry, graph, snapshot in saved:
                    self._entries.pop(view.mask, None)
                    self._group_indexes.pop(view.mask, None)
                    if graph is None:
                        self._dataset.drop(view.iri)
                    else:
                        graph.clear()
                        if snapshot:
                            graph.add_ids_bulk(snapshot)
                    if entry is not None:
                        self._entries[view.mask] = entry
            raise
        for view in batch:
            self._quarantined.pop(view.mask, None)
        return [self._entries[view.mask] for view in batch]

    def _build_from_scans(self, batch: list[ViewDefinition]) -> None:
        """Encode and register a batch, one shared scan per facet."""
        engine = self._engine
        by_facet: dict[AnalyticalFacet, dict[int, ViewDefinition]] = {}
        for view in batch:
            by_facet.setdefault(view.facet, {})[view.mask] = view
        for facet, views_by_mask in by_facet.items():
            plan = ViewLattice.rollup_plan(views_by_mask)
            with _TRACER.span("catalog.rollup_scan", facet=facet.name) as sp:
                scan = facet_scan(engine, facet, plan.table_mask)
                sp.set_tags(groups=len(scan.table), views=len(views_by_mask))
            for mask, table in rollup_tables(facet, plan, scan.table):
                fail_at("catalog.materialize.view")
                view = views_by_mask[mask]
                stats, index = materialize_view_from_table(
                    view, engine, self._dataset.graph(view.iri), table)
                self._entries[mask] = MaterializedView(
                    definition=view,
                    groups=stats.groups,
                    triples=stats.triples,
                    # What a rebuild of this view costs: its own encode
                    # plus an equal share of the measured pattern scan —
                    # charged whether this batch ran the scan or found it
                    # kept, so per-view build costs stay comparable.
                    build_seconds=stats.build_seconds
                    + scan.seconds / len(plan.steps),
                    base_version=engine.graph.version,
                )
                if index is not None:
                    self._group_indexes[mask] = index
                _MATERIALIZED.inc()

    def drop(self, view: ViewDefinition) -> bool:
        """Drop a view's graph, catalog entry, and any quarantine flag."""
        self._entries.pop(view.mask, None)
        self._group_indexes.pop(view.mask, None)
        self._quarantined.pop(view.mask, None)
        return self._dataset.drop(view.iri)

    def drop_all(self) -> None:
        for entry in list(self._entries.values()):
            self.drop(entry.definition)

    # -- lookup ---------------------------------------------------------------

    def get(self, view: ViewDefinition) -> MaterializedView | None:
        return self._entries.get(view.mask)

    def graph_of(self, view: ViewDefinition) -> Graph:
        """The named graph holding a materialized view's triples."""
        graph = self._dataset.get_graph(view.iri)
        if graph is None or view.mask not in self._entries:
            raise ViewError(f"view {view.label!r} is not materialized")
        return graph

    def node_count(self, view: ViewDefinition) -> int:
        """Distinct nodes of a view's graph (cached per graph version)."""
        return self.graph_of(view).node_count()

    def group_index(self, view: ViewDefinition) -> GroupIndex:
        """The view's group index: what its graph stores, keyed by group.

        Every build writes it and the patcher edits it in step with the
        view graph; it is scanned from the graph only when absent (a
        manifest without a usable payload, a dropped index).  Raises
        :class:`ViewError` when the graph is not a complete §3.1
        encoding — such a view cannot be patched, only rebuilt.
        """
        index = self._group_indexes.get(view.mask)
        if index is None:
            index = GroupIndex.from_graph(view, self.graph_of(view))
            self._group_indexes[view.mask] = index
        return index

    def drop_group_index(self, view: ViewDefinition) -> None:
        """Forget an index that may have left step with the view graph."""
        self._group_indexes.pop(view.mask, None)

    def covering(self, required_mask: int) -> list[MaterializedView]:
        """Materialized views able to answer a query with this mask."""
        return [entry for mask, entry in sorted(self._entries.items())
                if (required_mask & mask) == required_mask]

    # -- maintenance -----------------------------------------------------------

    @property
    def base_version(self) -> int:
        """The base graph's current mutation counter."""
        return self._engine.graph.version

    def note_maintained(self, view: ViewDefinition, *, groups: int,
                        triples: int, seconds: float = 0.0
                        ) -> MaterializedView:
        """Record that a view was brought current by incremental patching.

        The entry keeps its original ``build_seconds`` (the full-rebuild
        cost the profiler reasons about) and accumulates patching time in
        ``maintain_seconds``; ``base_version`` snaps to the current base
        graph so the view reads as fresh.
        """
        entry = self._entries.get(view.mask)
        if entry is None:
            raise ViewError(f"view {view.label!r} is not materialized")
        updated = MaterializedView(
            definition=entry.definition,
            groups=groups,
            triples=triples,
            build_seconds=entry.build_seconds,
            base_version=self._engine.graph.version,
            maintain_seconds=entry.maintain_seconds + seconds,
            maintain_count=entry.maintain_count + 1,
        )
        self._entries[view.mask] = updated
        return updated

    def is_stale(self, view: ViewDefinition) -> bool:
        """True when the base graph changed after this view was built.

        Staleness is conservative: any base mutation marks every view
        stale, even mutations that cannot affect the facet pattern.
        """
        entry = self._entries.get(view.mask)
        if entry is None:
            raise ViewError(f"view {view.label!r} is not materialized")
        return entry.base_version != self._engine.graph.version

    def stale_views(self) -> list[MaterializedView]:
        """All catalog entries whose base graph has moved on."""
        current = self._engine.graph.version
        return [entry for entry in self if entry.base_version != current]

    # -- quarantine (degraded serving) --------------------------------------

    def quarantine(self, view: ViewDefinition, reason: str) -> None:
        """Pull a materialized view from serving until it is rebuilt.

        Quarantined views are skipped by the router exactly like stale
        ones; queries that would have used them fall back to the base
        graph (flagged ``degraded``) and the next maintenance cycle or
        :meth:`refresh_stale` rebuilds them.
        """
        if view.mask not in self._entries:
            raise ViewError(f"view {view.label!r} is not materialized")
        self._quarantined[view.mask] = reason
        # Counter and quarantine map move together:
        # tests/test_fault_schedule.py cross-checks this count against
        # observed reports.
        _QUARANTINE_EVENTS.inc()
        _LOG.warning("quarantined view %s: %s", view.label, reason)

    def clear_quarantine(self, view: ViewDefinition) -> bool:
        """Return a view to serving; True when it was quarantined."""
        return self._quarantined.pop(view.mask, None) is not None

    def is_quarantined(self, view: ViewDefinition) -> bool:
        return view.mask in self._quarantined

    def quarantine_reason(self, view: ViewDefinition) -> str | None:
        return self._quarantined.get(view.mask)

    def quarantined_views(self) -> list[ViewDefinition]:
        """Definitions of all quarantined views, in mask order."""
        return [self._entries[mask].definition
                for mask in sorted(self._quarantined)
                if mask in self._entries]

    def refresh(self, view: ViewDefinition) -> MaterializedView:
        """Rebuild one view against the current base graph, atomically.

        In place and all-or-nothing like every build (:meth:`_build`): a
        rebuild that fails partway restores the previous view content
        and catalog entry before the error propagates, so the catalog
        never serves a half-built graph.  A successful rebuild lifts any
        quarantine on the view.
        """
        if view.mask not in self._entries:
            raise ViewError(f"view {view.label!r} is not materialized")
        fail_at("catalog.refresh")
        with _TRACER.span("catalog.refresh", view=view.label):
            entry = self._build([view])[0]
        _REFRESHES.inc()
        return entry

    def refresh_stale(self) -> list[MaterializedView]:
        """Rebuild every stale or quarantined view as one batch, atomically.

        One shared scan per facet instead of one per view, and the same
        in-place, all-or-nothing contract as :meth:`refresh`: a mid-batch
        failure leaves the catalog exactly as it found it, a successful
        batch lifts all quarantines on the rebuilt views.  Returns the
        refreshed entries.
        """
        fail_at("catalog.refresh_stale")
        current = self._engine.graph.version
        pending = [entry.definition for entry in self
                   if entry.base_version != current
                   or entry.mask in self._quarantined]
        if not pending:
            return []
        with _TRACER.span("catalog.refresh_stale", views=len(pending)):
            return self._build(pending)

    # -- storage accounting -------------------------------------------------------

    @property
    def total_triples(self) -> int:
        """Extra triples stored by all materialized views together."""
        return sum(entry.triples for entry in self._entries.values())

    @property
    def total_build_seconds(self) -> float:
        return sum(entry.build_seconds for entry in self._entries.values())

    def storage_amplification(self) -> float:
        """|G+| / |G| — the space-amplification shown in the demo GUI."""
        base = len(self._dataset.default)
        if base == 0:
            return 0.0
        return (base + self.total_triples) / base

    def __repr__(self) -> str:
        labels = ", ".join(e.label for e in self)
        return f"<ViewCatalog [{labels}] {self.total_triples} extra triples>"
