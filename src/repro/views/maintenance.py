"""Incremental view maintenance: group-level patching of materialized views.

A :class:`ViewMaintainer` subscribes to the base graph's change log
(:meth:`Graph.subscribe`) and brings stale views current one drained
window at a time.  A window is the same data a build is made of: the
delta evaluator (:mod:`repro.sparql.delta`) folds it into a *signed*
finest-grain :class:`~repro.sparql.grouptable.GroupTable`, the stale
views' grains derive from it through the cheapest-ancestor rollup walk
the builder and the profiler use (:func:`~repro.cube.rollup.rollup_tables`),
and each view's table is merged into its stored groups as *surgical
edits* — swapping the ``sofos:measure`` / ``sofos:sum`` /
``sofos:groupCount`` literals of changed groups, minting a group node
when a group first appears, deleting it when its count reaches zero —
all encoded by the builder's :class:`~repro.views.materializer.GroupCodec`,
so a patched view graph equals a freshly rebuilt one up to blank-node
labels and value-equal measure literals: a MIN/MAX keeps its stored term
when an inserted one ties it by value (``1`` vs ``"01"``), and a SUM/AVG
literal's datatype follows the running number (``"3"`` vs ``"3.0"``).

The merge reads and edits the view's
:class:`~repro.views.materializer.GroupIndex`, which the catalog owns
(:meth:`ViewCatalog.group_index`): the maintainer holds no copy, so any
number of maintainers, out-of-band rebuilds and audits see one truth.

When a window is not incrementalizable — the change log truncated
(``clear()`` or overflow), the facet's shape is outside the
delta-evaluable class, MIN/MAX facets saw deletions, the delta exceeds a
size threshold, a changed row's operand is unbound or not a number, or
the group index contradicts the window — the view is
*declined* with the reason, and every declined or quarantined view of the
pass is rebuilt by one ``ViewCatalog.refresh_stale()``: one scan per
facet.  If that batch fails the catalog has already restored every view
of it, and all of them are quarantined until the next pass retries the
batch whole.

The maintainer owns the maintenance policy (:data:`MAINTENANCE_POLICIES`),
so every window passes through it whatever the policy: ``rebuild``
declines each stale view with the reason ``"rebuild policy"`` into that
same batch, ``incremental`` patches, and ``deferred`` patches too but
only when asked — :meth:`ViewMaintainer.repair`, the hook an answer
calls on routing a stale view, does nothing under it.

A window (:meth:`ViewMaintainer.synchronize`) is one burst
(:mod:`repro.collector`): the cyclic collector stays paused from the
drain to the report, and resumes on any exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..collector import collecting, pause, resume
from ..errors import ViewError
from ..obs import get_logger
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..resilience.failpoints import fail_at, suppressed
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.rollup import rollup_tables
from ..sparql.delta import DeltaEvaluator, compile_delta_plan
from ..sparql.grouptable import KIND_MINMAX, GroupTable
from ..sparql.values import order_key
from .catalog import MaterializedView, ViewCatalog
from .materializer import GroupCodec, GroupIndex

__all__ = ["MAINTENANCE_POLICIES", "PATCH_RETRIES",
           "PATCH_RETRY_BACKOFF_SECONDS", "ViewMaintenance",
           "MaintenanceReport", "ViewMaintainer", "check_policy"]

#: How a system owner asks for stale views to be reconciled:
#: ``rebuild`` re-materializes from scratch, ``incremental`` patches
#: group-level deltas eagerly at answer/maintain time, ``deferred`` serves
#: the frozen snapshot and patches only on explicit ``maintain()`` calls.
MAINTENANCE_POLICIES = ("rebuild", "incremental", "deferred")


def check_policy(policy: str) -> str:
    """``policy`` if it is one of :data:`MAINTENANCE_POLICIES`."""
    if policy not in MAINTENANCE_POLICIES:
        raise ViewError(
            f"unknown maintenance policy {policy!r}; expected one of "
            + ", ".join(MAINTENANCE_POLICIES))
    return policy


#: A patch that raised is rolled back and tried again this many times,
#: this long apart (transient faults), before the view is rebuilt instead.
PATCH_RETRIES = 1
PATCH_RETRY_BACKOFF_SECONDS = 0.005

_LOG = get_logger("views.maintenance")
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_WINDOWS = _REG.counter(
    "maintenance_windows_total",
    "synchronize passes that drained a change window")
_DECISIONS = _REG.counter(
    "maintenance_decisions_total",
    "per-view maintenance outcomes by action and reason category",
    labels=("action", "reason"))
_ROLLBACKS = _REG.counter(
    "maintenance_rollbacks_total",
    "patch windows rolled back to the pre-patch snapshot")

#: Free-text rebuild reasons normalized to a bounded label set.
_REASON_CATEGORIES = {
    "change log truncated": "log_truncated",
    "rebuild forced": "forced",
    "rebuild policy": "policy",
    "view out of sync with the change window": "out_of_sync",
    "facet shape is not delta-evaluable": "not_delta_evaluable",
    "MIN/MAX cannot be patched under deletions": "minmax_deletions",
    "delta not incrementally evaluable": "not_delta_evaluable",
    "group index inconsistent with delta": "index_inconsistent",
}


def _reason_category(reason: Optional[str]) -> str:
    if reason is None:
        return "ok"
    if reason.startswith("quarantined:"):
        return "quarantined"
    if reason.startswith("delta of "):
        return "delta_budget_exceeded"
    if reason.startswith("patch window rolled back"):
        return "patch_rolled_back"
    return _REASON_CATEGORIES.get(reason, "other")


@dataclass(frozen=True)
class ViewMaintenance:
    """What happened to one view during a synchronization pass."""

    label: str
    action: str                    # "patched" | "rebuilt" | "quarantined"
    groups_created: int = 0
    groups_updated: int = 0
    groups_deleted: int = 0
    seconds: float = 0.0
    reason: Optional[str] = None   # why a rebuild/quarantine was chosen

    @property
    def patched(self) -> bool:
        return self.action == "patched"


@dataclass
class MaintenanceReport:
    """Aggregated outcome of one :meth:`ViewMaintainer.synchronize` call."""

    from_version: int = 0
    to_version: int = 0
    inserted: int = 0
    deleted: int = 0
    truncated: bool = False
    rollbacks: int = 0
    views: list[ViewMaintenance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.views)

    @property
    def patched(self) -> list[ViewMaintenance]:
        return [v for v in self.views if v.patched]

    @property
    def rebuilt(self) -> list[ViewMaintenance]:
        return [v for v in self.views if v.action == "rebuilt"]

    @property
    def quarantined(self) -> list[ViewMaintenance]:
        """Views whose rebuild fallback itself failed this pass."""
        return [v for v in self.views if v.action == "quarantined"]

    @property
    def total_seconds(self) -> float:
        return sum(v.seconds for v in self.views)

    def __repr__(self) -> str:
        return (f"<MaintenanceReport v{self.from_version}→v{self.to_version} "
                f"+{self.inserted} -{self.deleted} "
                f"{len(self.patched)} patched, {len(self.rebuilt)} rebuilt>")


class ViewMaintainer:
    """Keeps a catalog's materialized views in sync with base-graph updates.

    Construction subscribes to the base graph's change log; every
    :meth:`synchronize` call drains the accumulated window and reconciles
    each stale view — by group-level patching when the window is
    incrementalizable and ``policy`` is not ``rebuild``, by full rebuild
    otherwise.  ``max_delta_fraction`` bounds when patching is still
    worthwhile: windows changing more than that fraction of the base
    graph fall back to rebuilds wholesale.
    """

    def __init__(self, catalog: ViewCatalog, *, policy: str = "incremental",
                 max_delta_fraction: float = 0.25) -> None:
        self._policy = check_policy(policy)
        self._catalog = catalog
        self._graph = catalog.base_engine.graph
        self._log = self._graph.subscribe()
        self._max_delta_fraction = max_delta_fraction
        # None = the facet's shape is not delta-evaluable.
        self._evaluators: dict[AnalyticalFacet, Optional[DeltaEvaluator]] = {}
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def catalog(self) -> ViewCatalog:
        return self._catalog

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def pending(self) -> int:
        """Net changed base triples buffered since the last synchronize."""
        return self._log.pending

    def close(self) -> None:
        """Detach from the base graph's change log (idempotent).

        The unsubscribe is guaranteed even if the log's own close fails
        partway — a closed maintainer never leaves a live subscriber
        charging per-mutation work to the base graph.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._log.close()
        finally:
            self._graph.unsubscribe(self._log)

    # -- the synchronization pass -------------------------------------------

    def repair(self) -> None:
        """Bring the stale views current before an answer reads one:
        :meth:`synchronize`, except under ``deferred``, whose answers
        serve the snapshot until an explicit window."""
        if self._policy != "deferred":
            self.synchronize()

    def synchronize(self, force_rebuild: bool = False) -> MaintenanceReport:
        """Reconcile every stale or quarantined view with the drained window.

        Each view is handled all-or-nothing: a patch that fails midway is
        rolled back (and retried once after a short backoff) before the
        view joins the pass's rebuild batch, and a batch that itself
        fails is restored whole and quarantined — the failure lands in
        the report instead of propagating half-applied state to callers.
        """
        # The span closes (and records the error), and the collector
        # resumes, even when a simulated crash unwinds mid-window —
        # SimulatedCrash is a BaseException and still runs the span's
        # __exit__ and the finally clause.
        owner = collecting() and pause()
        try:
            if not _TRACER.enabled:
                return self._synchronize(force_rebuild)
            with _TRACER.span("maintenance.synchronize") as sp:
                report = self._synchronize(force_rebuild)
                sp.set_tags(inserted=report.inserted,
                            deleted=report.deleted,
                            truncated=report.truncated,
                            rollbacks=report.rollbacks,
                            patched=len(report.patched),
                            rebuilt=len(report.rebuilt),
                            quarantined=len(report.quarantined))
                return report
        finally:
            if owner:
                resume()

    def _synchronize(self, force_rebuild: bool) -> MaintenanceReport:
        if self._closed:
            raise ViewError("maintainer is closed")
        fail_at("maintenance.synchronize.window")
        delta = self._log.drain()
        report = MaintenanceReport(
            from_version=delta.from_version,
            to_version=delta.to_version,
            inserted=len(delta.inserted),
            deleted=len(delta.deleted),
            truncated=delta.truncated,
        )
        _WINDOWS.inc()
        catalog = self._catalog
        current = catalog.base_version
        quarantined = {view.mask for view in catalog.quarantined_views()}
        stale = [entry for entry in catalog
                 if entry.base_version != current
                 or entry.definition.mask in quarantined]
        if not stale:
            return report

        window_reason = self._window_reason(delta, force_rebuild)
        patchable: dict[AnalyticalFacet, dict[int, MaterializedView]] = {}
        declined: list[tuple[MaterializedView, str]] = []
        for entry in stale:
            view = entry.definition
            if view.mask in quarantined:
                reason = "quarantined: " + \
                    (catalog.quarantine_reason(view) or "unspecified")
            else:
                reason = window_reason or self._view_reason(entry, delta)
            if reason is None:
                patchable.setdefault(view.facet, {})[view.mask] = entry
            else:
                declined.append((entry, reason))
        outcomes: dict[int, ViewMaintenance] = {}
        for facet, entries in patchable.items():
            self._patch_facet(facet, entries, delta, report, outcomes,
                              declined)
        if declined:
            self._rebuild(declined, outcomes)
        report.views = [outcomes[entry.mask] for entry in stale]
        return report

    def _patch_facet(self, facet: AnalyticalFacet,
                     entries: dict[int, MaterializedView], delta,
                     report: MaintenanceReport,
                     outcomes: dict[int, ViewMaintenance],
                     declined: list[tuple[MaterializedView, str]]) -> None:
        """Patch a facet's stale views from one evaluation of the window.

        The window's finest-grain table reaches each view's grain by the
        builder's rollup walk (finest view first, each from the smallest
        table already derived).  A view's ``seconds`` are its own fold
        and merge plus an equal share of the evaluation.
        """
        start = time.perf_counter()
        table = self._evaluators[facet].adjustments(delta.inserted,
                                                    delta.deleted)
        if table is None:
            declined.extend((entry, "delta not incrementally evaluable")
                            for entry in entries.values())
            return
        catalog = self._catalog
        tick = time.perf_counter()
        share = (tick - start) / len(entries)
        for mask, view_table in rollup_tables(
                facet, ViewLattice.rollup_plan(entries), table):
            entry = entries[mask]
            view = entry.definition
            stats, reason = self._patch_with_rollback(entry, view_table,
                                                      report)
            now = time.perf_counter()
            seconds = share + now - tick
            tick = now
            if stats is None:
                declined.append((entry, reason))
                continue
            created, updated, deleted = stats
            catalog.note_maintained(
                view, groups=len(catalog.group_index(view)),
                triples=len(catalog.graph_of(view)), seconds=seconds)
            outcomes[mask] = ViewMaintenance(
                label=view.label, action="patched",
                groups_created=created, groups_updated=updated,
                groups_deleted=deleted, seconds=seconds)
            _DECISIONS.inc(labels=("patched", "ok"))
            _LOG.debug("patched view %s (+%d ~%d -%d groups) in %.3f ms",
                       view.label, created, updated, deleted, seconds * 1e3)

    def _rebuild(self, declined: list[tuple[MaterializedView, str]],
                 outcomes: dict[int, ViewMaintenance]) -> None:
        """Rebuild the pass's declined and quarantined views as one batch.

        They are exactly what ``refresh_stale`` picks up (every patched
        view reads fresh by now).  A failed batch has been restored whole
        by the catalog; all of it is quarantined, so routing degrades to
        the base graph until a later pass retries it.
        """
        catalog = self._catalog
        start = time.perf_counter()
        failure = None
        try:
            rebuilt = {entry.mask: entry for entry in catalog.refresh_stale()}
        except Exception as exc:
            failure = exc
        seconds = time.perf_counter() - start
        for entry, reason in declined:
            if failure is None:
                action = "rebuilt"
                seconds = rebuilt[entry.mask].build_seconds
                _LOG.info("rebuilt view %s (%s)", entry.label, reason)
            else:
                action = "quarantined"
                catalog.quarantine(entry.definition,
                                   f"rebuild failed: {failure}")
            outcomes[entry.mask] = ViewMaintenance(
                label=entry.label, action=action, seconds=seconds,
                reason=reason)
            _DECISIONS.inc(labels=(action, _reason_category(reason)))

    def _patch_with_rollback(self, entry: MaterializedView,
                             table: GroupTable, report: MaintenanceReport
                             ) -> tuple[Optional[tuple[int, int, int]],
                                        Optional[str]]:
        """Merge a window's table into one view; ``(stats, reason)``.

        The catalog's index is edited in step with the view graph, so an
        attempt that does not land — declined, raised or crashed — drops
        it: the next reader re-scans the graph, which :meth:`_merge` has
        rolled back.  A raise counts as a rollback and is retried after a
        short backoff (transient faults); persistent failure becomes a
        rebuild reason instead of escaping the maintenance pass.
        Simulated crashes are BaseException and still propagate.
        """
        view = entry.definition
        catalog = self._catalog
        attempts = PATCH_RETRIES + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(PATCH_RETRY_BACKOFF_SECONDS)
            stats = None
            try:
                stats = self._merge(view, catalog.group_index(view), table)
            except ViewError:
                pass  # the graph is not a complete §3.1 encoding
            except Exception as exc:
                report.rollbacks += 1
                # Counter and report increment together:
                # tests/test_fault_schedule.py asserts they agree exactly.
                _ROLLBACKS.inc()
                _LOG.debug("patch of %s rolled back (attempt %d/%d): %s",
                           entry.label, attempt + 1, attempts, exc)
                last_error = exc
                continue
            finally:
                if stats is None:
                    catalog.drop_group_index(view)
            if stats is None:
                return None, "group index inconsistent with delta"
            return stats, None
        return None, (f"patch window rolled back after {attempts} "
                      f"attempt{'s' if attempts != 1 else ''} ({last_error})")

    # -- fallback decisions --------------------------------------------------

    def _window_reason(self, delta, force_rebuild: bool) -> Optional[str]:
        """A rebuild reason applying to the whole window, or None."""
        if force_rebuild:
            return "rebuild forced"
        if self._policy == "rebuild":
            return "rebuild policy"
        if delta.truncated:
            return "change log truncated"
        base_size = len(self._graph)
        budget = self._max_delta_fraction * max(base_size, 1)
        if delta.size > budget:
            return (f"delta of {delta.size} triples exceeds "
                    f"{self._max_delta_fraction:.0%} of the base graph")
        return None

    def _view_reason(self, entry: MaterializedView, delta) -> Optional[str]:
        """A per-view rebuild reason, or None when patchable."""
        if entry.base_version != delta.from_version:
            return "view out of sync with the change window"
        facet = entry.definition.facet
        if facet not in self._evaluators:
            plan = compile_delta_plan(facet)
            self._evaluators[facet] = None if plan is None else \
                DeltaEvaluator(self._catalog.base_engine.executor, plan)
        evaluator = self._evaluators[facet]
        if evaluator is None:
            return "facet shape is not delta-evaluable"
        if evaluator.plan.kind == KIND_MINMAX and delta.deleted:
            return "MIN/MAX cannot be patched under deletions"
        return None

    # -- patching ------------------------------------------------------------

    def _merge(self, view, index: GroupIndex, table: GroupTable
               ) -> Optional[tuple[int, int, int]]:
        """Apply a signed table at the view's grain to graph and index;
        None = they contradict each other, rebuild.

        All removals and additions are collected first and applied as two
        bulk id operations, so the view graph's version moves at most
        twice per window regardless of how many groups changed.  Every
        edit is read off the index and the codec — a dying group's
        triples are :meth:`GroupCodec.death`'s, not its stored star — so
        a window never reads (and never compacts) a view graph.  A stray
        triple the codec never wrote is therefore left on a dying node:
        the view graph belongs to the catalog, and the auditor reports
        such triples.
        """
        graph = self._catalog.graph_of(view)
        codec = GroupCodec(view, graph.dictionary)
        decode = graph.dictionary.decode
        is_minmax = index.kind == KIND_MINMAX
        keep_max = table.keep_max
        value_pred = codec.value_pred
        count_pred = codec.count_pred

        adds: list[tuple[int, int, int]] = []
        removes: list[tuple[int, int, int]] = []
        created = updated = deleted = 0

        for (key, g), count_change, value_change in zip(
                table.groups.items(), *codec.columns(table)):
            if table.empty(g):
                continue
            state = index.groups.get(key)
            if state is None:
                # Birth: the change is the whole group.
                if count_change <= 0 or value_change is None:
                    return None  # a group the index never saw shrank
                index.groups[key] = codec.birth(adds, key, count_change,
                                                value_change)
                created += 1
                continue

            new_count = state.count + count_change
            if new_count < 0:
                return None
            if new_count == 0:
                if view.is_apex:
                    # An empty apex still materializes one zero group
                    # (GROUP BY () has an implicit group); rebuilding is
                    # the simplest way to reproduce that encoding.
                    return None
                # What the group stores, as the index knows it: a triple
                # the graph lost makes the bulk removal below come up
                # short, and the view is rebuilt.
                codec.death(removes, key, state)
                del index.groups[key]
                deleted += 1
                continue

            node = state.node_id
            changed = False
            if count_change:
                new_count_id = codec.number_id(new_count)
                removes.append((node, count_pred, state.count_id))
                adds.append((node, count_pred, new_count_id))
                state.count = new_count
                state.count_id = new_count_id
                changed = True
            if is_minmax:
                # The stored extremum can only move toward the best
                # inserted value (insert-only windows).
                if value_change is not None:
                    stored_key = order_key(decode(state.value_id))
                    best_key = table.best_key[g]
                    if (best_key > stored_key if keep_max
                            else best_key < stored_key):
                        removes.append((node, value_pred, state.value_id))
                        adds.append((node, value_pred, value_change))
                        state.value_id = value_change
                        changed = True
            elif value_change:
                new_value = state.value + value_change
                new_value_id = codec.number_id(new_value)
                if new_value_id != state.value_id:
                    removes.append((node, value_pred, state.value_id))
                    adds.append((node, value_pred, new_value_id))
                    state.value_id = new_value_id
                state.value = new_value
                changed = True
            if changed:
                updated += 1

        # The edits must land exactly: every removal referenced a triple
        # the index believed stored, every addition must be new.  A
        # mismatch means the index has drifted from the view graph (e.g.
        # the graph was edited behind the catalog's back) — bail out to
        # the rebuild fallback, which clears the graph and starts clean,
        # instead of leaving duplicate or orphaned measure/count triples
        # behind.  An *exception* between the two bulk ops would
        # otherwise leave the view half-patched yet marked fresh; undo
        # both edits (bulk ops skip absent/duplicate ids, so the undo is
        # safe wherever the failure struck) before re-raising.
        try:
            fail_at("maintenance.patch.before_apply")
            if removes and graph.remove_ids_bulk(removes) != len(removes):
                return None
            fail_at("maintenance.patch.between_bulk_ops")
            if adds and graph.add_ids_bulk(adds) != len(adds):
                return None
        except BaseException:
            with suppressed():
                if adds:
                    graph.remove_ids_bulk(adds)
                if removes:
                    graph.add_ids_bulk(removes)
            raise
        return created, updated, deleted
