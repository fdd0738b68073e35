"""The online module ② : query execution over the expanded graph G+.

For each incoming analytical query the module: routes it to the best
usable materialized view (or the base graph), rewrites it onto the view's
encoding, executes, and measures — producing the per-query and per-
workload numbers the demo's "query performance analyzer" panel plots.

Views can go stale while the graph changes underneath them; the module's
**maintenance policy** decides what happens when a stale view is routed:

* ``"rebuild"`` — re-materialize the view in place before answering
  (``ViewCatalog.refresh``);
* ``"incremental"`` — patch all stale views through the wired
  :class:`~repro.views.maintenance.ViewMaintainer` before answering;
* ``"deferred"`` — serve the frozen snapshot and leave maintenance to an
  explicit ``maintain()`` call, with the answer flagged ``stale``;
* ``None`` (no policy) — no repair happens here; the router then
  excludes stale views so queries fall back to the always-current base
  graph rather than silently answering from frozen data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ReproError
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.terms import IRI
from ..cube.query import AnalyticalQuery
from ..sparql.engine import QueryEngine
from ..sparql.results import ResultTable
from ..views.catalog import ViewCatalog
from ..views.maintenance import MAINTENANCE_POLICIES, ViewMaintainer
from ..views.rewriter import rewrite_on_view
from ..views.router import Ranking, ViewRouter
from .metrics import QueryOutcome, WorkloadRun

__all__ = ["Answer", "OnlineModule"]

_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_QUERY_SECONDS = _REG.histogram(
    "online_query_seconds",
    "end-to-end execution seconds per analytical query",
    labels=("route",))
_ANSWERS = _REG.counter(
    "online_answers_total",
    "analytical queries answered, by route",
    labels=("route",))
_STALE_ANSWERS = _REG.counter(
    "online_stale_answers_total",
    "answers served from a stale view snapshot")
_DEGRADED_ANSWERS = _REG.counter(
    "online_degraded_answers_total",
    "answers where quarantine forced a slower-but-correct path")
_REWRITE_SECONDS = _REG.histogram(
    "online_rewrite_seconds",
    "query-rewrite cost when a view answers")


def _observe_outcome(outcome: QueryOutcome) -> None:
    route = "view" if outcome.view_label else "base"
    _QUERY_SECONDS.observe(outcome.seconds, (route,))
    _ANSWERS.inc(labels=(route,))
    if outcome.stale:
        _STALE_ANSWERS.inc()
    if outcome.degraded:
        _DEGRADED_ANSWERS.inc()
    if outcome.view_label:
        _REWRITE_SECONDS.observe(outcome.rewrite_seconds)


@dataclass(frozen=True)
class Answer:
    """A query result plus how it was obtained."""

    table: ResultTable
    outcome: QueryOutcome

    @property
    def used_view(self) -> Optional[str]:
        return self.outcome.view_label

    @property
    def stale(self) -> bool:
        """True when the answer reflects an older base-graph snapshot."""
        return self.outcome.stale

    @property
    def degraded(self) -> bool:
        """True when a quarantined view forced a slower-but-correct path."""
        return self.outcome.degraded


class OnlineModule:
    """Routes, rewrites, executes, and measures analytical queries."""

    def __init__(self, catalog: ViewCatalog,
                 ranking: Ranking | None = None,
                 maintainer: ViewMaintainer | None = None,
                 policy: Optional[str] = None) -> None:
        if policy is not None and policy not in MAINTENANCE_POLICIES:
            raise ReproError(
                f"unknown maintenance policy {policy!r}; expected one of "
                + ", ".join(MAINTENANCE_POLICIES))
        if policy == "incremental" and maintainer is None:
            raise ReproError(
                "the 'incremental' policy needs a ViewMaintainer")
        if policy is None and maintainer is not None:
            # A wired maintainer IS the refresher; without an explicit
            # policy it would otherwise sit idle while also suppressing
            # the skip-stale default — the worst of both worlds.
            policy = "incremental"
        self._catalog = catalog
        self._maintainer = maintainer
        self._policy = policy
        # Stale views are skipped exactly when nobody can repair them and
        # snapshot serving was not explicitly chosen ("deferred").
        self._router = ViewRouter(catalog, ranking,
                                  skip_stale=policy is None)
        self._base_engine = catalog.base_engine
        self._view_engines: dict[IRI, QueryEngine] = {}

    @property
    def catalog(self) -> ViewCatalog:
        return self._catalog

    @property
    def router(self) -> ViewRouter:
        return self._router

    @property
    def maintainer(self) -> Optional[ViewMaintainer]:
        return self._maintainer

    @property
    def policy(self) -> Optional[str]:
        return self._policy

    def _engine_for(self, name: IRI) -> QueryEngine:
        engine = self._view_engines.get(name)
        if engine is None:
            engine = QueryEngine(self._catalog.dataset.graph(name))
            self._view_engines[name] = engine
        return engine

    def _repair(self, view) -> None:
        """Bring a stale routed view current, per the maintenance policy."""
        if self._policy == "rebuild":
            # refresh rebuilds the named graph in place, so the cached
            # engine over that graph keeps working
            self._catalog.refresh(view)
        elif self._policy == "incremental":
            self._maintainer.synchronize()
        # "deferred" (and no policy): serve the snapshot as-is

    def answer(self, query: AnalyticalQuery) -> Answer:
        """Answer one query, preferring materialized views.

        Stale routed views are repaired according to the module's
        maintenance policy; under ``"deferred"`` the frozen snapshot
        answers and the outcome carries ``stale=True`` so callers can
        see it.  When a quarantined view would normally have answered,
        the outcome is flagged ``degraded``: the answer (base graph or
        coarser view) is still correct, just slower, until the
        quarantined view rebuilds.
        """
        with _TRACER.span("online.answer") as sp:
            degraded = bool(self._router.quarantined_candidates(query))
            entry = self._router.route(query)
            if entry is None:
                return self.answer_from_base(query, degraded=degraded,
                                             _in_span=True)
            view = entry.definition
            if self._catalog.is_stale(view):
                self._repair(view)

            rewrite_start = time.perf_counter()
            rewritten = rewrite_on_view(query, view)
            engine = self._engine_for(view.iri)
            prepared = engine.prepare(rewritten)
            rewrite_seconds = time.perf_counter() - rewrite_start

            table, exec_seconds = engine.timed_query(prepared)
            outcome = QueryOutcome(
                query=query,
                rows=len(table),
                seconds=exec_seconds,
                view_label=view.label,
                rewrite_seconds=rewrite_seconds,
                stale=self._catalog.is_stale(view),
                degraded=degraded,
            )
            sp.set_tags(route="view", view=view.label, rows=len(table),
                        stale=outcome.stale, degraded=degraded)
            if _REG.enabled:
                _observe_outcome(outcome)
            return Answer(table=table, outcome=outcome)

    def answer_from_base(self, query: AnalyticalQuery,
                         degraded: bool = False,
                         _in_span: bool = False) -> Answer:
        """Answer directly from the base graph (the no-view fallback)."""
        prepared = self._base_engine.prepare(query.to_select_query())
        table, exec_seconds = self._base_engine.timed_query(prepared)
        outcome = QueryOutcome(
            query=query,
            rows=len(table),
            seconds=exec_seconds,
            view_label=None,
            degraded=degraded,
        )
        if _in_span:
            _TRACER.annotate(route="base", rows=len(table),
                             degraded=degraded)
        if _REG.enabled:
            _observe_outcome(outcome)
        return Answer(table=table, outcome=outcome)

    def explain(self, query: AnalyticalQuery):
        """EXPLAIN ANALYZE plus the routing decision for one query.

        Executes the query for real through the same route
        :meth:`answer` would take (including stale-view repair under the
        module's maintenance policy) and returns a
        :class:`~repro.obs.explain.RoutedExplain`: which views were
        candidates, which were quarantined, which one answered and why,
        the rewrite cost, and the measured per-operator plan tree.
        """
        from ..obs.explain import RoutedExplain
        quarantined = [e.label
                       for e in self._router.quarantined_candidates(query)]
        candidates = self._router.candidates(query)
        described = [{"label": e.label, "groups": e.groups,
                      "stale": self._catalog.is_stale(e.definition)}
                     for e in candidates]
        if not candidates:
            why = "no usable view covers the query"
            if quarantined:
                why += " (every covering view is quarantined)"
            plan = self._base_engine.explain(query.to_select_query())
            return RoutedExplain(
                query=query.describe(), route="base", why=why, view=None,
                candidates=described, quarantined=quarantined,
                rewrite_seconds=0.0, plan=plan)
        entry = candidates[0]
        view = entry.definition
        if self._catalog.is_stale(view):
            self._repair(view)
        rewrite_start = time.perf_counter()
        rewritten = rewrite_on_view(query, view)
        engine = self._engine_for(view.iri)
        prepared = engine.prepare(rewritten)
        rewrite_seconds = time.perf_counter() - rewrite_start
        why = f"ranked first of {len(candidates)} covering view(s)"
        if self._catalog.is_stale(view):
            why += "; serving a stale snapshot"
        return RoutedExplain(
            query=query.describe(), route="view", why=why,
            view=view.label, candidates=described,
            quarantined=quarantined, rewrite_seconds=rewrite_seconds,
            plan=engine.explain(prepared))

    def run_workload(self, queries: Sequence[AnalyticalQuery],
                     force_base: bool = False) -> WorkloadRun:
        """Execute a workload, returning aggregate measurements.

        ``force_base=True`` bypasses the views — the reference measurement
        every comparison row is normalized against.
        """
        run = WorkloadRun()
        for query in queries:
            answer = self.answer_from_base(query) if force_base \
                else self.answer(query)
            run.add(answer.outcome)
        return run
