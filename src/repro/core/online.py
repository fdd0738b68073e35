"""The online module ② : query execution over the expanded graph G+.

For each incoming analytical query the module: routes it to the best
usable materialized view (or the base graph), rewrites it onto the view's
encoding, executes, and measures — producing the per-query and per-
workload numbers the demo's "query performance analyzer" panel plots.

Views can go stale while the graph changes underneath them.  With a
:class:`~repro.views.maintenance.ViewMaintainer` wired, a routed stale
view is handed to :meth:`ViewMaintainer.repair`, and the maintainer's
policy decides what happens: ``rebuild`` and ``incremental`` bring every
stale view current first; ``deferred`` serves the frozen snapshot, with
the answer flagged ``stale``.  A repair whose rebuild fails quarantines
the view, and the query is routed again around it (flagged
``degraded``).  Without a maintainer nothing can repair a view, so the
router excludes stale views and queries fall back to the always-current
base graph rather than silently answering from frozen data.

A repeated query is parsed once and planned once: :class:`ServingPlans`
memoizes text → recognized query and (query, view) → rewritten prepared
plan, pure functions of the text and the facet, of the query and the
view's *definition*, so no catalog event invalidates them.  What depends
on catalog *state* is decided again on every answer: the route,
quarantine, staleness and its repair, and the execution itself.

:meth:`OnlineModule.answer` is the one place that happens: ``explain``
is that call with the span tracer live, reported from the :class:`Answer`
and its ``online.answer`` span, so an explained query counts as the answer
it is (metrics, spans, repairs) and shows that answer's header and rows.

Each answer (:meth:`~OnlineModule.answer`, ``answer_sparql``,
``answer_from_base``) is one burst (:mod:`repro.collector`): the cyclic
collector stays paused until it returns, repair included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from ..collector import collecting, pause, resume
from ..errors import ReproError
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.terms import IRI
from ..cube.facet import AnalyticalFacet
from ..cube.query import AnalyticalQuery
from ..cube.view import ViewDefinition
from ..sparql import parser as _parser
from ..sparql.engine import PreparedQuery, QueryEngine, remember
from ..sparql.results import ResultTable
from ..views import analyzer as _analyzer
from ..views.catalog import MaterializedView, ViewCatalog
from ..views.maintenance import ViewMaintainer
from ..views.rewriter import rewrite_on_view
from ..views.router import ViewRouter
from .metrics import QueryOutcome, WorkloadRun

__all__ = ["Answer", "OnlineModule", "ServingPlans"]

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
    "seconds to obtain the rewritten plan when a view answers")
_PLAN_HITS = _REG.counter(
    "serving_plan_cache_hits_total",
    "serving-plan memo lookups answered from the memo",
    labels=("level",))
_PLAN_MISSES = _REG.counter(
    "serving_plan_cache_misses_total",
    "serving-plan memo lookups derived fresh and inserted",
    labels=("level",))


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


class ServingPlans:
    """The serving-plan memo of one facet: two levels, each bounded by the
    engine's rule (:func:`~repro.sparql.engine.remember`), neither ever
    invalidated (module docstring).  A miss derives the value the way an
    unmemoized answer would and inserts it."""

    def __init__(self, facet: AnalyticalFacet | None = None) -> None:
        self._facet = facet     # None: the module is never asked a text
        self._texts: dict[str, tuple] = {}
        self._plans: dict[tuple, PreparedQuery] = {}

    def recognize(self, text: str, engine: QueryEngine) -> tuple:
        """``(query, header, reorder, base)`` of a SPARQL text.

        For an instance of the facet: its :class:`AnalyticalQuery`, the
        SELECT's own output variables (the caller's aggregate alias among
        them) and the row permutation from the facet's canonical column
        order to the SELECT's (None when they agree); the parse tree is
        not kept.  Otherwise ``query`` is None and ``base`` the text's own
        plan.  ``engine`` compiles a miss; the plan runs on any engine.
        """
        entry = self._texts.get(text)
        if _REG.enabled:
            (_PLAN_MISSES if entry is None else _PLAN_HITS).inc(
                labels=("text",))
        if entry is None:
            if self._facet is None:
                raise ReproError("no facet to recognize raw SPARQL against")
            ast = _parser.parse_query(text)
            query = _analyzer.analyze_query(ast, self._facet)
            if query is None:
                entry = (None, None, None, engine.prepare(ast))
            else:
                dims = query.group_variables
                order = tuple(len(dims) if item.expression is not None
                              else dims.index(item.var)
                              for item in ast.projection)
                entry = (query, tuple(ast.projected_variables()),
                         None if order == tuple(range(len(order)))
                         else itemgetter(*order), None)
            remember(self._texts, text, entry)
        return entry

    def rewritten(self, query: AnalyticalQuery, view: ViewDefinition,
                  engine: QueryEngine) -> tuple[PreparedQuery, float]:
        """The prepared rewriting of ``query`` onto ``view``, and the
        seconds it took to obtain (a lookup, or rewrite + translate).

        Keyed on what the rewriting reads (the view's graph name, the
        grouped subset, the filters; not the label), so the object path
        and every text spelling of a query share one entry.
        """
        start = time.perf_counter()
        key = (view.iri, query.group_mask, query.filters)
        prepared = self._plans.get(key)
        if _REG.enabled:
            (_PLAN_MISSES if prepared is None else _PLAN_HITS).inc(
                labels=("plan",))
        if prepared is None:
            prepared = engine.prepare(rewrite_on_view(query, view))
            remember(self._plans, key, prepared)
        return prepared, time.perf_counter() - start


class OnlineModule:
    """Routes, rewrites, executes, and measures analytical queries.

    ``maintainer`` repairs the stale views this module routes (module
    docstring); without one, stale views are not routed.  ``plans``
    shares a serving-plan memo between modules (``Sofos`` keeps one
    across re-materializations); without it the module has its own.
    """

    def __init__(self, catalog: ViewCatalog,
                 maintainer: ViewMaintainer | None = None,
                 plans: ServingPlans | None = None) -> None:
        self._catalog = catalog
        self._maintainer = maintainer
        # Stale views are skipped exactly when nobody can repair them.
        self._router = ViewRouter(catalog, skip_stale=maintainer is None)
        self._base_engine = catalog.base_engine
        self._view_engines: dict[IRI, QueryEngine] = {}
        self._plans = plans if plans is not None else ServingPlans()

    @property
    def catalog(self) -> ViewCatalog:
        return self._catalog

    @property
    def router(self) -> ViewRouter:
        return self._router

    @property
    def maintainer(self) -> Optional[ViewMaintainer]:
        return self._maintainer

    def _engine_for(self, name: IRI) -> QueryEngine:
        engine = self._view_engines.get(name)
        if engine is None:
            engine = QueryEngine(self._catalog.dataset.graph(name))
            self._view_engines[name] = engine
        return engine

    def answer(self, query: AnalyticalQuery) -> Answer:
        """Answer one query, preferring materialized views.

        A stale routed view goes to the maintainer's :meth:`repair`;
        under ``"deferred"`` the frozen snapshot answers and the outcome
        carries ``stale=True`` so callers can see it.  When a quarantined
        view would normally have answered — quarantined before, or by a
        repair whose rebuild failed — the outcome is flagged
        ``degraded``: the answer (base graph or coarser view) is still
        correct, just slower, until the quarantined view rebuilds.
        """
        owner = collecting() and pause()
        try:
            with _TRACER.span("online.answer") as sp:
                entry, degraded = self._route(query, sp)
                if entry is not None \
                        and self._catalog.is_stale(entry.definition):
                    self._maintainer.repair()
                    if self._catalog.is_quarantined(entry.definition):
                        entry, degraded = self._route(query, sp)
                if entry is None:
                    return self.answer_from_base(query, degraded=degraded,
                                                 _in_span=True)
                view = entry.definition
                engine = self._engine_for(view.iri)
                prepared, rewrite_seconds = self._plans.rewritten(
                    query, view, engine)
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
        finally:
            if owner:
                resume()

    def _route(self, query: AnalyticalQuery, sp
               ) -> tuple[Optional[MaterializedView], bool]:
        """The routed view (None: the base graph) and whether a
        quarantine pulled a covering view from serving; the decision goes
        on the answer's span while the tracer is live."""
        quarantined = self._router.quarantined_candidates(query)
        entry = self._router.route(query)
        if _TRACER.enabled:
            sp.set_tags(**self._decision(query, quarantined))
        return entry, bool(quarantined)

    def _decision(self, query: AnalyticalQuery, quarantined: list) -> dict:
        """The routing decision as JSON-shaped tags of the answer's span
        (staleness as of the routing, so before the answer's repair)."""
        candidates = self._router.candidates(query)
        why = f"ranked first of {len(candidates)} covering view(s)"
        if not candidates:
            why = "no usable view covers the query" if len(self._catalog) \
                else "no views are materialized"
            if quarantined:
                why += " (every covering view is quarantined)"
        return {"why": why, "quarantined": [e.label for e in quarantined],
                "candidates": [{"label": e.label, "groups": e.groups,
                                "stale": self._catalog.is_stale(e.definition)}
                               for e in candidates]}

    def answer_sparql(self, text: str) -> Answer:
        """Answer raw SPARQL: an instance of the facet goes through
        :meth:`answer` and comes back under the SELECT's own column order
        and aggregate alias; any other text runs on the base graph."""
        owner = collecting() and pause()
        try:
            query, header, reorder, base = self._plans.recognize(
                text, self._base_engine)
            if query is None:
                with _TRACER.span("online.answer",
                                  why="query does not target the facet"):
                    return self._run_on_base(base, None, in_span=True)
            answer = self.answer(query)
            table = answer.table
            if reorder is not None:
                table.rows = [reorder(row) for row in table.rows]
            table.variables = list(header)
            return answer
        finally:
            if owner:
                resume()

    def answer_from_base(self, query: AnalyticalQuery,
                         degraded: bool = False,
                         _in_span: bool = False) -> Answer:
        """Answer directly from the base graph (the no-view fallback)."""
        owner = collecting() and pause()
        try:
            prepared = self._base_engine.prepare(query.to_select_query())
            return self._run_on_base(prepared, query, degraded, _in_span)
        finally:
            if owner:
                resume()

    def _run_on_base(self, prepared: PreparedQuery,
                     query: Optional[AnalyticalQuery],
                     degraded: bool = False, in_span: bool = False) -> Answer:
        table, exec_seconds = self._base_engine.timed_query(prepared)
        outcome = QueryOutcome(
            query=query,
            rows=len(table),
            seconds=exec_seconds,
            view_label=None,
            degraded=degraded,
        )
        if in_span:
            _TRACER.annotate(route="base", rows=len(table),
                             degraded=degraded)
        if _REG.enabled:
            _observe_outcome(outcome)
        return Answer(table=table, outcome=outcome)

    def explain(self, query: AnalyticalQuery | str):
        """EXPLAIN ANALYZE plus the routing decision for one query.

        :meth:`answer` (raw SPARQL: :meth:`answer_sparql`) with the span
        tracer live, and what that answer did as a
        :class:`~repro.obs.explain.RoutedExplain`: which views were
        candidates, which were quarantined, which one answered and why,
        the seconds to obtain the rewritten plan, and the measured
        per-operator plan tree around the answer's own table.
        """
        from ..obs.explain import RoutedExplain, build_query_explain
        with _TRACER.capture() as roots:
            answer = self.answer_sparql(query) if isinstance(query, str) \
                else self.answer(query)
        span, outcome = roots[-1], answer.outcome
        asked = outcome.query       # None: a text that is off the facet
        return RoutedExplain(
            query=query if asked is None else asked.describe(),
            route=span.tags["route"],
            why=span.tags["why"]
            + ("; serving a stale snapshot" if outcome.stale else ""),
            view=outcome.view_label,
            candidates=span.tags.get("candidates", []),
            quarantined=span.tags.get("quarantined", []),
            rewrite_seconds=outcome.rewrite_seconds,
            plan=build_query_explain(span, answer.table, outcome.seconds,
                                     query if asked is None else ""))

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
