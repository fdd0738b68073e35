"""The Sofos facade: the whole system behind one object.

    sofos = Sofos(graph, facet)
    selection, catalog = sofos.select_and_materialize("agg_values", k=2)
    answer = sofos.answer(query)                      # uses the views
    report = sofos.compare_cost_models(k=2)           # the headline demo

``Sofos`` wires the offline module (lattice profiling, selection,
materialization) to the online module (routing, rewriting, measured
execution) over a single expanded dataset, and implements the demo's
cost-model comparison loop.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ReproError
from ..rdf.dataset import Dataset
from ..rdf.graph import Graph
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cost.base import CostModel, create_model
from ..cost.profiler import LatticeProfile
from ..selection.greedy import GreedySelector
from ..selection.plans import SelectionResult
from ..views.catalog import ViewCatalog
from ..views.maintenance import MAINTENANCE_POLICIES, MaintenanceReport, \
    ViewMaintainer, ViewMaintenance
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from .metrics import Timer, WorkloadRun
from .offline import OfflineModule, Selector
from .online import Answer, OnlineModule, ServingPlans
from .report import ComparisonReport, ComparisonRow

__all__ = ["Sofos", "DEFAULT_MODELS"]

#: The automatic cost models compared by default (the paper's models 1-5;
#: model 6 — user defined — needs a human and joins via ``UserSelection``).
DEFAULT_MODELS = ("random", "triples", "agg_values", "nodes", "learned")


class Sofos:
    """Materialized-view selection and comparison over one facet."""

    def __init__(self, graph: Graph | Dataset, facet: AnalyticalFacet,
                 seed: int = 0, maintenance: str = "rebuild") -> None:
        if maintenance not in MAINTENANCE_POLICIES:
            raise ReproError(
                f"unknown maintenance policy {maintenance!r}; expected one "
                "of " + ", ".join(MAINTENANCE_POLICIES))
        if isinstance(graph, Dataset):
            self._dataset = graph
        else:
            self._dataset = Dataset.wrap(graph)
        self._facet = facet
        self._seed = seed
        self._maintenance = maintenance
        self._offline = OfflineModule(self._dataset, facet)
        self._catalog: ViewCatalog | None = None
        self._online: OnlineModule | None = None
        self._maintainer: ViewMaintainer | None = None
        # one memo for the facet's lifetime: it outlives every catalog
        self._plans = ServingPlans(facet)

    # -- introspection ------------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def facet(self) -> AnalyticalFacet:
        return self._facet

    @property
    def offline(self) -> OfflineModule:
        return self._offline

    @property
    def lattice(self) -> ViewLattice:
        return self._offline.lattice

    @property
    def catalog(self) -> ViewCatalog | None:
        """The current materialized views (None before materialization)."""
        return self._catalog

    @property
    def maintenance_policy(self) -> str:
        """How stale views are reconciled (rebuild|incremental|deferred)."""
        return self._maintenance

    @property
    def maintainer(self) -> ViewMaintainer | None:
        """The incremental maintainer (None under the rebuild policy)."""
        return self._maintainer

    def profile(self) -> LatticeProfile:
        """Full-lattice statistics (cached per base-graph version)."""
        return self._offline.profile()

    # -- offline ---------------------------------------------------------------

    def _resolve_model(self, model: str | CostModel) -> CostModel:
        if isinstance(model, CostModel):
            return model
        return create_model(model)

    def select(self, model: str | CostModel = "agg_values",
               k: int | None = None,
               workload: Sequence[AnalyticalQuery] | None = None,
               selector: Selector | None = None) -> SelectionResult:
        """Choose views: greedily under ``model`` (k = 2 unless given), or
        with ``selector``, which gets ``k`` exactly as passed."""
        if selector is None:
            selector = GreedySelector(self._resolve_model(model),
                                      seed=self._seed)
            if k is None:
                k = 2
        return self._offline.select(selector, k, workload)

    def materialize(self, selection: SelectionResult) -> ViewCatalog:
        """Materialize a selection, replacing any current views.

        Under the ``incremental`` and ``deferred`` policies a
        :class:`ViewMaintainer` is attached to the fresh catalog, so
        subsequent base-graph updates are captured as deltas from the
        moment the views are built.
        """
        self.drop_views()
        catalog = self._offline.materialize(selection)
        self._catalog = catalog
        if self._maintenance != "rebuild":
            self._maintainer = ViewMaintainer(catalog)
        self._online = OnlineModule(catalog, maintainer=self._maintainer,
                                    policy=self._maintenance,
                                    plans=self._plans)
        return catalog

    def select_and_materialize(self, model: str | CostModel = "agg_values",
                               k: int = 2,
                               workload: Sequence[AnalyticalQuery] |
                               None = None
                               ) -> tuple[SelectionResult, ViewCatalog]:
        selection = self.select(model, k, workload)
        catalog = self.materialize(selection)
        return selection, catalog

    def refresh_views(self) -> list:
        """Rebuild any materialized views made stale by base-graph updates.

        With a maintainer attached the rebuild is a forced window of its
        own, so the change log is drained and the next window patches.
        """
        self._offline.release_stale()
        if self._catalog is None:
            return []
        if self._maintainer is None:
            return self._catalog.refresh_stale()
        report = self._maintainer.synchronize(force_rebuild=True)
        rebuilt = {view.label for view in report.rebuilt}
        return [entry for entry in self._catalog if entry.label in rebuilt]

    def maintain(self) -> MaintenanceReport:
        """Reconcile stale views according to the maintenance policy.

        Under ``incremental``/``deferred`` the maintainer drains the
        change log and patches (falling back to rebuilds when a window is
        not incrementalizable); under ``rebuild`` every stale view is
        re-materialized.  Either way the returned report itemizes what
        happened to each view.
        """
        self._offline.release_stale()
        if self._maintainer is not None:
            return self._maintainer.synchronize()
        report = MaintenanceReport()
        if self._catalog is None:
            return report
        version = self._catalog.base_version
        report.from_version = report.to_version = version
        # One plan-driven batch: stale views of a facet share a single
        # base scan instead of re-evaluating the query per view.
        for entry in self._catalog.refresh_stale():
            report.views.append(ViewMaintenance(
                label=entry.label, action="rebuilt",
                seconds=entry.build_seconds, reason="rebuild policy"))
        return report

    def audit(self, *, sample_groups: int | None = None,
              quarantine: bool = True):
        """Cross-check every view against recomputed ground truth.

        Runs a :class:`~repro.resilience.audit.ConsistencyAuditor` over
        the catalog: each fresh view's graph is compared with a recomputed
        aggregation of the current base graph (all groups, or a seeded
        sample of ``sample_groups``) and with the catalog's group index
        of it.  Corrupt views are quarantined (unless
        ``quarantine=False``) so routing degrades to the base graph until
        :meth:`maintain` or :meth:`refresh_views` rebuilds them.  Returns
        the :class:`~repro.resilience.audit.AuditReport`.
        """
        if self._catalog is None:
            raise ReproError(
                "no views are materialized; nothing to audit")
        from ..resilience.audit import ConsistencyAuditor
        auditor = ConsistencyAuditor(self._catalog,
                                     sample_groups=sample_groups,
                                     seed=self._seed)
        return auditor.audit(quarantine=quarantine)

    def memory_report(self) -> dict[str, int]:
        """Estimated bytes per graph of the expanded dataset (G and views)."""
        from ..rdf.memory import dataset_memory_report
        return dataset_memory_report(self._dataset)

    def drop_views(self) -> None:
        """Drop all materialized views (back to the bare graph G)."""
        if self._maintainer is not None:
            self._maintainer.close()
            self._maintainer = None
        if self._catalog is not None:
            self._catalog.drop_all()
        self._catalog = None
        self._online = None

    # -- online ------------------------------------------------------------------

    def _require_online(self) -> OnlineModule:
        if self._online is None:
            raise ReproError(
                "no views are materialized; call select_and_materialize() "
                "first (or use answer_from_base)")
        return self._online

    def _serving(self) -> OnlineModule:
        """The online module; before materialization one over an empty
        catalog, where every route ends at the base graph."""
        if self._online is not None:
            return self._online
        return OnlineModule(ViewCatalog(self._dataset, self._offline.engine),
                            plans=self._plans)

    def answer(self, query: AnalyticalQuery) -> Answer:
        """Answer a query using the materialized views when possible."""
        return self._require_online().answer(query)

    @property
    def obs(self):
        """The process-global :class:`~repro.obs.ObservabilityHub`.

        ``sofos.obs.enable()`` switches on metrics + span collection;
        ``sofos.obs.snapshot()`` returns the combined dump rendered in
        the console's observability panel.
        """
        from ..obs import hub
        return hub()

    def explain(self, query: AnalyticalQuery | str):
        """EXPLAIN ANALYZE one query, including the routing decision.

        Accepts an :class:`AnalyticalQuery` or raw SPARQL text (matched
        against this facet the same way :meth:`answer_sparql` does).
        The query is answered for real, and counted as an answer; the
        :class:`~repro.obs.explain.RoutedExplain` of it reports which view
        answered (or why the base graph did), candidate/quarantined
        views, the seconds to obtain the rewritten plan, and per-operator
        wall time and row counts.
        """
        return self._serving().explain(query)

    def answer_from_base(self, query: AnalyticalQuery) -> Answer:
        """Answer a query directly on G, ignoring any views."""
        return self._serving().answer_from_base(query)

    def run_workload(self, queries: Sequence[AnalyticalQuery],
                     force_base: bool = False) -> WorkloadRun:
        module = self._serving() if force_base else self._require_online()
        return module.run_workload(queries, force_base=force_base)

    def answer_sparql(self, query_text: str) -> Answer:
        """Answer raw SPARQL, routing through views when the query targets
        this facet (paper §3.2: "given any query Q targeting F").

        The query is recognized via :func:`repro.views.analyzer.analyze_query`
        (once per distinct text); on a match it is answered from the best
        materialized view, under the query's own aggregate alias and
        column order, otherwise it executes directly on the base graph.
        """
        return self._serving().answer_sparql(query_text)

    def generate_workload(self, size: int = 50,
                          config: WorkloadConfig | None = None
                          ) -> list[AnalyticalQuery]:
        """A deterministic random workload over this facet (its value
        domains read the shared facet scan :meth:`profile` also uses)."""
        if config is None:
            config = WorkloadConfig(size=size, seed=self._seed)
        generator = WorkloadGenerator(self._facet, self._offline.engine,
                                      config)
        return generator.generate(size)

    # -- the headline comparison ---------------------------------------------------

    def compare_cost_models(self, models: Sequence[str | CostModel] =
                            DEFAULT_MODELS, k: int = 2,
                            workload: Sequence[AnalyticalQuery] | None = None,
                            dataset_name: str = "?",
                            selection_workload: Sequence[AnalyticalQuery] |
                            None = None,
                            extra_selectors: Sequence[tuple[str, Selector]] |
                            None = None) -> ComparisonReport:
        """Run the demo's cost-model comparison end to end.

        For every model: select k views greedily, materialize them, run the
        workload over G+, measure, drop the views — then report everything
        against the no-views baseline.  ``selection_workload`` (default:
        the lattice proxy) is what drives selection; ``workload`` (default:
        a generated 50-query workload) is what gets executed.

        ``extra_selectors`` adds labelled non-greedy contenders — most
        importantly the paper's model (6): pass
        ``[("user", UserSelection([...]))]`` to put a human selection in
        the same table as the automatic cost models.
        """
        if workload is None:
            workload = self.generate_workload()
        base_run = self.run_workload(workload, force_base=True)
        report = ComparisonReport(
            dataset=dataset_name,
            facet=self._facet.name,
            k=k,
            workload_size=len(workload),
            base_workload_seconds=base_run.total_seconds,
        )
        contenders: list[tuple[str, Selector]] = [
            (model.describe(), GreedySelector(model, seed=self._seed))
            for model in map(self._resolve_model, models)]
        contenders.extend(extra_selectors or ())
        for label, selector in contenders:
            selection = self.select(selector=selector, k=k,
                                    workload=selection_workload)
            with Timer() as materialize_timer:
                catalog = self.materialize(selection)
            run = self.run_workload(workload)
            speedup = (base_run.total_seconds / run.total_seconds
                       if run.total_seconds > 0 else float("inf"))
            report.add(ComparisonRow(
                model=label,
                selected_views=tuple(selection.labels),
                select_seconds=selection.select_seconds,
                materialize_seconds=materialize_timer.seconds,
                storage_triples=catalog.total_triples,
                storage_amplification=catalog.storage_amplification(),
                workload_seconds=run.total_seconds,
                mean_query_seconds=run.mean_seconds,
                hit_rate=run.hit_rate,
                speedup_vs_base=speedup,
            ))
            self.drop_views()
        return report
