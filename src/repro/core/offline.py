"""The offline module ① : selective view materialization.

Owns the lattice and its profile for one (graph, facet) pair, runs a
selection strategy, and materializes the chosen views into the dataset's
named graphs.  Profiles are computed once per graph version and reused
across every cost model — exactly how the demo explores the same full
lattice under different cost functions.

The whole phase costs one evaluation of the facet pattern: the profiler
leaves its finest group table in the engine's kept-scan slot
(:mod:`repro.cube.rollup`) and every catalog built here shares that
engine, so profile → select → materialize, and each further model of a
comparison, reuse it.  Profile and scan are keyed on ``graph.version``;
:meth:`OfflineModule.release_stale` frees the scan once the graph moved.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..collector import collecting, pause, resume
from ..rdf.dataset import Dataset
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cost.profiler import LatticeProfile
from ..selection.plans import SelectionResult
from ..sparql.engine import QueryEngine
from ..views.catalog import ViewCatalog
from .metrics import Timer

__all__ = ["Selector", "OfflineModule"]


class Selector(Protocol):
    """Anything that picks views: greedy, exhaustive, annealing, a user.
    ``k`` caps their number; None leaves it to the selector (a budget)."""

    def select(self, lattice: ViewLattice, profile: LatticeProfile,
               k: int | None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult: ...


class OfflineModule:
    """View selection + materialization over one dataset and facet."""

    def __init__(self, dataset: Dataset, facet: AnalyticalFacet) -> None:
        self._dataset = dataset
        self._facet = facet
        self._engine = QueryEngine(dataset.default)
        self._lattice = ViewLattice(facet)
        self._profile: LatticeProfile | None = None
        self._profile_version = -1

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def facet(self) -> AnalyticalFacet:
        return self._facet

    @property
    def lattice(self) -> ViewLattice:
        return self._lattice

    @property
    def engine(self) -> QueryEngine:
        """The engine over the base graph G."""
        return self._engine

    def profile(self) -> LatticeProfile:
        """The full-lattice profile of the current base-graph version."""
        version = self._engine.graph.version
        if self._profile is None or self._profile_version != version:
            owner = collecting() and pause()
            try:
                self._profile = LatticeProfile.profile(self._lattice,
                                                       self._engine)
            finally:
                if owner:
                    resume()
            self._profile_version = version
        return self._profile

    def release_stale(self) -> None:
        """Free the kept facet scan once the base graph has moved on (the
        small cached profile is simply re-keyed by the next profile())."""
        self._engine.kept_scan()        # a stale scan is dropped on the look

    def select(self, selector: Selector, k: int | None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult:
        """Run a selection strategy against the cached profile."""
        return selector.select(self._lattice, self.profile(), k, workload)

    def materialize(self, selection: SelectionResult,
                    catalog: ViewCatalog | None = None) -> ViewCatalog:
        """Materialize a selection into (a fresh or given) catalog.

        Passing an existing catalog lets callers accumulate selections;
        already-materialized views are skipped, not rebuilt.  The batch
        goes through the catalog's rollup planner: one shared scan of
        the facet pattern, coarser views derived from finer group
        tables.
        """
        if catalog is None:
            catalog = ViewCatalog(self._dataset, self._engine)
        owner = collecting() and pause()
        try:
            catalog.materialize_all(view for view in selection.views
                                    if view not in catalog)
        finally:
            if owner:
                resume()
        return catalog

    def materialize_full_lattice(self) -> tuple[ViewCatalog, float]:
        """Materialize *every* view (the demo's full-lattice exploration).

        The whole lattice builds as one rollup batch — the cube is
        computed once at the finest grain and every coarser view rolls
        up from it.  Returns the catalog plus total build seconds.
        """
        catalog = ViewCatalog(self._dataset, self._engine)
        with Timer() as timer:
            catalog.materialize_all(self._lattice)
        return catalog, timer.seconds
