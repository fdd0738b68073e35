"""The view router: choosing which materialized view answers a query.

Given an analytical query, the router finds the catalog views that *can*
answer it (dimension coverage, see :func:`repro.views.rewriter.can_answer`)
and picks the one with the lowest predicted cost.  The prediction is the
view's stored group count — the aggregated-values cost model — whatever
model selected the views.
"""

from __future__ import annotations

from typing import Optional

from ..cube.query import AnalyticalQuery
from .catalog import MaterializedView, ViewCatalog

__all__ = ["ViewRouter"]


class ViewRouter:
    """Picks the cheapest usable materialized view, if any.

    ``skip_stale`` excludes views whose base graph moved on since they
    were built: without a refresher in the loop, routing to a stale view
    silently serves frozen data, so a caller that cannot repair views
    (:class:`~repro.core.online.OnlineModule` without a maintainer)
    enables it and falls back to the base graph instead.
    """

    def __init__(self, catalog: ViewCatalog,
                 skip_stale: bool = False) -> None:
        self._catalog = catalog
        self._skip_stale = skip_stale

    @property
    def catalog(self) -> ViewCatalog:
        return self._catalog

    @property
    def skip_stale(self) -> bool:
        return self._skip_stale

    def candidates(self, query: AnalyticalQuery) -> list[MaterializedView]:
        """All usable views, cheapest first (fewest stored groups).

        Ranking ties break *delta-aware* before falling back to mask
        order: among equally-ranked views the one with the lowest
        observed upkeep cost wins — mean patching cost per window when
        the view has maintenance history, build cost otherwise — so
        routing drifts toward views that stay fresh cheaply while the
        graph changes.  (Upkeep is measured wall-clock, so this layer of
        the tie-break reflects the current process's observations; the
        final mask comparison keeps the order fully deterministic when
        histories agree.)
        """
        usable = [entry for entry in
                  self._catalog.covering(query.required_mask)
                  if entry.definition.facet == query.facet
                  and not self._catalog.is_quarantined(entry.definition)]
        if self._skip_stale:
            current = self._catalog.base_version
            usable = [entry for entry in usable
                      if entry.base_version == current]
        usable.sort(key=lambda e: (e.groups, e.upkeep_seconds, e.mask))
        return usable

    def quarantined_candidates(self, query: AnalyticalQuery
                               ) -> list[MaterializedView]:
        """Covering views pulled from serving by quarantine.

        Non-empty means a query falling back to the base graph (or a
        coarser view) is being served *degraded*: a view that would
        normally have answered it is quarantined pending rebuild.
        """
        return [entry for entry in
                self._catalog.covering(query.required_mask)
                if entry.definition.facet == query.facet
                and self._catalog.is_quarantined(entry.definition)]

    def route(self, query: AnalyticalQuery) -> Optional[MaterializedView]:
        """The chosen view, or None when the base graph must answer.

        Quarantined views are never routed — like stale views under
        ``skip_stale``, they fall back to the always-correct base graph.
        """
        usable = self.candidates(query)
        return usable[0] if usable else None
