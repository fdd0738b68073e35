"""View definitions: one node of a facet's lattice.

A view V = ⟨X', P, agg(u)⟩ aggregates the facet's pattern over a subset
X' ⊆ X.  The definition is purely symbolic — materialization lives in
:mod:`repro.views`.  Views are identified by their facet plus the bitmask
of X' (bit i ↔ i-th grouping variable of the facet), which makes lattice
algebra (subset tests, parents/children) bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..rdf.namespace import SOFOS
from ..rdf.terms import IRI, Variable
from ..sparql.ast import AggregateExpr, ProjectionItem, SelectQuery
from .facet import AnalyticalFacet

__all__ = ["ViewDefinition", "MEASURE_VAR", "COUNT_VAR", "SUM_VAR"]

#: Internal variables used by materialization queries.
MEASURE_VAR = Variable("__measure")
SUM_VAR = Variable("__sum")
COUNT_VAR = Variable("__count")


@dataclass(frozen=True)
class ViewDefinition:
    """One view of a facet's lattice, identified by its variable bitmask."""

    facet: AnalyticalFacet
    mask: int

    def __post_init__(self) -> None:
        # Range-check through the facet (raises FacetError when invalid).
        self.facet.mask_variables(self.mask)

    # -- identity -----------------------------------------------------------

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        """The grouping variables X' of this view, in canonical order."""
        return self.facet.mask_variables(self.mask)

    @cached_property
    def label(self) -> str:
        """Stable human-readable label, e.g. ``language+year`` or ``apex``."""
        if self.mask == 0:
            return "apex"
        return "+".join(v.name for v in self.variables)

    @cached_property
    def iri(self) -> IRI:
        """The IRI naming this view's materialized graph."""
        return SOFOS[f"view/{self.facet.name}/{self.label}"]

    @property
    def level(self) -> int:
        """Lattice level = |X'| (0 = apex, |X| = finest view)."""
        return bin(self.mask).count("1")

    @property
    def is_apex(self) -> bool:
        return self.mask == 0

    @property
    def is_finest(self) -> bool:
        return self.mask == self.facet.lattice_size - 1

    # -- lattice relations ------------------------------------------------------

    def covers(self, other: "ViewDefinition") -> bool:
        """True when ``other``'s grouping variables are a subset of ours.

        A query grouping on (a subset of) ``other.variables`` can then be
        answered by rolling up this view's groups.
        """
        return (self.facet is other.facet or self.facet == other.facet) \
            and (other.mask & self.mask) == other.mask

    def covers_mask(self, mask: int) -> bool:
        """Bitmask form of :meth:`covers`."""
        return (mask & self.mask) == mask

    # -- queries -------------------------------------------------------------------

    def materialization_query(self) -> SelectQuery:
        """The query whose results this view stores.

        Distributive facets (SUM/COUNT/MIN/MAX) store the aggregate under
        ``?__measure`` plus the group size under ``?__count``.  AVG facets
        store ``?__sum`` and ``?__count`` instead so coarser queries can be
        rolled up exactly (the algebraic decomposition of AVG).
        """
        facet = self.facet
        agg = facet.aggregate
        items: list[ProjectionItem] = [ProjectionItem(v)
                                       for v in self.variables]
        if agg.name == "AVG":
            items.append(ProjectionItem(
                SUM_VAR, AggregateExpr("SUM", agg.operand)))
            items.append(ProjectionItem(
                COUNT_VAR, AggregateExpr("COUNT", agg.operand)))
        else:
            items.append(ProjectionItem(MEASURE_VAR, agg))
            items.append(ProjectionItem(
                COUNT_VAR, AggregateExpr("COUNT", None)))
        return SelectQuery(
            projection=tuple(items),
            where=facet.pattern,
            group_by=self.variables,
        )

    @property
    def stored_columns(self) -> int:
        """Number of value columns each materialized group row carries."""
        return 2  # (measure, count) or (sum, count)

    def triples_per_group(self) -> int:
        """Exact RDF triples the materializer emits per group row.

        One ``sofos:view`` link + one dimension triple per variable + the
        two stored value triples.  Keeping this formula here (next to the
        query that defines a group) lets the profiler predict |G_V| without
        materializing, and the materializer tests pin the two together.
        """
        return 1 + len(self.variables) + self.stored_columns

    def __repr__(self) -> str:
        return (f"<ViewDefinition {self.facet.name}/{self.label} "
                f"level={self.level}>")
