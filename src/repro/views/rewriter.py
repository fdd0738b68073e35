"""Query rewriting: translating analytical queries onto materialized views.

Paper §3.2: "the translation straightforwardly substitutes aggregate
variables with the blank nodes representing the aggregation and
reformulates triple patterns accordingly."  Concretely, a query grouping
on X_q with filters over X_f is answered from a view V (with
X_q ∪ X_f ⊆ X_V) by matching V's group nodes on the dimensions it reads
and its stored values, and re-applying the filters on the stored
dimension values.

Precondition: Q' runs over V's own named graph, never over G+ or a
union of views.  Every node there is one of V's groups, and the codec
writes a node's ``sofos:view`` link with its other triples (the patcher
deletes them together), so Q' has no ``sofos:view`` pattern: it would
filter nothing.  The link stays stored; the auditor counts groups by it.
The stored values are read by one of two rules:

* **Rollup** (X_q ⊊ X_V, or X_q = X_V = ∅): re-aggregate per X_q group —
  SUM / COUNT facets with ``SUM(?__measure)``, MIN / MAX with ``MIN`` /
  ``MAX``, AVG with ``SUM(?__sum) / SUM(?__count)`` (exact, because the
  materializer stores the algebraic decomposition).  The apex keeps its
  implicit group, so a view with no stored measure still answers one row.
* **Own grain** (X_q = X_V ≠ ∅): §3.1 stores one node per X_V key, so
  each node *is* one answer row and Q' is a projection with no GROUP BY —
  the stored measure binds straight to the query's alias, and AVG
  divides ``?__sum`` by ``?__count`` per row.
"""

from __future__ import annotations

from ..errors import RewriteError
from ..rdf.namespace import SOFOS
from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from ..cube.query import AnalyticalQuery
from ..cube.view import COUNT_VAR, MEASURE_VAR, SUM_VAR, ViewDefinition
from ..sparql.ast import AggregateExpr, ArithExpr, BGPElement, CompareExpr, \
    FilterElement, FuncCall, GroupPattern, ProjectionItem, SelectQuery, \
    TermExpr, VarExpr
from .materializer import dimension_predicate

__all__ = ["can_answer", "rewrite_on_view"]

_GROUP_NODE = Variable("__group")


def can_answer(view: ViewDefinition, query: AnalyticalQuery) -> bool:
    """True when ``view`` stores enough detail to answer ``query``.

    Requires the same facet and that every variable the query groups or
    filters on is a dimension of the view.
    """
    if view.facet != query.facet:
        return False
    return view.covers_mask(query.required_mask)


def rewrite_on_view(query: AnalyticalQuery, view: ViewDefinition
                    ) -> SelectQuery:
    """The query Q' over the view's graph, equivalent to ``query`` on G.

    Raises :class:`RewriteError` when the view cannot answer the query.
    """
    if not can_answer(view, query):
        raise RewriteError(
            f"view {view.label!r} (vars {[v.name for v in view.variables]}) "
            f"cannot answer query {query.describe()!r}")

    facet = query.facet
    alias = facet.measure_alias
    own_grain = view.mask == query.group_mask != 0
    needed = set(query.group_variables)
    for condition in query.filters:
        needed.add(condition.var)

    patterns = [TriplePattern(_GROUP_NODE, dimension_predicate(var), var)
                for var in facet.grouping_variables  # canonical order
                if var in needed]

    agg_name = facet.aggregate.name
    if agg_name == "AVG":
        patterns.append(TriplePattern(_GROUP_NODE, SOFOS.sum, SUM_VAR))
        patterns.append(TriplePattern(_GROUP_NODE, SOFOS.groupCount,
                                      COUNT_VAR))
        total, count = VarExpr(SUM_VAR), VarExpr(COUNT_VAR)
        if not own_grain:
            total = AggregateExpr("SUM", total)
            count = AggregateExpr("SUM", count)
        # IF guards a zero count (no group, or no bound operand) so Q'
        # matches the base engine's AVG-of-nothing = 0 behaviour.
        measure_expr = FuncCall("IF", (
            CompareExpr(">", count, _zero()),
            ArithExpr("/", total, count),
            _zero(),
        ))
    elif own_grain:
        patterns.append(TriplePattern(_GROUP_NODE, SOFOS.measure, alias))
        measure_expr = None
    else:
        patterns.append(TriplePattern(_GROUP_NODE, SOFOS.measure,
                                      MEASURE_VAR))
        rollup = {"SUM": "SUM", "COUNT": "SUM",
                  "MIN": "MIN", "MAX": "MAX"}[agg_name]
        measure_expr = AggregateExpr(rollup, VarExpr(MEASURE_VAR))

    elements: list = [BGPElement(tuple(patterns))]
    for condition in query.filters:
        elements.append(FilterElement(condition.to_expression()))

    items = [ProjectionItem(v) for v in query.group_variables]
    items.append(ProjectionItem(alias, measure_expr))
    return SelectQuery(
        projection=tuple(items),
        where=GroupPattern(tuple(elements)),
        group_by=() if own_grain else query.group_variables,
    )


def _zero() -> TermExpr:
    from ..rdf.terms import typed_literal
    return TermExpr(typed_literal(0))
