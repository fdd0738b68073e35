"""Recognizing raw SPARQL queries as analytical queries over a facet.

The paper's online module receives "any query Q targeting F" (§3.2).  The
structured path (:class:`~repro.cube.query.AnalyticalQuery`) covers
generated workloads; this module covers the demo's interactive case: a
participant types SPARQL, and SOFOS must decide whether the query is an
instance of the facet — same pattern P, grouping on a subset of X, the
facet's aggregate, plus optional FILTER specializations — and if so turn
it into the structured form the router and rewriter understand.

Matching is syntactic up to triple-pattern order and filter placement:
the query must use the facet template's variable names (which is how the
demo presents templates to participants — they parameterize, they do not
alpha-rename).  Anything else falls back to base-graph execution.
"""

from __future__ import annotations

from typing import Optional

from ..cube.facet import AnalyticalFacet
from ..cube.query import AnalyticalQuery, FilterCondition
from ..rdf.terms import Term, Variable
from ..sparql.ast import AggregateExpr, BGPElement, CompareExpr, \
    FilterElement, GroupPattern, SelectQuery, TermExpr, VarExpr
from ..sparql.parser import parse_query

__all__ = ["analyze_query", "match_report"]

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def analyze_query(query: SelectQuery | str, facet: AnalyticalFacet
                  ) -> Optional[AnalyticalQuery]:
    """Recognize ``query`` as an analytical query over ``facet``.

    Returns the structured :class:`AnalyticalQuery` when the query is an
    instance of the facet (see module docstring for the matching rules),
    else ``None``.  The measure alias of the input query is preserved in
    ``label`` handling by the caller; aliases do not affect matching.
    """
    ast = parse_query(query) if isinstance(query, str) else query
    reason = _match(ast, facet)
    return reason if isinstance(reason, AnalyticalQuery) else None


def match_report(query: SelectQuery | str, facet: AnalyticalFacet) -> str:
    """Human-readable reason why a query does / does not match the facet."""
    ast = parse_query(query) if isinstance(query, str) else query
    outcome = _match(ast, facet)
    if isinstance(outcome, AnalyticalQuery):
        return f"matches facet {facet.name!r}: {outcome.describe()}"
    return f"does not match facet {facet.name!r}: {outcome}"


def _match(ast: SelectQuery, facet: AnalyticalFacet):
    """Either an AnalyticalQuery or a string explaining the mismatch."""
    if ast.star or ast.distinct or ast.having or ast.order_by \
            or ast.limit is not None or ast.offset:
        # a view answer is re-aggregated, unordered and uncut
        return ("uses SELECT */DISTINCT/HAVING/ORDER BY/LIMIT/OFFSET, "
                "outside the analytical facet form")

    core, extra_filters = _split_where(ast.where)
    if core is None:
        return "WHERE clause contains non-BGP/FILTER elements"
    facet_core, facet_filters = _split_where(facet.pattern)
    assert facet_core is not None
    if core != facet_core:
        return "graph pattern differs from the facet pattern P"
    if facet_filters and facet_filters != extra_filters[:len(facet_filters)]:
        # facets with built-in filters must keep them verbatim, first
        return "facet's own FILTER constraints are missing"
    extra_filters = extra_filters[len(facet_filters):]

    # projection: plain vars (the grouping) + exactly one aggregate
    plain: list[Variable] = []
    aggregates: list[tuple[Variable, AggregateExpr]] = []
    for item in ast.projection:
        if item.expression is None:
            plain.append(item.var)
        elif isinstance(item.expression, AggregateExpr):
            aggregates.append((item.var, item.expression))
        else:
            return f"projection of ?{item.var.name} is not a plain variable" \
                " or a single aggregate"
    if len(aggregates) != 1:
        return f"expected exactly one aggregate, found {len(aggregates)}"
    _alias, aggregate = aggregates[0]
    if aggregate != facet.aggregate:
        return (f"aggregate {aggregate.name} over "
                f"{_describe_operand(aggregate)} differs from the facet's "
                f"{facet.aggregate.name}")

    group_vars = tuple(ast.group_by)
    if set(plain) != set(group_vars):
        return "projected variables differ from the GROUP BY variables"
    facet_vars = set(facet.grouping_variables)
    for var in group_vars:
        if var not in facet_vars:
            return f"grouping variable ?{var.name} is not a facet dimension"

    conditions: list[FilterCondition] = []
    for expression in extra_filters:
        condition = _as_condition(expression, facet_vars)
        if condition is None:
            return "a FILTER is not a simple comparison on a facet dimension"
        conditions.append(condition)

    return AnalyticalQuery(
        facet=facet,
        group_mask=facet.subset_mask(group_vars),
        filters=tuple(conditions),
    )


def _split_where(where: GroupPattern):
    """(frozenset of triple patterns, ordered filter list), or (None, [])."""
    patterns: set = set()
    filters: list = []
    for element in where.elements:
        if isinstance(element, BGPElement):
            patterns.update(element.patterns)
        elif isinstance(element, FilterElement):
            filters.append(element.expression)
        else:
            return None, []
    return frozenset(patterns), filters


def _as_condition(expression, facet_vars: set[Variable]
                  ) -> Optional[FilterCondition]:
    """Interpret a filter as ``?dim OP constant`` (either side order)."""
    if not isinstance(expression, CompareExpr):
        return None
    left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, TermExpr) and isinstance(right, VarExpr):
        left, right = right, left
        op = _FLIP[op]
    if not (isinstance(left, VarExpr) and isinstance(right, TermExpr)):
        return None
    if left.var not in facet_vars:
        return None
    value = right.term
    if not isinstance(value, Term):
        return None
    return FilterCondition(left.var, op, value)


def _describe_operand(aggregate: AggregateExpr) -> str:
    if aggregate.operand is None:
        return "*"
    variables = sorted(v.name for v in aggregate.operand.variables())
    return "?" + ", ?".join(variables) if variables else "a constant"
