"""Abstract syntax tree for the SPARQL fragment.

The tree mirrors the surface syntax; the translation to executable algebra
(join ordering, aggregate extraction, projection) happens in
:mod:`repro.sparql.algebra`.  All nodes are frozen dataclasses so ASTs can
be hashed, cached, and compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..rdf.terms import Term, Variable
from ..rdf.triples import TriplePattern

__all__ = [
    "Expression", "VarExpr", "TermExpr", "OrExpr", "AndExpr", "NotExpr",
    "CompareExpr", "ArithExpr", "NegExpr", "FuncCall", "InExpr",
    "AggregateExpr", "ExistsExpr",
    "PatternElement", "BGPElement", "FilterElement", "OptionalElement",
    "UnionElement", "BindElement", "ValuesElement", "GroupPattern",
    "ProjectionItem", "OrderCondition", "SelectQuery",
    "AGGREGATE_NAMES", "SUBEXPRESSIONS",
]

AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"})


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()

    def variables(self) -> set[Variable]:
        """All variables mentioned anywhere in the expression."""
        out: set[Variable] = set()
        _collect_vars(self, out)
        return out

    def aggregates(self) -> list["AggregateExpr"]:
        """All aggregate sub-expressions, outermost first."""
        out: list[AggregateExpr] = []
        _collect_aggs(self, out)
        return out


@dataclass(frozen=True)
class VarExpr(Expression):
    var: Variable


@dataclass(frozen=True)
class TermExpr(Expression):
    term: Term


@dataclass(frozen=True)
class OrExpr(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class AndExpr(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class NotExpr(Expression):
    operand: Expression


@dataclass(frozen=True)
class CompareExpr(Expression):
    op: str  # = != < <= > >=
    left: Expression
    right: Expression


@dataclass(frozen=True)
class ArithExpr(Expression):
    op: str  # + - * /
    left: Expression
    right: Expression


@dataclass(frozen=True)
class NegExpr(Expression):
    operand: Expression


@dataclass(frozen=True)
class FuncCall(Expression):
    name: str  # normalized upper-case builtin name
    args: tuple[Expression, ...]


@dataclass(frozen=True)
class InExpr(Expression):
    operand: Expression
    options: tuple[Expression, ...]
    negated: bool


@dataclass(frozen=True)
class ExistsExpr(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }`` over a group pattern."""
    group: "GroupPattern"
    negated: bool


@dataclass(frozen=True)
class AggregateExpr(Expression):
    """An aggregate call, e.g. ``SUM(?pop)`` or ``COUNT(DISTINCT ?c)``.

    ``operand is None`` encodes ``COUNT(*)``.
    """

    name: str
    operand: Optional[Expression]
    distinct: bool = False
    separator: str = " "


#: The sub-expression fields of each composite node: one expression
#: (``None`` for ``COUNT(*)``) or a tuple of them.  Others are leaves.
SUBEXPRESSIONS: dict[type, tuple[str, ...]] = {
    OrExpr: ("left", "right"), AndExpr: ("left", "right"),
    CompareExpr: ("left", "right"), ArithExpr: ("left", "right"),
    NotExpr: ("operand",), NegExpr: ("operand",), FuncCall: ("args",),
    InExpr: ("operand", "options"), AggregateExpr: ("operand",)}


def _collect_vars(expr: Expression, out: set[Variable]) -> None:
    if isinstance(expr, VarExpr):
        out.add(expr.var)
    elif isinstance(expr, ExistsExpr):
        out.update(expr.group.variables())
    for name in SUBEXPRESSIONS.get(type(expr), ()):
        sub = getattr(expr, name)
        if type(sub) is tuple:
            for item in sub:
                _collect_vars(item, out)
        elif sub is not None:
            _collect_vars(sub, out)


def _collect_aggs(expr: Expression, out: list["AggregateExpr"]) -> None:
    if isinstance(expr, AggregateExpr):
        out.append(expr)
        return
    for name in SUBEXPRESSIONS.get(type(expr), ()):
        sub = getattr(expr, name)
        if type(sub) is tuple:
            for item in sub:
                _collect_aggs(item, out)
        elif sub is not None:
            _collect_aggs(sub, out)


# --------------------------------------------------------------------------
# Group graph patterns
# --------------------------------------------------------------------------

class PatternElement:
    """Base class for the elements of a group graph pattern."""

    __slots__ = ()


@dataclass(frozen=True)
class BGPElement(PatternElement):
    patterns: tuple[TriplePattern, ...]

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for p in self.patterns:
            out.update(p.variables())
        return out


@dataclass(frozen=True)
class FilterElement(PatternElement):
    expression: Expression


@dataclass(frozen=True)
class OptionalElement(PatternElement):
    group: "GroupPattern"


@dataclass(frozen=True)
class UnionElement(PatternElement):
    branches: tuple["GroupPattern", ...]


@dataclass(frozen=True)
class BindElement(PatternElement):
    expression: Expression
    var: Variable


@dataclass(frozen=True)
class ValuesElement(PatternElement):
    variables: tuple[Variable, ...]
    rows: tuple[tuple[Optional[Term], ...], ...]  # None encodes UNDEF


@dataclass(frozen=True)
class GroupPattern:
    """A ``{ ... }`` group: an ordered sequence of pattern elements."""

    elements: tuple[PatternElement, ...]

    def variables(self) -> set[Variable]:
        """Variables that may be bound by evaluating this group."""
        out: set[Variable] = set()
        for el in self.elements:
            if isinstance(el, BGPElement):
                out.update(el.variables())
            elif isinstance(el, OptionalElement):
                out.update(el.group.variables())
            elif isinstance(el, UnionElement):
                for b in el.branches:
                    out.update(b.variables())
            elif isinstance(el, BindElement):
                out.add(el.var)
            elif isinstance(el, ValuesElement):
                out.update(el.variables)
        return out

    def triple_patterns(self) -> list[TriplePattern]:
        """All triple patterns anywhere in the group (incl. nested)."""
        out: list[TriplePattern] = []
        for el in self.elements:
            if isinstance(el, BGPElement):
                out.extend(el.patterns)
            elif isinstance(el, OptionalElement):
                out.extend(el.group.triple_patterns())
            elif isinstance(el, UnionElement):
                for b in el.branches:
                    out.extend(b.triple_patterns())
        return out

    def filters(self) -> list[Expression]:
        """Top-level FILTER expressions of the group."""
        return [el.expression for el in self.elements
                if isinstance(el, FilterElement)]


# --------------------------------------------------------------------------
# Query
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionItem:
    """One SELECT item: a plain variable or ``(expression AS var)``."""

    var: Variable
    expression: Optional[Expression] = None

    @property
    def is_plain(self) -> bool:
        return self.expression is None


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    ascending: bool = True


GroupCondition = Union[Variable, tuple[Expression, Variable]]


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SELECT query.

    ``projection`` is empty iff ``star`` is True.  ``group_by`` holds plain
    variables (the fragment restricts GROUP BY to variables, matching the
    paper's query class ``SELECT X agg(u) WHERE P GROUP BY X``).
    """

    projection: tuple[ProjectionItem, ...]
    where: GroupPattern
    star: bool = False
    distinct: bool = False
    group_by: tuple[Variable, ...] = ()
    having: tuple[Expression, ...] = ()
    order_by: tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    text: str = field(default="", compare=False)

    @property
    def has_aggregates(self) -> bool:
        """True when projection or HAVING mention aggregates."""
        if self.group_by:
            return True
        for item in self.projection:
            if item.expression is not None and item.expression.aggregates():
                return True
        return any(h.aggregates() for h in self.having)

    def projected_variables(self) -> list[Variable]:
        """The output variables in projection order."""
        if self.star:
            return sorted(self.where.variables())
        return [item.var for item in self.projection]

    def aggregate_items(self) -> list[ProjectionItem]:
        """Projection items whose expression contains an aggregate."""
        return [item for item in self.projection
                if item.expression is not None and item.expression.aggregates()]
