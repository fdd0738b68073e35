"""EXPLAIN ANALYZE: the algebra tree with measured per-operator cost.

``Executor.run_ids_explained`` times every ``_eval`` dispatch and
returns ``{id(op): stats}`` records; this module folds those records
back onto the (immutable, shared-substructure) algebra tree, computes
exclusive ("self") time by subtracting child-inclusive time, and
renders the familiar plan-tree text.

The plan shown is the plan that ran: a BGP lists its probe order with the
rows after each probe (``6 pattern(s): 2→18 3→18 0→755 …``), a ``Filter``
where it was placed and what it saw and kept there (``filter after
pattern 0: 755→212 rows``, or ``after BGP``; never ran: ``filter``).  A
``Filter*(BGP)`` stack runs as one unit: its BGP and inner filters carry
rows only, its time is the outermost filter's.  Rows sum over evaluations;
the trace is the first one's (``… (first of 2 calls)``).

Two result shapes:

* :class:`QueryExplain` — one engine-level execution: operator tree,
  row counts, decode cost, the materialized table.
* :class:`RoutedExplain` — the online module's full story: the routing
  decision (candidate views, quarantined views, which one answered and
  why, rewrite cost) wrapped around the :class:`QueryExplain` of the
  plan that actually ran.

This module imports the sparql layer, so :mod:`repro.obs` exposes it
lazily — importing ``repro.obs`` alone never pulls in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sparql.algebra import (AlgebraOp, BGPOp, DistinctOp, ExtendOp,
                              FilterOp, GroupOp, JoinOp, LeftJoinOp,
                              OrderByOp, ProjectOp, SliceOp, TableOp,
                              UnionOp, UnitOp)

__all__ = ["ExplainNode", "QueryExplain", "RoutedExplain",
           "build_query_explain"]


def _children_of(op: AlgebraOp) -> tuple[AlgebraOp, ...]:
    if isinstance(op, (JoinOp, LeftJoinOp)):
        return (op.left, op.right)
    if isinstance(op, UnionOp):
        return tuple(op.branches)
    child = getattr(op, "child", None)
    return (child,) if child is not None else ()


def _describe(op: AlgebraOp, stats=None) -> str:
    """What ``op`` is and, from its ``stats``, what the plan did with it."""
    ran = stats.detail if stats is not None else ""
    if ran and stats.calls > 1:  # rows are summed, the trace is one run's
        ran += f" (first of {stats.calls} calls)"
    if isinstance(op, BGPOp):
        return f"{len(op.patterns)} pattern(s)" + (f": {ran}" if ran else "")
    if isinstance(op, FilterOp) and ran:
        return f"filter {ran}: {stats.rows_in}→{stats.rows_out} rows"
    if isinstance(op, FilterOp):  # its condition never ran
        return "filter"
    if isinstance(op, ExtendOp):
        return f"bind ?{op.var.name}"
    if isinstance(op, GroupOp):
        keys = ", ".join(f"?{v.name}" for v in op.keys)
        aggs = ", ".join(f"?{v.name}" for v, _ in op.aggregates)
        return f"by [{keys}] computing [{aggs}]"
    if isinstance(op, ProjectOp):
        return ", ".join(f"?{v.name}" for v in op.variables)
    if isinstance(op, OrderByOp):
        return f"{len(op.conditions)} key(s)"
    if isinstance(op, SliceOp):
        limit = "all" if op.limit is None else op.limit
        return f"offset={op.offset} limit={limit}"
    if isinstance(op, TableOp):
        return f"{len(op.rows)} inline row(s)"
    if isinstance(op, (UnitOp, DistinctOp, JoinOp, LeftJoinOp, UnionOp)):
        return ""
    return ""


@dataclass
class ExplainNode:
    """One operator of the executed plan, with measured cost."""

    operator: str
    detail: str
    calls: int
    rows_in: int
    rows_out: int
    seconds: float              #: inclusive wall time (children included)
    self_seconds: float         #: exclusive wall time
    children: list["ExplainNode"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        label = self.operator + (f" [{self.detail}]" if self.detail else "")
        line = (f"{'  ' * indent}{label}  "
                f"rows={self.rows_out}  calls={self.calls}  "
                f"time={self.seconds * 1e3:.3f}ms  "
                f"self={self.self_seconds * 1e3:.3f}ms")
        return "\n".join([line] + [c.render(indent + 1)
                                   for c in self.children])

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "detail": self.detail,
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": round(self.seconds, 9),
            "self_seconds": round(self.self_seconds, 9),
            "children": [c.to_dict() for c in self.children],
        }

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _build_node(op: AlgebraOp, records: dict) -> ExplainNode:
    stats = records.get(id(op))
    children = [_build_node(c, records) for c in _children_of(op)]
    seconds = stats.seconds if stats is not None else 0.0
    child_seconds = sum(c.seconds for c in children)
    return ExplainNode(
        operator=type(op).__name__.removesuffix("Op"),
        detail=_describe(op, stats),
        calls=stats.calls if stats is not None else 0,
        rows_in=stats.rows_in if stats is not None else 0,
        rows_out=stats.rows_out if stats is not None else 0,
        seconds=seconds,
        self_seconds=max(0.0, seconds - child_seconds),
        children=children,
    )


@dataclass
class QueryExplain:
    """EXPLAIN ANALYZE of one engine-level execution."""

    text: str                   #: the query text (best-effort)
    root: ExplainNode
    rows: int                   #: rows in the decoded result table
    total_seconds: float        #: execute + decode wall clock
    decode_seconds: float       #: total minus plan-inclusive time
    table: object               #: the materialized ResultTable

    def render(self) -> str:
        header = (f"EXPLAIN ANALYZE  rows={self.rows}  "
                  f"total={self.total_seconds * 1e3:.3f}ms  "
                  f"decode={self.decode_seconds * 1e3:.3f}ms")
        return header + "\n" + self.root.render(indent=1)

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "rows": self.rows,
            "total_seconds": round(self.total_seconds, 9),
            "decode_seconds": round(self.decode_seconds, 9),
            "plan": self.root.to_dict(),
        }


def build_query_explain(prepared, table, records: dict,
                        total_seconds: float) -> QueryExplain:
    """Fold executor timing records onto the prepared plan tree."""
    root = _build_node(prepared.plan, records)
    return QueryExplain(
        text=getattr(prepared.ast, "text", "") or "",
        root=root,
        rows=len(table),
        total_seconds=total_seconds,
        decode_seconds=max(0.0, total_seconds - root.seconds),
        table=table,
    )


@dataclass
class RoutedExplain:
    """A :class:`QueryExplain` plus the routing decision around it."""

    query: str                  #: human description of the analytical query
    route: str                  #: "view" or "base"
    why: str                    #: one-line routing rationale
    view: Optional[str]         #: label of the answering view, if any
    candidates: list[dict]      #: considered views: label/groups/stale
    quarantined: list[str]      #: labels excluded by quarantine
    #: seconds to obtain the rewritten plan: a memo lookup on a repeat
    rewrite_seconds: float
    plan: QueryExplain          #: the execution that produced the answer

    def render(self) -> str:
        lines = [f"QUERY  {self.query}",
                 f"ROUTE  {self.route}"
                 + (f" via {self.view}" if self.view else "")
                 + f" — {self.why}"]
        if self.candidates:
            listed = ", ".join(
                f"{c['label']} (groups={c['groups']}"
                + (", stale" if c.get("stale") else "") + ")"
                for c in self.candidates)
            lines.append(f"CANDIDATES  {listed}")
        if self.quarantined:
            lines.append(f"QUARANTINED  {', '.join(self.quarantined)}")
        if self.route == "view":
            lines.append(f"REWRITE  {self.rewrite_seconds * 1e6:.1f} µs")
        lines.append(self.plan.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "route": self.route,
            "why": self.why,
            "view": self.view,
            "candidates": list(self.candidates),
            "quarantined": list(self.quarantined),
            "rewrite_seconds": round(self.rewrite_seconds, 9),
            "plan": self.plan.to_dict(),
        }
