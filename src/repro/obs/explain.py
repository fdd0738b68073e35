"""EXPLAIN ANALYZE: the algebra tree with measured per-operator cost.

EXPLAIN is a reading of the span tracer, not a second execution path: the
query is answered the way every query is (``QueryEngine.timed_query``,
``OnlineModule.answer``) under :meth:`~repro.obs.tracing.SpanTracer.capture`,
and this module folds the operator spans of the answering ``executor.run``
back onto the (immutable, shared-substructure) algebra tree — N evaluations
of an operator are N spans — computes exclusive ("self") time by
subtracting child-inclusive time, and renders the familiar plan-tree text.

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

from ..sparql.algebra import (AlgebraOp, BGPOp, ExtendOp, FilterOp, GroupOp,
                              JoinOp, LeftJoinOp, OrderByOp, ProjectOp,
                              SliceOp, TableOp, UnionOp)

__all__ = ["ExplainNode", "QueryExplain", "RoutedExplain",
           "build_query_explain"]


def _children_of(op: AlgebraOp) -> tuple[AlgebraOp, ...]:
    if isinstance(op, (JoinOp, LeftJoinOp)):
        return (op.left, op.right)
    if isinstance(op, UnionOp):
        return tuple(op.branches)
    child = getattr(op, "child", None)
    return (child,) if child is not None else ()


def _describe(op: AlgebraOp, ran: str, rows_in: int, rows_out: int) -> str:
    """What ``op`` is and, from ``ran`` (its first span's ``detail`` tag)
    and its summed rows, what the plan did with it."""
    if isinstance(op, BGPOp):
        return f"{len(op.patterns)} pattern(s)" + (f": {ran}" if ran else "")
    if isinstance(op, FilterOp) and ran:
        return f"filter {ran}: {rows_in}→{rows_out} rows"
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


def _build_node(op: AlgebraOp, spans: dict[int, list]) -> ExplainNode:
    mine = spans.get(id(op), ())
    # a call is a span that carries rows: a filter whose condition never
    # ran (the BGP below it could match nothing) was timed, not called
    calls = [sp.tags for sp in mine if "rows_out" in sp.tags]
    rows_in = sum(tags["rows_in"] for tags in calls)
    rows_out = sum(tags["rows_out"] for tags in calls)
    ran = next((tags["detail"] for tags in calls if tags.get("detail")), "")
    if ran and len(calls) > 1:  # rows are summed, the trace is one run's
        ran += f" (first of {len(calls)} calls)"
    children = [_build_node(c, spans) for c in _children_of(op)]
    seconds = sum(sp.seconds for sp in mine)
    child_seconds = sum(c.seconds for c in children)
    return ExplainNode(
        operator=type(op).__name__.removesuffix("Op"),
        detail=_describe(op, ran, rows_in, rows_out),
        calls=len(calls),
        rows_in=rows_in,
        rows_out=rows_out,
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


def build_query_explain(span, table, total_seconds: float,
                        text: str = "") -> QueryExplain:
    """Fold the operator spans of the run that produced ``table`` onto its
    plan: the last ``executor.run`` at or under ``span`` (a stale view's
    repair runs first), whose one child is the root operator's span."""
    run = [sp for sp in span.walk() if sp.name == "executor.run"][-1]
    spans: dict[int, list] = {}
    for sp in run.walk():
        spans.setdefault(id(sp.ref), []).append(sp)
    root = _build_node(run.children[0].ref, spans)
    return QueryExplain(
        text=text,
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
