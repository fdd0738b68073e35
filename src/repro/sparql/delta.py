"""Delta evaluation: a maintenance window as a signed group table.

Given the net insert/delete set of one base-graph update window (a
:class:`~repro.rdf.changelog.GraphDelta`), this module computes how every
group of a facet's aggregation query changes — without re-running the
query over the whole graph.  The result is a *signed*
:class:`~repro.sparql.grouptable.GroupTable` at the facet's finest grain
(Δrows, Δbound, Δsum, the extremum among inserted rows), folded by the
same loop that folds a build's scan; :mod:`repro.views.maintenance`
rolls it up the lattice and merges it into the stored groups.

The algorithm is the telescoping delta rule of a multiway join, adapted
to the batched id-space pipeline.  Writing the facet's BGP as
``Q = R₁ ⋈ … ⋈ Rₙ`` (one relation per triple pattern) and the signed
per-pattern delta as ``ΔRᵢ`` (+1 for inserts, −1 for deletes),

    ΔQ = Q_new − Q_old
       = Σᵢ (⋈_{j<i} Rⱼ_new) ⋈ ΔRᵢ ⋈ (⋈_{j>i} Rⱼ_old)

— one term per *touched* pattern, where inclusion–exclusion over them
costs 2ⁿ−1 passes.  Term ``i`` seeds a
:class:`~repro.sparql.batch.BindingBatch` with the window's triples
matching pattern ``i`` (their signs are the row weights) and extends it
by the other patterns one at a time, in the BGP planner's order for them
under ΔRᵢ's variables (:meth:`Executor.bgp_order`: connected first,
smallest fan-out among them), each through the ordinary batched probe
(:meth:`Executor.run_batch`); weights follow the rows through the
provenance array and the final batch folds into the table
(:meth:`GroupTable.fold`).

The executor only has the *current* graph, so the old state is never
materialized: it is the signed multiset ``Rⱼ_old = Rⱼ_new ⊎ (−ΔRⱼ)``,
applied to the result of probing ``Rⱼ_new`` (:func:`_old_state`) — a row
through a triple inserted in this window is cancelled, the rows a
deleted one used to give are restored.  No store overlay, no second
probe path.

SUM/COUNT/AVG adjustments are exact under both inserts and deletes (AVG
via its algebraic (sum, count) decomposition).  MIN/MAX are distributive
only under inserts, and only delete-free windows offer extrema: there
the folded rows are exactly the new rows of ``Q_new``, each folded once
(by the term of its last inserted pattern), so the offered extremum is
complete.  Under deletions a restored row has positive weight and is
*not* in ``Q_new``; callers must fall back to recomputation.
"""

from __future__ import annotations

from typing import Optional

from ..obs import metrics as _metrics
from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from .algebra import AlgebraOp, BGPOp, FilterOp, UnitOp, translate_group
from .ast import Expression, VarExpr
from .batch import BindingBatch
from .executor import Executor, _lift_exists
from .grouptable import KIND_BY_AGGREGATE, KIND_COUNT, GroupTable

__all__ = ["DeltaPlan", "DeltaEvaluator", "compile_delta_plan"]

IdTriple = tuple[int, int, int]
#: ΔRᵢ: the window's matches of one pattern, and their ±1 signs by row.
PatternDelta = tuple[BindingBatch, list[int]]

_REG = _metrics.registry()
_TERMS = _REG.counter(
    "maintenance_delta_terms_total",
    "telescoping terms evaluated (one per pattern a window touches)")
_ROWS = _REG.counter(
    "maintenance_delta_rows_total",
    "signed rows the delta terms folded into window tables")


class DeltaPlan:
    """A facet's aggregation query in delta-evaluable form.

    Only the SOFOS query class is supported: a basic graph pattern
    (optionally under group-wide FILTERs) grouped on plain variables with
    one rollup aggregate over a plain variable (or ``COUNT(*)``).
    Anything richer — OPTIONAL, UNION, BIND, EXISTS, expression operands
    — is not delta-evaluable and callers must rebuild instead.
    """

    __slots__ = ("patterns", "filters", "group_variables",
                 "measure_variable", "kind", "keep_max")

    def __init__(self, patterns: tuple[TriplePattern, ...],
                 filters: tuple[Expression, ...],
                 group_variables: tuple[Variable, ...],
                 measure_variable: Optional[Variable], kind: str,
                 keep_max: bool) -> None:
        self.patterns = patterns
        self.filters = filters
        self.group_variables = group_variables
        self.measure_variable = measure_variable
        self.kind = kind
        self.keep_max = keep_max

    def __repr__(self) -> str:
        return (f"<DeltaPlan {len(self.patterns)} patterns kind={self.kind} "
                f"groups={[v.name for v in self.group_variables]}>")


def compile_delta_plan(facet) -> Optional[DeltaPlan]:
    """The delta plan for an analytical facet, or None when unsupported.

    ``facet`` is an :class:`~repro.cube.facet.AnalyticalFacet` (typed
    loosely to keep this module free of cube imports).
    """
    op: AlgebraOp = translate_group(facet.pattern)
    filters: list[Expression] = []
    while isinstance(op, FilterOp):
        if _lift_exists(op.expression)[1]:
            return None  # EXISTS reads triples no pattern's ΔRᵢ sees
        filters.append(op.expression)
        op = op.child
    if not isinstance(op, BGPOp) or not op.patterns:
        return None
    kind = KIND_BY_AGGREGATE.get(facet.aggregate.name)
    if kind is None:
        return None
    operand = facet.aggregate.operand
    if operand is None:
        measure_var: Optional[Variable] = None
        if kind != KIND_COUNT:
            return None  # SUM/MIN/MAX need an operand
    elif isinstance(operand, VarExpr):
        measure_var = operand.var
    else:
        return None  # expression operands: not delta-evaluable
    return DeltaPlan(
        patterns=op.patterns,
        filters=tuple(filters),
        group_variables=tuple(facet.grouping_variables),
        measure_variable=measure_var,
        kind=kind,
        keep_max=facet.aggregate.name == "MAX",
    )


class DeltaEvaluator:
    """Turns a net triple delta into a signed group table.

    Bound to one executor (and therefore one graph + dictionary): the
    delta's id-triples must be encoded against that dictionary, which is
    what :meth:`Graph.subscribe` guarantees.
    """

    def __init__(self, executor: Executor, plan: DeltaPlan) -> None:
        self._executor = executor
        self.plan = plan
        self._probes = [BGPOp((p,)) for p in plan.patterns]
        self._filter: Optional[AlgebraOp] = None
        for expression in plan.filters:
            self._filter = FilterOp(expression, self._filter or UnitOp())

    # -- pattern ↔ delta matching -------------------------------------------

    def _pattern_deltas(self, inserted: tuple[IdTriple, ...],
                        deleted: tuple[IdTriple, ...]
                        ) -> Optional[list[Optional[PatternDelta]]]:
        """ΔRᵢ for every pattern, built column-wise (None where empty).

        One pattern's binding determines its triple, so distinct window
        triples give distinct rows and nothing needs deduplicating.  The
        window is bucketed by predicate once; a pattern with a constant
        predicate reads only its bucket.  Returns None when a pattern
        constant was never interned — then neither graph state (nor the
        delta) can match it, so ΔQ = ∅.
        """
        lookup = self._executor._dict.lookup
        signed = [(t, 1) for t in inserted] + [(t, -1) for t in deleted]
        by_predicate: dict[int, list[tuple[IdTriple, int]]] = {}
        for item in signed:
            by_predicate.setdefault(item[0][1], []).append(item)
        deltas: list[Optional[PatternDelta]] = []
        for pattern in self.plan.patterns:
            first: dict[Variable, int] = {}   # variable → first position
            again: list[tuple[int, int]] = []  # (position, first position)
            ids: dict[int, int] = {}          # position → constant id
            for k, position in enumerate(pattern):
                if not isinstance(position, Variable):
                    tid = lookup(position)
                    if tid is None:
                        return None
                    ids[k] = tid
                elif position in first:
                    again.append((k, first[position]))
                else:
                    first[position] = k
            rows = by_predicate.get(ids.pop(1), []) if 1 in ids else signed
            if ids or again:
                rows = [(t, sign) for t, sign in rows
                        if all(t[k] == tid for k, tid in ids.items())
                        and all(t[k] == t[f] for k, f in again)]
            if not rows:
                deltas.append(None)
                continue
            batch = BindingBatch(
                tuple(first), [[t[k] for t, _ in rows] for k in first.values()],
                list(range(len(rows))))
            deltas.append((batch, [sign for _, sign in rows]))
        return deltas

    # -- the telescoping sum ------------------------------------------------

    def term_order(self, i: int) -> list[int]:
        """The order in which term ``i`` extends ΔRᵢ by the other patterns.

        The BGP planner's order for them under ΔRᵢ's variables, asked of
        the executor every window: its one plan cache keeps the plan
        across windows and plans again once the graph has halved or
        doubled (:meth:`Executor.bgp_order`), the rule every query
        follows.  While a pattern constant is unknown to the dictionary
        there is no plan (and :meth:`adjustments` evaluates no term):
        index order.
        """
        patterns = self.plan.patterns
        rest = [j for j in range(len(patterns)) if j != i]
        planned = self._executor.bgp_order(
            tuple(patterns[j] for j in rest), tuple(patterns[i].variables()))
        return rest if planned is None else [rest[k] for k in planned]

    def adjustments(self, inserted: tuple[IdTriple, ...],
                    deleted: tuple[IdTriple, ...]) -> Optional[GroupTable]:
        """The window's signed group table at the facet's finest grain.

        Keys are id tuples over ``plan.group_variables`` in facet order;
        coarser views roll the table up by projection.  Groups may net
        to nothing (:meth:`GroupTable.empty`); an empty table means no
        row of the query changed.  Returns ``None`` when the delta is
        not incrementally evaluable (an unbound or non-numeric SUM/AVG
        operand or an unbound MIN/MAX operand on any folded row,
        whatever its sign) — the caller must rebuild.
        """
        plan = self.plan
        result = GroupTable(self._executor, plan.group_variables, plan.kind,
                            plan.keep_max)
        deltas = self._pattern_deltas(inserted, deleted)
        if deltas is None:
            return result
        run = self._executor.run_batch
        for i, delta in enumerate(deltas):
            if delta is None:
                continue
            cur, weights = delta
            for j in self.term_order(i):
                if not len(cur):
                    break
                out = run(self._probes[j], cur)
                out_weights = [weights[r] for r in out.prov]
                if j > i and deltas[j] is not None:
                    out, out_weights = _old_state(
                        cur, weights, out, out_weights, *deltas[j])
                cur, weights = out, out_weights
            if len(cur):
                cur = cur.renumbered() if self._filter is None \
                    else run(self._filter, cur)
                result.fold(cur, plan.measure_variable, weights,
                            extrema=not deleted)
            if _REG.enabled:
                _TERMS.inc()
                _ROWS.inc(len(cur))
        if None in result.value:
            return None  # the stored measure would be unbound
        return result


def _old_state(cur: BindingBatch, weights: list[int], out: BindingBatch,
               out_weights: list[int], delta: BindingBatch,
               signs: list[int]) -> tuple[BindingBatch, list[int]]:
    """Turn ``out = cur ⋈ Rⱼ_new`` into ``cur ⋈ (Rⱼ_new ⊎ (−ΔRⱼ))``.

    The signed multiset is netted on the spot.  The −1 of an inserted
    triple lands on the very row the probe produced through it, so that
    row is dropped: carried as a cancelling pair it would double at every
    later pattern, and a wholly new row would cost 2ⁿ⁻¹ again.  The +1 of
    a deleted triple restores the rows of ``cur ⋈ ΔRⱼ⁻`` the probe can no
    longer find.  Weights are row-aligned with their batches.
    """
    new = {key for key, sign in zip(delta.row_tuples(), signs) if sign > 0}
    if new:
        keep = [r for r, key in enumerate(out.key_tuples(delta.variables))
                if key not in new]
        out, out_weights = out.gather(keep), [out_weights[r] for r in keep]
    if -1 not in signs:
        return out, out_weights
    gone = delta.gather([d for d, sign in enumerate(signs) if sign < 0])
    shared = [v for v in gone.variables if v in cur.index]
    by_key = gone.group_rows(shared)
    left: list[int] = []    # rows of cur ...
    right: list[int] = []   # ... and the deleted match each one regains
    for r, key in enumerate(cur.key_tuples(shared)):
        for d in by_key.get(key, ()):
            left.append(r)
            right.append(d)
    columns = []
    for var in out.variables:
        k = cur.index.get(var)
        col, rows = (gone.column(var), right) if k is None \
            else (cur.columns[k], left)
        columns.append(out.column(var) + [col[r] for r in rows])
    out_weights = out_weights + [weights[r] for r in left]
    return BindingBatch(out.variables, columns,
                        list(range(len(out_weights)))), out_weights
