"""Delta evaluation: a maintenance window as a signed group table.

Given the net insert/delete set of one base-graph update window (a
:class:`~repro.rdf.changelog.GraphDelta`), this module computes how every
group of a facet's aggregation query changes — without re-running the
query over the whole graph.  The result is a *signed*
:class:`~repro.sparql.grouptable.GroupTable` at the facet's finest grain
(Δrows, Δbound, Δsum, the extremum among inserted rows), folded by the
same loop that folds a build's scan; :mod:`repro.views.maintenance`
rolls it up the lattice and merges it into the stored groups.

The algorithm is the classic counting/delta-rules decomposition of a
multiway join, adapted to the batched id-space pipeline.  Writing the
facet's BGP as ``Q = R₁ ⋈ … ⋈ Rₙ`` (one relation per triple pattern) and
the signed per-pattern delta as ``ΔRᵢ`` (+1 for inserts, −1 for deletes),
the post-update state satisfies ``Rᵢ_old = Rᵢ_new − ΔRᵢ``, so

    ΔQ = Q_new − Q_old
       = Σ_{∅≠S⊆[n]} (−1)^{|S|+1} (⋈_{i∈S} ΔRᵢ) ⋈ (⋈_{i∉S} Rᵢ_new)

— every term is evaluated against the *current* graph only, which is
exactly what the executor has.  Each subset ``S`` contributes one pass:
the delta triples matching the patterns in ``S`` are joined symbolically
into a seed :class:`~repro.sparql.batch.BindingBatch` (one row per
consistent variable assignment, carrying a signed weight), the remaining
patterns run through the ordinary batched BGP probes, and the output
rows fold into the table with their seed row's weight
(:meth:`GroupTable.fold`).  Subsets with ``|S| ≥ 2`` are the
inclusion–exclusion correction for bindings that touch several changed
triples at once; with small deltas they are near-empty and cheap.

SUM/COUNT/AVG adjustments are exact under both inserts and deletes (AVG
via its algebraic (sum, count) decomposition).  MIN/MAX are distributive
only under inserts: the table keeps each group's extremum over the rows
the single-pattern passes add, and callers must fall back to
recomputation when the window deletes anything.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from .algebra import AlgebraOp, BGPOp, FilterOp, translate_group
from .ast import Expression, VarExpr
from .batch import BindingBatch
from .executor import Executor
from .grouptable import KIND_BY_AGGREGATE, KIND_COUNT, GroupTable

__all__ = ["MAX_SEED_ROWS", "DeltaPlan", "DeltaEvaluator",
           "compile_delta_plan"]

IdTriple = tuple[int, int, int]

#: A subset seed growing past this many rows declines the window: the
#: symbolic join of the delta lists has stopped being cheaper than a scan.
MAX_SEED_ROWS = 100_000


class DeltaPlan:
    """A facet's aggregation query in delta-evaluable form.

    Only the SOFOS query class is supported: a basic graph pattern
    (optionally under group-wide FILTERs) grouped on plain variables with
    one rollup aggregate over a plain variable (or ``COUNT(*)``).
    Anything richer — OPTIONAL, UNION, BIND, expression operands — is not
    delta-evaluable and callers must rebuild instead.
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

    # -- pattern ↔ delta matching -------------------------------------------

    def _pattern_specs(self) -> Optional[list[list[tuple[bool, object]]]]:
        """Per-pattern position specs: (is_constant, id-or-variable).

        Returns None when a pattern constant was never interned — then
        neither the old nor the new graph (nor the delta) can match it, so
        the whole query is empty in both states and ΔQ = ∅.
        """
        lookup = self._executor._dict.lookup
        specs: list[list[tuple[bool, object]]] = []
        for pattern in self.plan.patterns:
            spec: list[tuple[bool, object]] = []
            for position in pattern:
                if isinstance(position, Variable):
                    spec.append((False, position))
                else:
                    tid = lookup(position)
                    if tid is None:
                        return None
                    spec.append((True, tid))
            specs.append(spec)
        return specs

    @staticmethod
    def _match(spec: list[tuple[bool, object]], triple: IdTriple
               ) -> Optional[dict[Variable, int]]:
        """The variable binding of one delta triple against one pattern."""
        binding: dict[Variable, int] = {}
        for (is_const, payload), tid in zip(spec, triple):
            if is_const:
                if payload != tid:
                    return None
            else:
                prev = binding.get(payload)  # type: ignore[arg-type]
                if prev is None:
                    binding[payload] = tid  # type: ignore[index]
                elif prev != tid:
                    return None
        return binding

    # -- the inclusion–exclusion sweep --------------------------------------

    def adjustments(self, inserted: tuple[IdTriple, ...],
                    deleted: tuple[IdTriple, ...]) -> Optional[GroupTable]:
        """The window's signed group table at the facet's finest grain.

        Keys are id tuples over ``plan.group_variables`` in facet order;
        coarser views roll the table up by projection.  Entries may net
        to nothing (:attr:`GroupEntry.empty`); an empty table means no
        row of the query changed.  Returns ``None`` when the delta is
        not incrementally evaluable (an unbound or non-numeric SUM/AVG
        operand, an unbound MIN/MAX operand, or a seed blow-up past
        :data:`MAX_SEED_ROWS`) — the caller must rebuild.
        """
        plan = self.plan
        specs = self._pattern_specs()
        result = GroupTable(self._executor, plan.group_variables, plan.kind,
                            plan.keep_max)
        if specs is None:
            return result

        signed = [(t, 1) for t in inserted] + [(t, -1) for t in deleted]
        matches: list[list[tuple[dict[Variable, int], int]]] = []
        for spec in specs:
            per_pattern = []
            for triple, sign in signed:
                binding = self._match(spec, triple)
                if binding is not None:
                    per_pattern.append((binding, sign))
            matches.append(per_pattern)
        touched = [i for i, m in enumerate(matches) if m]
        if not touched:
            return result

        for size in range(1, len(touched) + 1):
            subset_sign = 1 if size % 2 == 1 else -1
            for subset in combinations(touched, size):
                seed, weights = self._seed_for(subset, matches, subset_sign)
                if seed is None:
                    return None  # seed blow-up
                if not len(seed):
                    continue
                rest = tuple(p for j, p in enumerate(plan.patterns)
                             if j not in subset)
                op: AlgebraOp = BGPOp(rest)
                for expression in plan.filters:
                    op = FilterOp(expression, op)
                result.fold(self._executor.run_batch(op, seed),
                            plan.measure_variable, weights,
                            extrema=size == 1)
        if any(entry.poisoned for entry in result.groups.values()):
            return None  # the stored measure would be unbound
        return result

    def _seed_for(self, subset: tuple[int, ...],
                  matches: list[list[tuple[dict[Variable, int], int]]],
                  subset_sign: int
                  ) -> tuple[Optional[BindingBatch], list[int]]:
        """The seed batch for one pattern subset, plus per-row weights.

        Joins the subset patterns' delta matches on their shared
        variables; identical assignments merge, summing their weights
        (``subset_sign × Π pattern signs``).
        """
        combos: list[tuple[dict[Variable, int], int]] = [({}, subset_sign)]
        bound: set[Variable] = set()
        for i in subset:
            per_pattern = matches[i]
            if not combos or not per_pattern:
                combos = []
                break
            # Hash-join the accumulated combos with this pattern's delta
            # matches on their shared variables, so subset seeding costs
            # output size — not the cross product of the delta lists.
            shared = [v for v in per_pattern[0][0] if v in bound]
            by_key: dict[tuple, list[tuple[dict[Variable, int], int]]] = {}
            for delta_binding, sign in per_pattern:
                key = tuple(delta_binding[v] for v in shared)
                by_key.setdefault(key, []).append((delta_binding, sign))
            extended: list[tuple[dict[Variable, int], int]] = []
            for binding, weight in combos:
                bucket = by_key.get(tuple(binding[v] for v in shared))
                if not bucket:
                    continue
                for delta_binding, sign in bucket:
                    merged = dict(binding)
                    merged.update(delta_binding)
                    extended.append((merged, weight * sign))
                if len(extended) > MAX_SEED_ROWS:
                    return None, []
            combos = extended
            for var in per_pattern[0][0]:
                bound.add(var)
        if not combos:
            return BindingBatch.unit().gather([]), []

        variables = tuple(combos[0][0])
        weight_by_row: dict[tuple, int] = {}
        for binding, weight in combos:
            key = tuple(binding[v] for v in variables)
            weight_by_row[key] = weight_by_row.get(key, 0) + weight
        rows = [(key, w) for key, w in weight_by_row.items() if w]
        columns: list[list] = [[] for _ in variables]
        weights: list[int] = []
        for key, weight in rows:
            for col, tid in zip(columns, key):
                col.append(tid)
            weights.append(weight)
        seed = BindingBatch(variables, columns, list(range(len(rows))))
        return seed, weights
