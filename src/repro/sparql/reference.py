"""The tuple-at-a-time reference evaluator.

This is the seed engine's recursive-generator executor, retained verbatim
as the semantic oracle for the batched id-space pipeline in
:mod:`repro.sparql.executor`: the parity test suite runs every workload
through both and asserts bag-equal results
(``tests/test_executor_parity.py``).

It is also the EXISTS evaluation engine for the batched executor: EXISTS
wants early termination on the first solution of a nested group under one
concrete binding, which a streaming evaluator does naturally.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from ..errors import ExpressionError, QueryEvaluationError
from ..rdf.graph import Graph
from ..rdf.terms import IRI, Term, Variable
from ..rdf.triples import TriplePattern
from .aggregates import make_accumulator
from .algebra import AlgebraOp, BGPOp, DistinctOp, ExtendOp, FilterOp, \
    GroupOp, JoinOp, LeftJoinOp, OrderByOp, ProjectOp, SliceOp, TableOp, \
    UnionOp, UnitOp, translate_group
from .ast import GroupPattern
from .expr import EvalContext, evaluate, evaluate_ebv
from .values import order_key

__all__ = ["ReferenceExecutor"]

Binding = dict[Variable, Term]

#: Sentinel fed to COUNT(*) accumulators — any non-None term-like value works.
_ROW_MARKER = IRI("urn:sofos:row")


class ReferenceExecutor:
    """Evaluates algebra trees against one graph, one binding at a time."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        # Keyed on the (hashable, frozen) GroupPattern itself: the cache
        # then holds a strong reference, so a collected group's id can
        # never be reused to serve a stale compiled plan.
        self._exists_cache: dict[GroupPattern, AlgebraOp] = {}
        self._ctx = EvalContext(exists=self._exists)

    def run(self, op: AlgebraOp, seed: Binding | None = None
            ) -> Iterator[Binding]:
        """Stream the solutions of ``op``, optionally under a seed binding."""
        return self._eval(op, dict(seed) if seed else {})

    def _exists(self, group: GroupPattern, binding: Binding) -> bool:
        op = self._exists_cache.get(group)
        if op is None:
            op = translate_group(group)
            self._exists_cache[group] = op
        for _ in self._eval(op, binding):
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    def _eval(self, op: AlgebraOp, seed: Binding) -> Iterator[Binding]:
        if isinstance(op, UnitOp):
            return iter([dict(seed)])
        if isinstance(op, BGPOp):
            return self._eval_bgp(op.patterns, seed)
        if isinstance(op, JoinOp):
            return self._eval_join(op, seed)
        if isinstance(op, LeftJoinOp):
            return self._eval_leftjoin(op, seed)
        if isinstance(op, FilterOp):
            return self._eval_filter(op, seed)
        if isinstance(op, UnionOp):
            return self._eval_union(op, seed)
        if isinstance(op, ExtendOp):
            return self._eval_extend(op, seed)
        if isinstance(op, TableOp):
            return self._eval_table(op, seed)
        if isinstance(op, GroupOp):
            return self._eval_groupby(op, seed)
        if isinstance(op, ProjectOp):
            return self._eval_project(op, seed)
        if isinstance(op, DistinctOp):
            return self._eval_distinct(op, seed)
        if isinstance(op, OrderByOp):
            return self._eval_orderby(op, seed)
        if isinstance(op, SliceOp):
            return islice(self._eval(op.child, seed),
                          op.offset,
                          None if op.limit is None else op.offset + op.limit)
        raise QueryEvaluationError(f"unknown operator {type(op).__name__}")

    # -- basic graph patterns -------------------------------------------------

    def _eval_bgp(self, patterns: tuple[TriplePattern, ...], seed: Binding
                  ) -> Iterator[Binding]:
        graph = self._graph
        dictionary = graph.dictionary
        if not patterns:
            yield dict(seed)
            return

        pattern_vars: set[Variable] = set()
        for p in patterns:
            pattern_vars.update(p.variables())

        # Seed variables that occur in the patterns become constants; a seed
        # term missing from the dictionary cannot match anything.
        id_seed: dict[Variable, int] = {}
        for var, term in seed.items():
            if var in pattern_vars:
                tid = dictionary.lookup(term)
                if tid is None:
                    return
                id_seed[var] = tid

        # Compile each pattern into id-space: ('c', id) or ('v', var) per
        # position.  An unseen constant term means zero matches.
        compiled: list[list[tuple[str, object]]] = []
        for p in patterns:
            spec: list[tuple[str, object]] = []
            for position in p:
                if isinstance(position, Variable):
                    if position in id_seed:
                        spec.append(("c", id_seed[position]))
                    else:
                        spec.append(("v", position))
                else:
                    tid = dictionary.lookup(position)
                    if tid is None:
                        return
                    spec.append(("c", tid))
            compiled.append(spec)

        order = self._plan_order(compiled)

        decode = dictionary.decode
        match_ids = graph.match_ids
        n = len(order)

        def step(index: int, bound: dict[Variable, int]) -> Iterator[Binding]:
            if index == n:
                result = dict(seed)
                for var, tid in bound.items():
                    result[var] = decode(tid)
                yield result
                return
            spec = compiled[order[index]]
            lookup: list[Optional[int]] = []
            var_positions: list[tuple[int, Variable]] = []
            for pos, (kind, payload) in enumerate(spec):
                if kind == "c":
                    lookup.append(payload)  # type: ignore[arg-type]
                else:
                    var = payload
                    assert isinstance(var, Variable)
                    tid = bound.get(var)
                    lookup.append(tid)
                    if tid is None:
                        var_positions.append((pos, var))
            for ids in match_ids(lookup[0], lookup[1], lookup[2]):
                extended = bound
                fresh = False
                consistent = True
                for pos, var in var_positions:
                    tid = ids[pos]
                    existing = extended.get(var)
                    if existing is None:
                        if not fresh:
                            extended = dict(extended)
                            fresh = True
                        extended[var] = tid
                    elif existing != tid:
                        consistent = False
                        break
                if consistent:
                    yield from step(index + 1, extended)

        yield from step(0, {})

    def _plan_order(self, compiled: list[list[tuple[str, object]]]
                    ) -> list[int]:
        """Greedy selectivity ordering of BGP patterns.

        The base estimate is the exact count of the pattern's constant
        skeleton; each position that will already be variable-bound when the
        pattern runs divides the estimate (bound joins are selective).
        """
        graph = self._graph
        base: list[int] = []
        for spec in compiled:
            ids = [payload if kind == "c" else None
                   for kind, payload in spec]
            base.append(graph.count_ids(*ids))  # type: ignore[arg-type]

        remaining = list(range(len(compiled)))
        bound_vars: set[Variable] = set()
        order: list[int] = []
        while remaining:
            def score(i: int) -> float:
                estimate = float(base[i])
                for kind, payload in compiled[i]:
                    if kind == "v" and payload in bound_vars:
                        estimate /= 20.0
                return estimate

            best = min(remaining, key=score)
            order.append(best)
            remaining.remove(best)
            for kind, payload in compiled[best]:
                if kind == "v":
                    assert isinstance(payload, Variable)
                    bound_vars.add(payload)
        return order

    # -- joins -----------------------------------------------------------------

    def _eval_join(self, op: JoinOp, seed: Binding) -> Iterator[Binding]:
        for left in self._eval(op.left, seed):
            yield from self._eval(op.right, left)

    def _eval_leftjoin(self, op: LeftJoinOp, seed: Binding
                       ) -> Iterator[Binding]:
        for left in self._eval(op.left, seed):
            matched = False
            for merged in self._eval(op.right, left):
                matched = True
                yield merged
            if not matched:
                yield left

    def _eval_union(self, op: UnionOp, seed: Binding) -> Iterator[Binding]:
        for branch in op.branches:
            yield from self._eval(branch, seed)

    def _eval_table(self, op: TableOp, seed: Binding) -> Iterator[Binding]:
        for row in op.rows:
            merged = dict(seed)
            compatible = True
            for var, term in zip(op.variables, row):
                if term is None:  # UNDEF leaves the variable as-is
                    continue
                existing = merged.get(var)
                if existing is None:
                    merged[var] = term
                elif existing != term:
                    compatible = False
                    break
            if compatible:
                yield merged

    # -- filters, extends ---------------------------------------------------------

    def _eval_filter(self, op: FilterOp, seed: Binding) -> Iterator[Binding]:
        for binding in self._eval(op.child, seed):
            if evaluate_ebv(op.expression, binding, self._ctx):
                yield binding

    def _eval_extend(self, op: ExtendOp, seed: Binding) -> Iterator[Binding]:
        for binding in self._eval(op.child, seed):
            if op.var in binding:
                raise QueryEvaluationError(
                    f"BIND would rebind already-bound variable ?{op.var.name}")
            try:
                value = evaluate(op.expression, binding, self._ctx)
            except ExpressionError:
                value = None
            if value is not None:
                binding = dict(binding)
                binding[op.var] = value
            yield binding

    # -- grouping -------------------------------------------------------------------

    def _eval_groupby(self, op: GroupOp, seed: Binding) -> Iterator[Binding]:
        groups: dict[tuple, list[Binding]] = {}
        for binding in self._eval(op.child, seed):
            key = tuple(binding.get(k) for k in op.keys)
            groups.setdefault(key, []).append(binding)

        if not groups and not op.keys:
            groups[()] = []  # implicit single group over empty input

        for key, members in groups.items():
            accumulators = []
            for var, agg in op.aggregates:
                accumulators.append((var, agg, make_accumulator(
                    agg.name, agg.distinct, agg.separator,
                    count_star=agg.operand is None)))
            for member in members:
                for var, agg, acc in accumulators:
                    if agg.operand is None:
                        acc.add(_ROW_MARKER)
                    else:
                        try:
                            acc.add(evaluate(agg.operand, member, self._ctx))
                        except ExpressionError:
                            acc.add(None)
            out: Binding = {}
            for var_key, term in zip(op.keys, key):
                if term is not None:
                    out[var_key] = term
            for var, _agg, acc in accumulators:
                value = acc.result()
                if value is not None:
                    out[var] = value
            yield out

    # -- solution modifiers ------------------------------------------------------------

    def _eval_project(self, op: ProjectOp, seed: Binding) -> Iterator[Binding]:
        wanted = op.variables
        for binding in self._eval(op.child, seed):
            yield {v: binding[v] for v in wanted if v in binding}

    def _eval_distinct(self, op: DistinctOp, seed: Binding
                       ) -> Iterator[Binding]:
        seen: set[frozenset] = set()
        for binding in self._eval(op.child, seed):
            key = frozenset(binding.items())
            if key not in seen:
                seen.add(key)
                yield binding

    def _eval_orderby(self, op: OrderByOp, seed: Binding) -> Iterator[Binding]:
        solutions = list(self._eval(op.child, seed))

        # Stable-sort from the least-significant condition backwards so the
        # per-condition ascending/descending flags compose correctly.
        for condition in reversed(op.conditions):
            def key(binding: Binding, _c=condition) -> tuple:
                try:
                    return order_key(evaluate(_c.expression, binding, self._ctx))
                except ExpressionError:
                    return (0,)

            solutions.sort(key=key, reverse=not condition.ascending)
        return iter(solutions)
