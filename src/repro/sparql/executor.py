"""The algebra executor: batched, id-space evaluation over a graph.

The seed engine evaluated every operator tuple-at-a-time through recursive
generators, copying a ``dict`` per extended binding and decoding ids back
to terms at the BGP boundary — so joins, DISTINCT, and GROUP BY churned on
decoded term objects.  This executor instead pushes *columnar batches of
integer ids* (:class:`~repro.sparql.batch.BindingBatch`) through the whole
algebra tree:

* BGPs are evaluated as batched index probes: each triple pattern is
  probed once per **distinct** bound prefix (not once per row) and the
  matches are fanned back out with a hash join on the prefix;
* a FILTER stacked on a BGP runs right after the probe that binds what
  it reads — or, if it reads one variable that is the object of a
  constant predicate whose distinct objects are fewer than the first
  probe's rows, once per such object before any probe, the accepted ids
  then seeding the BGP;
* Join/OPTIONAL evaluate their right side under a *deduplicated*
  projection of the left batch onto the shared variables, then hash-join
  the result back through the provenance array;
* FILTER, BIND, ORDER BY keys, and aggregate operands are evaluated once
  per distinct operand-id tuple; DISTINCT never leaves id-space;
* GROUP BY gives every row a dense group id in first-row order, in one
  pass over its id key tuples that is the same on every store, and folds
  each aggregate over those row-aligned ids — no member list per group;
* terms are decoded only at the expression/projection boundary: a result
  batch by indexing the dictionary's id → term list (and the overlay).

Terms produced by expressions (BIND values, aggregate results, VALUES
constants unknown to the store) are interned into a private overlay with
negative ids so id equality stays term equality end to end.

Compiled id-space BGP plans (constant ids, probe order, the probe each
FILTER above the BGP runs after, the conditions that may run on a
domain first) are cached per graph version, with the ids each such
condition accepts, so re-running a prepared workload skips
recompilation.

The tuple-at-a-time semantics are preserved exactly; the retained
:class:`~repro.sparql.reference.ReferenceExecutor` is the oracle the parity
suite checks against, and the engine EXISTS is delegated to (EXISTS wants
streaming early termination under a single concrete binding).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as _np

from ..errors import ExpressionError, QueryEvaluationError
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.graph import Graph
from ..rdf.terms import Term, Variable, typed_literal
from ..rdf.triples import TriplePattern
from .aggregates import make_accumulator
from .algebra import AlgebraOp, BGPOp, DistinctOp, ExtendOp, FilterOp, \
    GroupOp, JoinOp, LeftJoinOp, OrderByOp, ProjectOp, SliceOp, TableOp, \
    UnionOp, UnitOp, translate_group
from .ast import AggregateExpr, AndExpr, ArithExpr, CompareExpr, ExistsExpr, \
    Expression, FuncCall, GroupPattern, InExpr, NegExpr, NotExpr, OrExpr, \
    TermExpr, VarExpr
from .batch import BindingBatch, dedup_rows
from .expr import EvalContext, evaluate, evaluate_ebv
from .grouptable import NOT_A_NUMBER, GroupTable, count_bound, \
    fold_extremum, fold_sum, poison_unbound
from .values import numeric_result, order_key, to_number

__all__ = ["Executor"]

Binding = dict[Variable, Term]


class _IdMemo(dict):
    """id → ``compute(id)``, computed on first lookup and kept."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable[[int], object]) -> None:
        super().__init__()
        self._compute = compute

    def __missing__(self, tid: int) -> object:
        value = self[tid] = self._compute(tid)
        return value

# Observability instruments for the executor's hot seams.  Disabled (the
# default) every seam costs one `_REG.enabled` attribute read; the
# instruments only accumulate while the registry is switched on.
_REG = _metrics.registry()
_TRACER = _tracing.tracer()
_BGP_PLAN_HITS = _REG.counter(
    "engine_bgp_plan_cache_hits_total",
    "compiled id-space BGP plan reused from the per-version cache")
_BGP_PLAN_MISSES = _REG.counter(
    "engine_bgp_plan_cache_misses_total",
    "BGP plans compiled fresh (cold cache or graph version moved)")
_DECODE_MEMO_HITS = _REG.counter(
    "engine_decode_memo_hits_total",
    "per-row expression rows answered from the distinct-id memo")
_DECODE_MEMO_MISSES = _REG.counter(
    "engine_decode_memo_misses_total",
    "distinct id tuples that actually decoded + evaluated")
_PROBE_KEYS = _REG.counter(
    "engine_probe_keys_total",
    "distinct probe keys fanned out to the triple index")
_PROBE_ROWS = _REG.counter(
    "engine_probe_rows_total",
    "batch rows entering BGP index probes")
_PROBE_BULK = _REG.counter(
    "engine_probe_bulk_total",
    "whole-batch probes answered by vectorized store kernels",
    labels=("kernel",))
_PUSHDOWN = _REG.counter(
    "sparql_filter_pushdown_total",
    "one-variable FILTERs whose accepted object ids were read before a "
    "BGP: pushed (seeded the probes) or kept (placed as planned)",
    labels=("outcome",))


class Executor:
    """Evaluates algebra trees against one graph, a batch at a time."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._dict = graph.dictionary
        # The whole-batch probe (_probe_bulk): only when the storage
        # backend exposes the bulk kernel API (columnar).  Nothing else in
        # the executor depends on the store.
        self._vec = graph.store.vectorized
        # Overlay interning for query-computed terms: ids -1, -2, ...
        self._extra_by_term: dict[Term, int] = {}
        self._extra_by_id: list[Term] = []
        # Compiled id-space BGP plans, invalidated on graph mutation, and
        # beside them (condition, predicate id) → (the predicate's object
        # ids the condition accepts, how many it read), see _pushdown.
        self._bgp_cache: dict[tuple, object] = {}
        self._accepted: dict[tuple[Expression, int],
                             tuple[list[int], int]] = {}
        self._bgp_cache_version = -1
        # Aggregate value → id, see _encode_numbers.
        self._value_ids: dict[int, int] = {}
        self._value_ids_at = len(self._dict)
        # Operand id → number / order key, the memos of every aggregate
        # fold (repro.sparql.grouptable): an id is decoded at most once,
        # as ids never change meaning.  A term that is not a number, and
        # an unbound operand (None), read as NOT_A_NUMBER.
        self.numbers = _IdMemo(self._number)
        self.numbers[None] = NOT_A_NUMBER
        self.order_keys = _IdMemo(lambda t: order_key(self.decode_id(t)))
        # EXISTS: compiled per group pattern (keyed on the frozen group
        # itself — the strong reference rules out id-reuse staleness) and
        # evaluated by the streaming reference executor for early exit.
        self._exists_cache: dict[GroupPattern, AlgebraOp] = {}
        self._reference = None
        self._ctx = EvalContext(exists=self._exists)

    # -- term ↔ id bridging ---------------------------------------------------

    def encode_term(self, term: Term) -> int:
        """The id of ``term``: its dictionary id, or a negative overlay id."""
        tid = self._dict.lookup(term)
        if tid is not None:
            return tid
        tid = self._extra_by_term.get(term)
        if tid is None:
            self._extra_by_id.append(term)
            tid = -len(self._extra_by_id)
            self._extra_by_term[term] = tid
        return tid

    def decode_id(self, tid: int) -> Term:
        """The term for an id from either the dictionary or the overlay."""
        if tid >= 0:
            return self._dict.decode(tid)
        return self._extra_by_id[-tid - 1]

    def _number(self, tid: int) -> object:
        try:
            return to_number(self.decode_id(tid))
        except ExpressionError:
            return NOT_A_NUMBER

    def decode_batch(self, batch: BindingBatch
                     ) -> list[tuple[Optional[Term], ...]]:
        """All rows of ``batch`` as term tuples (see
        :meth:`BindingBatch.decode_rows`)."""
        return batch.decode_rows(self._dict.id_terms(), self._extra_by_id)

    def _encode_numbers(self, values: Sequence[int | float | None],
                        as_term: Callable[[int | float], Term] = typed_literal
                        ) -> list[Optional[int]]:
        """The ids of ``as_term(v)`` for aggregate results ``values``
        (``None`` stays unbound).

        Ints go through the value → id memo: ``numeric_result`` and
        ``typed_literal`` make the same term of an int, so COUNT, integer
        SUM and integral AVG share it.  Floats bypass it (SUM makes an
        integral float ``xsd:decimal``, AVG ``xsd:double``).  The memo is
        emptied whenever the dictionary has grown since it was filled: a
        memoized overlay id may then name a term :meth:`encode_term` now
        finds in the dictionary (memoized dictionary ids stay valid).
        """
        memo = self._value_ids
        size = len(self._dict)
        if size != self._value_ids_at:
            memo.clear()
            self._value_ids_at = size
        get = memo.get
        encode = self.encode_term
        out: list[Optional[int]] = []
        for value in values:
            if type(value) is int:
                tid = get(value)
                if tid is None:
                    tid = memo[value] = encode(as_term(value))
            else:
                tid = None if value is None else encode(as_term(value))
            out.append(tid)
        return out

    # -- public API -----------------------------------------------------------

    def run(self, op: AlgebraOp, seed: Binding | None = None
            ) -> Iterator[Binding]:
        """Stream the solutions of ``op``, optionally under a seed binding.

        Kept for API compatibility with the seed engine: the batch is
        materialized and decoded first, then yielded row by row (unbound
        variables are absent from the yielded dicts, as before).
        """
        batch = self.run_ids(op, seed)
        variables = batch.variables
        return ({var: term for var, term in zip(variables, row)
                 if term is not None} for row in self.decode_batch(batch))

    def run_ids(self, op: AlgebraOp, seed: Binding | None = None
                ) -> BindingBatch:
        """Evaluate ``op`` and return the raw id-space result batch."""
        if not _TRACER.enabled:
            return self._eval(op, self._seed_batch(seed))
        with _TRACER.span("executor.run", op=type(op).__name__) as sp:
            batch = self._eval(op, self._seed_batch(seed))
            sp.set_tag("rows_out", len(batch))
            return batch

    def group_table(self, op: AlgebraOp, keys: tuple[Variable, ...],
                    operand: Optional[Variable], kind: str,
                    keep_max: bool = False) -> "GroupTable":
        """Evaluate ``op`` once and fold the raw id batch into a group table.

        This is the shared-scan entry point of rollup materialization:
        the facet pattern runs through the pipeline exactly once, and the
        result batch is aggregated at the grain of ``keys`` *before any
        term is decoded* — only distinct operand ids cross the term
        boundary (for numeric/order coercion).  Coarser granularities
        derive from the returned table via
        :meth:`GroupTable.project_variables` instead of re-running the
        query.
        """
        table = GroupTable(self, tuple(keys), kind, keep_max)
        table.fold(self.run_ids(op), operand)
        return table

    def run_batch(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        """Evaluate ``op`` under an explicit id-space seed batch.

        The result batch's provenance array maps every output row back to
        the seed row it extends.  This is the delta-evaluation entry
        point: incremental view maintenance seeds the pipeline with
        batches derived from changed triples and reads the provenance to
        attribute matches (and their signed weights) to delta rows.
        """
        return self._eval(op, seed)

    def _seed_batch(self, seed: Binding | None) -> BindingBatch:
        if not seed:
            return BindingBatch.unit()
        variables = tuple(seed)
        columns = [[self.encode_term(seed[v])] for v in variables]
        return BindingBatch(variables, columns, [0])

    def _exists(self, group: GroupPattern, binding: Binding) -> bool:
        op = self._exists_cache.get(group)
        if op is None:
            op = translate_group(group)
            self._exists_cache[group] = op
        if self._reference is None:
            from .reference import ReferenceExecutor
            self._reference = ReferenceExecutor(self._graph)
        for _ in self._reference.run(op, binding):
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    def _eval(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        if not _TRACER.enabled:
            return self._eval_inner(op, seed)
        with _TRACER.span(type(op).__name__, op) as sp:
            out = self._eval_inner(op, seed)
            if not isinstance(op, FilterOp):  # _keep tags it, where it ran
                sp.set_tags(rows_in=len(seed), rows_out=len(out))
            return out

    @staticmethod
    def _observe(op: AlgebraOp, rows_in: int, rows_out: int,
                 detail: str) -> None:
        """Tag ``op``'s span with what the plan did with it.  The BGP and
        inner filters of a ``Filter*(BGP)`` stack, which :meth:`_eval` did
        not dispatch, are marks under the stack's span: rows, no time."""
        sp = _TRACER.current()
        if sp.ref is not op:
            sp = sp.mark(type(op).__name__, op)
        sp.set_tags(rows_in=rows_in, rows_out=rows_out, detail=detail)

    def _eval_inner(self, op: AlgebraOp, seed: BindingBatch) -> BindingBatch:
        if isinstance(op, UnitOp):
            return seed.renumbered()
        if isinstance(op, BGPOp):
            return self._eval_bgp(op, seed)
        if isinstance(op, JoinOp):
            left = self._eval(op.left, seed)
            return self._bind_right(op.right, left, outer=False)
        if isinstance(op, LeftJoinOp):
            left = self._eval(op.left, seed)
            return self._bind_right(op.right, left, outer=True)
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
            child = self._eval(op.child, seed)
            stop = None if op.limit is None else op.offset + op.limit
            return child.gather(range(len(child))[op.offset:stop])
        raise QueryEvaluationError(f"unknown operator {type(op).__name__}")

    # -- basic graph patterns -------------------------------------------------

    def _compiled_bgp(self, patterns: tuple[TriplePattern, ...],
                      seed_vars: tuple[Variable, ...],
                      wanted: tuple[Optional[frozenset[Variable]], ...] = ()):
        """The cached id-space plan for ``patterns`` under ``seed_vars``.

        ``wanted`` holds, per FILTER stacked on the BGP, the variables its
        condition reads (``None``: EXISTS may read any).  Returns ``(specs,
        steps, late, push)`` — see :meth:`_plan_bgp` — or ``None`` when a
        constant is not in the dictionary (the BGP can match nothing).
        Entries are keyed on the pattern tuple, the seed-variable overlap
        and ``wanted`` (conditions differing in their constants share a
        plan) and dropped wholesale, with the accepted-id memo, when the
        graph version moves.
        """
        graph = self._graph
        if graph.version != self._bgp_cache_version:
            self._bgp_cache.clear()
            self._accepted.clear()
            self._bgp_cache_version = graph.version

        overlap: frozenset[Variable] = frozenset()
        if seed_vars:  # the unit seed of a top-level BGP has none
            pattern_vars = set().union(*(p.variables() for p in patterns))
            overlap = frozenset(v for v in seed_vars if v in pattern_vars)
        key = (patterns, overlap, wanted)
        if key in self._bgp_cache:
            if _REG.enabled:
                _BGP_PLAN_HITS.inc()
            return self._bgp_cache[key]
        if _REG.enabled:
            _BGP_PLAN_MISSES.inc()

        lookup = self._dict.lookup
        specs = [[("v", t) if isinstance(t, Variable) else ("c", lookup(t))
                  for t in p] for p in patterns]
        compiled: Optional[tuple] = None
        if all(payload is not None for spec in specs for _, payload in spec):
            compiled = (specs, *self._plan_bgp(specs, key[1], wanted))
        self._bgp_cache[key] = compiled
        return compiled

    def _plan_bgp(self, specs: list[list[tuple[str, object]]],
                  seed_vars: frozenset[Variable],
                  wanted: tuple[Optional[frozenset[Variable]], ...]
                  ) -> tuple[list[tuple[int, tuple[int, ...]]],
                             tuple[int, ...], Optional[tuple]]:
        """Probe order, filter placement and domain seeds of one BGP:
        ``(steps, late, push)``.

        ``steps``: ``[(pattern index, conditions run right after its
        probe), ...]`` in probe order; ``late``: the conditions run after
        the last probe; ``wanted[k]``: the variables condition ``k`` reads
        (``None``: anything); ``push``: ``None``, or ``(first, candidates)``
        for :meth:`_pushdown`.

        *Order.*  Structural first: a pattern sharing no variable with
        what is bound (seed variables included) is never taken while a
        connected one remains — a cross product only where the BGP is
        one.  Among the candidates the smallest estimated output wins;
        they extend the same batch, so its row count cancels and growth is
        compared: the exact count of the constant skeleton, divided by the
        predicate's distinct subjects for a bound subject and by its
        distinct objects for a bound object — the measured mean fan-out
        (:meth:`Graph.predicate_profile`: per graph version, this BGP's
        predicates, only where two candidates compete).  Ties go to the
        pattern completing a pending condition, then to pattern index
        (``min`` keeps the first of equals).

        *Filters.*  A condition runs right after the first probe at which
        every variable it reads has been bound by a pattern *of this BGP*
        (a seed column may hold unbound rows from an OPTIONAL upstream,
        which the probe fills): selection commutes with a join on bound
        columns — same rows, same multiplicities, an erroring expression
        drops its row early or late alike.  A condition reading a variable
        no pattern binds (or no variable) stays late.

        *Domain seeds.*  A condition reading one variable ``?v`` that is no
        seed variable and is the object of a pattern with a constant
        predicate ``p`` may instead run once on each distinct object of
        ``p``, before any probe, and seed ``?v`` with the ids it accepts
        (the same ``evaluate_ebv`` on the same terms: same rows).  A
        candidate is ``(k, pattern, p, ?v, triples ÷ distinct objects of
        p)``, through the pattern whose ``p`` has the fewest objects, and
        only if those are fewer than ``first``, the estimated rows of the
        first probe: reading a domain must cost less than the probe it may
        save.  None when a condition mentions EXISTS.
        """
        count_ids = self._graph.count_ids
        profile = self._graph.predicate_profile
        pattern_vars = [{payload for kind, payload in spec if kind == "v"}
                        for spec in specs]
        domains: dict[int, tuple[int, int, Variable, int, int]] = {}
        if wanted and None not in wanted:
            for k, need in enumerate(wanted):
                if len(need) != 1 or not need.isdisjoint(seed_vars):
                    continue
                var, = need
                for i, (_, (pkind, pid), (okind, obj)) in enumerate(specs):
                    if pkind == "c" and okind == "v" and obj == var:
                        triples, _, objects = profile(pid)
                        if objects and (k not in domains
                                        or objects < domains[k][4]):
                            domains[k] = (i, pid, var, triples, objects)
        first = 0.0
        all_vars = set().union(*pattern_vars) if wanted else ()
        pending = [k for k, need in enumerate(wanted)
                   if need and need <= all_vars]
        late = tuple(k for k in range(len(wanted)) if k not in pending)
        remaining = list(range(len(specs)))
        bound: set[Variable] = set(seed_vars)
        bgp_bound: set[Variable] = set()
        estimates: dict[int, float] = {}  # dropped when a variable is bound

        def growth(i: int) -> float:
            estimate = estimates.get(i)
            if estimate is None:
                (skind, subject), (pkind, pid), (okind, obj) = specs[i]
                by_subject = skind == "v" and subject in bound
                by_object = okind == "v" and obj in bound
                estimate = count_ids(None if skind == "v" else subject,
                                     None if pkind == "v" else pid,
                                     None if okind == "v" else obj)
                if pkind == "c" and estimate and (by_subject or by_object):
                    _, subjects, objects = profile(pid)
                    if by_subject:
                        estimate /= subjects
                    if by_object:
                        estimate /= objects
                estimates[i] = estimate
            return estimate

        def rank(i: int) -> tuple[float, bool]:
            seen = bgp_bound | pattern_vars[i]
            return growth(i), not any(wanted[k] <= seen for k in pending)

        steps: list[tuple[int, tuple[int, ...]]] = []
        while remaining:
            candidates = [i for i in remaining if
                          not pattern_vars[i].isdisjoint(bound)] or remaining
            best = candidates[0] if len(candidates) == 1 \
                else min(candidates, key=rank if pending else growth)
            if domains and not steps:
                first = growth(best)
            remaining.remove(best)
            new = pattern_vars[best] - bound
            bound |= new
            for i in remaining:
                if not pattern_vars[i].isdisjoint(new):
                    estimates.pop(i, None)
            ready: tuple[int, ...] = ()
            if pending:
                bgp_bound |= pattern_vars[best]
                ready = tuple(k for k in pending if wanted[k] <= bgp_bound)
                pending = [k for k in pending if k not in ready]
            steps.append((best, ready))
        push = tuple((k, i, pid, var, triples / objects)
                     for k, (i, pid, var, triples, objects) in domains.items()
                     if objects < first)
        return steps, late, ((first, push) if push else None)

    def bgp_order(self, patterns: tuple[TriplePattern, ...],
                  seed_vars: tuple[Variable, ...] = ()
                  ) -> Optional[list[int]]:
        """The order in which ``patterns`` are probed under ``seed_vars``.

        The one ordering function: :meth:`_eval_bgp` runs it, the delta
        evaluator orders the rest of a term with it, seeded with ΔRᵢ's
        variables.  ``None``: a constant unknown to the dictionary.
        """
        plan = self._compiled_bgp(patterns, seed_vars)
        return None if plan is None else [i for i, _ in plan[1]]

    def _eval_bgp(self, op: BGPOp, seed: BindingBatch,
                  filters: Sequence[FilterOp] = ()) -> BindingBatch:
        """The planned evaluation of a BGP and the FILTERs stacked on it.

        Patterns are probed in plan order; each of ``filters`` (the stack
        above ``op``, innermost first) runs where the plan placed it.  Under
        a one-row seed, one condition may run first, on its variable's
        domain (see :meth:`_pushdown`): the row is crossed with the
        accepted ids and the other patterns and conditions follow the plan
        made with that variable bound.
        """
        cur = seed.renumbered()
        wanted = tuple(_expr_variables(f.expression) for f in filters)
        plan = self._compiled_bgp(op.patterns, seed.variables, wanted)
        if plan is None:
            return BindingBatch.empty(cur.variables)
        specs, steps, late, push = plan
        tracing = _TRACER.enabled
        trace: list[str] = []
        if push is not None and len(cur) == 1:
            pushed = self._pushdown(push, filters)
            if pushed is not None:
                k, i, var, (accepted, read) = pushed
                if tracing:
                    self._observe(filters[k], read, len(accepted),
                                  f"before pattern {i}")
                cur = BindingBatch(
                    (*cur.variables, var),
                    [col * len(accepted) for col in cur.columns] + [accepted],
                    [0] * len(accepted))
                if not accepted:
                    if tracing:
                        self._observe(op, len(seed), 0, "")
                    return cur
                filters = filters[:k] + filters[k + 1:]
                specs, steps, late, _ = self._compiled_bgp(
                    op.patterns, cur.variables, wanted[:k] + wanted[k + 1:])
        for i, ready in steps:
            cur = self._probe(cur, specs[i])
            if tracing:
                trace.append(f"{i}→{len(cur)}")
            for k in ready:
                cur = self._keep(filters[k], cur, i)
        if tracing:
            self._observe(op, len(seed), len(cur), " ".join(trace))
        for k in late:
            cur = self._keep(filters[k], cur, op)
        return cur

    def _pushdown(self, push: tuple, filters: Sequence[FilterOp]
                  ) -> Optional[tuple]:
        """The condition to run before the probes, or ``None``.

        ``push`` is the plan's ``(first, candidates)`` (see
        :meth:`_plan_bgp`).  Each candidate's accepted ids are read once
        per graph version: the condition evaluated on every distinct
        object of its predicate.  The one with the smallest estimate —
        accepted ids × the predicate's mean triples per object — is
        pushed if that is below ``first``.  Returns ``(k, pattern, ?v,
        (accepted ids, objects read))``.
        """
        first, candidates = push
        memo = self._accepted
        best = None
        for k, i, pid, var, fanout in candidates:
            expr = filters[k].expression
            hit = memo.get((expr, pid))
            if hit is None:
                decode, ctx = self.decode_id, self._ctx
                domain = self._graph.object_domain(pid)
                hit = memo[expr, pid] = (
                    [oid for oid in domain
                     if evaluate_ebv(expr, {var: decode(oid)}, ctx)],
                    len(domain))
            estimate = len(hit[0]) * fanout
            if estimate < first and (best is None or estimate < best[0]):
                best = (estimate, k, i, var, hit)
        if _REG.enabled:
            kept = len(candidates) - (best is not None)
            if best is not None:
                _PUSHDOWN.inc(1, ("pushed",))
            if kept:
                _PUSHDOWN.inc(kept, ("kept",))
        return None if best is None else best[1:]

    def _probe(self, cur: BindingBatch,
               spec: list[tuple[str, object]]) -> BindingBatch:
        """Extend every row of ``cur`` with the matches of one pattern.

        The pattern is probed once per *distinct* probe key (the row's
        current ids for the pattern's bound variables, ``None`` acting as
        a wildcard), and match ids are fanned back across the rows that
        share the key — a hash join between the batch and the index.
        Bound columns pass through untouched; only newly-bound (or
        partially-unbound) variables get columns built in the loop.
        """
        graph = self._graph
        n = len(cur)
        index = cur.index
        cols = cur.columns

        # Classify positions: constant id, bound-variable column, free var.
        const_ids: list[Optional[int]] = [None, None, None]
        pos_vars: list[Optional[Variable]] = [None, None, None]
        bound_cols: list[Optional[list]] = [None, None, None]
        for k, (kind, payload) in enumerate(spec):
            if kind == "c":
                const_ids[k] = payload  # type: ignore[assignment]
            else:
                pos_vars[k] = payload  # type: ignore[assignment]
                ci = index.get(payload)  # type: ignore[arg-type]
                if ci is not None:
                    bound_cols[k] = cols[ci]

        # Variables whose output column must be (re)built: new variables,
        # plus bound ones whose column has unbound holes (OPTIONAL
        # upstream).  Fully-bound columns pass through by gather/sharing.
        rebuild_vars: list[Variable] = []
        rebuild_ord: dict[Variable, int] = {}
        rebuild_first_pos: list[int] = []
        for k in (0, 1, 2):
            var = pos_vars[k]
            if var is None or var in rebuild_ord:
                continue
            col = bound_cols[k]
            if col is None or None in col:
                rebuild_ord[var] = len(rebuild_vars)
                rebuild_vars.append(var)
                rebuild_first_pos.append(k)
        pos_ord: list[Optional[int]] = [
            rebuild_ord.get(pos_vars[k]) if pos_vars[k] is not None else None
            for k in (0, 1, 2)]
        rebuild_cols: list[list] = [[] for _ in rebuild_vars]
        n_rebuild = len(rebuild_vars)

        bound_positions = [k for k in (0, 1, 2) if bound_cols[k] is not None]
        const_positions = [k for k in (0, 1, 2) if const_ids[k] is not None]

        # Columnar stores answer clean probe shapes wholesale: one
        # searchsorted pass over the whole batch instead of one index walk
        # per distinct key.  Repeated pattern variables and holey bound
        # columns need per-row wildcard semantics and stay on the loops.
        if self._vec and n:
            pattern_vars = [v for v in pos_vars if v is not None]
            if (len(set(pattern_vars)) == len(pattern_vars)
                    and all(pos_ord[k] is None for k in bound_positions)):
                out = self._probe_bulk(cur, n, const_ids, bound_cols,
                                       bound_positions, const_positions,
                                       rebuild_vars, rebuild_first_pos)
                if out is not None:
                    return out

        # Group rows by the values of the bound positions only — the
        # constants are shared by every row and stay out of the hash key.
        groups: dict = {}
        if not bound_positions:
            groups[None] = range(n) if n else []
        elif len(bound_positions) == 1:
            for i, key in enumerate(bound_cols[bound_positions[0]]):
                group = groups.get(key)
                if group is None:
                    groups[key] = [i]
                else:
                    group.append(i)
        else:
            for i, key in enumerate(zip(
                    *(bound_cols[k] for k in bound_positions))):
                group = groups.get(key)
                if group is None:
                    groups[key] = [i]
                else:
                    group.append(i)

        if _REG.enabled:
            _PROBE_ROWS.inc(n)
            _PROBE_KEYS.inc(len(groups))

        out_index: list[int] = []

        # Fast path — one clean bound column, one constant, one fresh
        # variable: each group is a single hoisted index-leaf lookup.
        if (len(bound_positions) == 1 and len(const_positions) == 1
                and n_rebuild == 1
                and pos_ord[bound_positions[0]] is None):
            bpos = bound_positions[0]
            fpos = rebuild_first_pos[0]
            leaf = graph.pair_adjacency(bpos, fpos,
                                        const_ids[const_positions[0]])
            free_col = rebuild_cols[0]
            for key, rows in groups.items():
                values = leaf(key)
                if not values:
                    continue
                values = list(values)
                m = len(values)
                if m == 1:
                    out_index.extend(rows)
                    free_col.extend(values * len(rows))
                else:
                    for r in rows:
                        out_index.extend([r] * m)
                    free_col.extend(values * len(rows))
        elif (len(bound_positions) == 1 and len(const_positions) == 2
              and pos_ord[bound_positions[0]] is None):
            # Existence — one clean bound column, two constants: the leaf
            # of ids at the bound position is looked up once and each
            # group is a membership test.
            leaf = graph.adjacent_ids(*const_ids)
            for key, rows in groups.items():
                if key in leaf:
                    out_index.extend(rows)
        else:
            out_index = self._probe_general(
                graph, groups, const_ids, pos_vars, bound_positions,
                pos_ord, rebuild_first_pos, rebuild_cols)

        # Assemble: rebuilt columns were made in the loop; every other
        # column (and provenance) is gathered through out_index — unless
        # the probe kept every row in place (the common one-match-per-row
        # case), where untouched columns are simply shared.
        identity = len(out_index) == n and out_index == list(range(n))
        out_vars = list(cur.variables)
        out_cols: list[list] = []
        for var in cur.variables:
            ordinal = rebuild_ord.get(var)
            if ordinal is not None:
                out_cols.append(rebuild_cols[ordinal])
            elif identity:
                out_cols.append(cols[index[var]])
            else:
                col = cols[index[var]]
                out_cols.append([col[i] for i in out_index])
        for ordinal, var in enumerate(rebuild_vars):
            if var not in index:
                out_vars.append(var)
                out_cols.append(rebuild_cols[ordinal])
        prov = cur.prov
        return BindingBatch(tuple(out_vars), out_cols,
                            prov if identity else [prov[i] for i in out_index])

    def _bulk_gather(self, columns, prov: list, rows) -> tuple[list, list]:
        """Gather batch columns + provenance through a numpy row index.

        Clean int columns gather in C; holey ones (None from OPTIONAL
        upstream) fall back to the python loop per column.
        """
        np = _np
        idx = None
        out_cols = []
        for col in columns:
            try:
                arr = np.asarray(col, dtype=np.int64)
            except (TypeError, ValueError):
                if idx is None:
                    idx = rows.tolist()
                out_cols.append([col[i] for i in idx])
                continue
            out_cols.append(arr[rows].tolist())
        out_prov = np.asarray(prov, dtype=np.int64)[rows].tolist()
        return out_cols, out_prov

    def _probe_bulk(self, cur: BindingBatch, n: int,
                    const_ids: list[Optional[int]],
                    bound_cols: list[Optional[list]],
                    bound_positions: list[int],
                    const_positions: list[int],
                    rebuild_vars: list[Variable],
                    rebuild_first_pos: list[int]
                    ) -> Optional[BindingBatch]:
        """One searchsorted pass for the whole batch (columnar stores).

        Covers the vectorizable probe shapes: constant-skeleton scans,
        leaf probes (one bound + one constant), a-range probes (one
        bound, two free), packed pair probes (two bound, one free), and
        existence masks (one bound + two constants).  Every rebuilt
        variable is fresh in these shapes (a bound one would make its
        column holey, which the caller already excluded), so match ids
        gather straight out of the store's sorted columns.  Returns
        ``None`` when the shape is outside the kernels' reach.
        """
        np = _np
        store = self._graph.store
        nb = len(bound_positions)
        nc = len(const_positions)
        nf = len(rebuild_vars)
        prov = cur.prov

        if nb == 0:
            # Constant skeleton: every row sees the same matches.
            count, value_cols = store.bulk_scan(tuple(const_ids))
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                _PROBE_KEYS.inc(1)
                _PROBE_BULK.inc(1, ("scan",))
            new_vars = tuple(rebuild_vars)
            if count == 0:
                return BindingBatch.empty(cur.variables + new_vars)
            if count == 1:
                out_cols = list(cur.columns)
                for k in rebuild_first_pos:
                    out_cols.append([int(value_cols[k][0])] * n)
                return BindingBatch(cur.variables + new_vars, out_cols, prov)
            rows = np.repeat(np.arange(n), count)
            out_cols, out_prov = self._bulk_gather(cur.columns, prov, rows)
            for k in rebuild_first_pos:
                out_cols.append(np.tile(value_cols[k], n).tolist())
            return BindingBatch(cur.variables + new_vars, out_cols, out_prov)

        if nb == 1 and nc == 2 and nf == 0:
            # Fully grounded per row: a membership mask.
            keys = np.asarray(bound_cols[bound_positions[0]], dtype=np.int64)
            mask = store.bulk_exists(bound_positions[0], tuple(const_ids),
                                     keys)
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                _PROBE_KEYS.inc(int(np.unique(keys).size))
                _PROBE_BULK.inc(1, ("exists",))
            if mask.all():
                return cur
            rows = np.flatnonzero(mask)
            out_cols, out_prov = self._bulk_gather(cur.columns, prov, rows)
            return BindingBatch(cur.variables, out_cols, out_prov)

        if (nb == 1 and (nc, nf) in ((1, 1), (0, 2))) \
                or (nb == 2 and nc == 0 and nf == 1):
            key_arrays = [np.asarray(bound_cols[k], dtype=np.int64)
                          for k in bound_positions]
            starts, ends, value_cols = store.bulk_probe(
                tuple(bound_positions), tuple(const_ids), key_arrays)
            counts = ends - starts
            total = int(counts.sum())
            if _REG.enabled:
                _PROBE_ROWS.inc(n)
                if nb == 1:
                    _PROBE_KEYS.inc(int(np.unique(key_arrays[0]).size))
                else:
                    _PROBE_KEYS.inc(int(np.unique(
                        np.column_stack(key_arrays), axis=0).shape[0]))
                _PROBE_BULK.inc(
                    1, ("pair" if nb == 2 else "leaf" if nc else "range",))
            new_vars = tuple(rebuild_vars)
            if total == 0:
                return BindingBatch.empty(cur.variables + new_vars)
            if total == n and bool((counts == 1).all()):
                # Exactly one match per row: columns pass through shared.
                out_cols = list(cur.columns)
                for k in rebuild_first_pos:
                    out_cols.append(value_cols[k][starts].tolist())
                return BindingBatch(cur.variables + new_vars, out_cols, prov)
            # Ragged gather: row i contributes counts[i] output rows whose
            # match ids are the store rows [starts[i], ends[i]).
            out_rows = np.repeat(np.arange(n), counts)
            prev = np.cumsum(counts) - counts
            gather = (np.arange(total) - np.repeat(prev, counts)
                      + np.repeat(starts, counts))
            out_cols, out_prov = self._bulk_gather(cur.columns, prov,
                                                   out_rows)
            for k in rebuild_first_pos:
                out_cols.append(value_cols[k][gather].tolist())
            return BindingBatch(cur.variables + new_vars, out_cols, out_prov)
        return None

    def _probe_general(self, graph: Graph, groups: dict,
                       const_ids: list[Optional[int]],
                       pos_vars: list[Optional[Variable]],
                       bound_positions: list[int],
                       pos_ord: list[Optional[int]],
                       rebuild_first_pos: list[int],
                       rebuild_cols: list[list]) -> list[int]:
        """The general probe loop: any mix of wildcards per group."""
        out_index: list[int] = []
        n_rebuild = len(rebuild_cols)
        match_ids = graph.match_ids
        adjacent_ids = graph.adjacent_ids
        count_ids = graph.count_ids
        single_bound = len(bound_positions) == 1

        for group_key, rows in groups.items():
            probe: list[Optional[int]] = list(const_ids)
            if single_bound:
                probe[bound_positions[0]] = group_key
            elif bound_positions:
                for k, value in zip(bound_positions, group_key):
                    probe[k] = value
            free = [k for k in (0, 1, 2)
                    if probe[k] is None and pos_vars[k] is not None]
            nrows = len(rows)

            if not free:
                # Fully bound: a pure existence probe.
                if not count_ids(probe[0], probe[1], probe[2]):
                    continue
                out_index.extend(rows)
                for ordinal in range(n_rebuild):
                    rebuild_cols[ordinal].extend(
                        [probe[rebuild_first_pos[ordinal]]] * nrows)
                continue

            if len(free) == 1:
                # One wildcard: the index leaf set *is* the match list.
                values = adjacent_ids(probe[0], probe[1], probe[2])
                if not values:
                    continue
                values = list(values)
                m = len(values)
                for r in rows:
                    out_index.extend([r] * m)
                filled = pos_ord[free[0]]
                rebuild_cols[filled].extend(values * nrows)  # type: ignore
                for ordinal in range(n_rebuild):
                    if ordinal != filled:
                        rebuild_cols[ordinal].extend(
                            [probe[rebuild_first_pos[ordinal]]] * (nrows * m))
                continue

            # Two or three wildcards: walk the index, keeping repeated-
            # variable positions consistent.
            free_vars = [pos_vars[k] for k in free]
            duplicated = len(set(free_vars)) != len(free_vars)
            collected: list[list[int]] = [[] for _ in free]
            for ids in match_ids(probe[0], probe[1], probe[2]):
                if duplicated:
                    seen: dict[Variable, int] = {}
                    ok = True
                    for k in free:
                        var = pos_vars[k]
                        prev = seen.get(var)  # type: ignore[arg-type]
                        if prev is None:
                            seen[var] = ids[k]  # type: ignore[index]
                        elif prev != ids[k]:
                            ok = False
                            break
                    if not ok:
                        continue
                for j, k in enumerate(free):
                    collected[j].append(ids[k])
            m = len(collected[0])
            if not m:
                continue
            for r in rows:
                out_index.extend([r] * m)
            filled_ords: set[int] = set()
            for j, k in enumerate(free):
                ordinal = pos_ord[k]
                if ordinal in filled_ords:  # repeated free var: one column
                    continue
                filled_ords.add(ordinal)  # type: ignore[arg-type]
                rebuild_cols[ordinal].extend(collected[j] * nrows)  # type: ignore
            for ordinal in range(n_rebuild):
                if ordinal not in filled_ords:
                    rebuild_cols[ordinal].extend(
                        [probe[rebuild_first_pos[ordinal]]] * (nrows * m))
        return out_index

    # -- joins -----------------------------------------------------------------

    def _bind_right(self, right_op: AlgebraOp, left: BindingBatch,
                    outer: bool) -> BindingBatch:
        """Join ``left`` with ``right_op`` (outer = OPTIONAL semantics).

        The right side is evaluated under the *deduplicated* projection of
        the left batch onto the variables the right side can observe, then
        hash-joined back onto the full left batch via provenance — the
        right subtree runs once per distinct shared-variable combination
        instead of once per left row.
        """
        mentioned = _op_variables(right_op)
        if mentioned is None:
            shared = left.variables
        else:
            shared = tuple(v for v in left.variables if v in mentioned)

        keys = left.key_tuples(shared)
        by_key, row_map = dedup_rows(keys)
        seed_cols: list[list] = [[] for _ in shared]
        for key in by_key:
            for col, value in zip(seed_cols, key):
                col.append(value)
        sub_seed = BindingBatch(shared, seed_cols,
                                list(range(len(by_key))))
        right = self._eval(right_op, sub_seed)

        matches: dict[int, list[int]] = {}
        for j, s in enumerate(right.prov):
            bucket = matches.get(s)
            if bucket is None:
                matches[s] = [j]
            else:
                bucket.append(j)

        left_set = left.index
        right_only = tuple(v for v in right.variables if v not in left_set)
        out_left: list[int] = []
        out_right: list[Optional[int]] = []  # None = unmatched outer row
        for i in range(len(left)):
            bucket = matches.get(row_map[i])
            if bucket:
                for j in bucket:
                    out_left.append(i)
                    out_right.append(j)
            elif outer:
                out_left.append(i)
                out_right.append(None)

        out_vars = left.variables + right_only
        out_cols: list[list] = []
        right_index = right.index
        for var in left.variables:
            lcol = left.columns[left_set[var]]
            k = right_index.get(var)
            if k is None:
                out_cols.append([lcol[i] for i in out_left])
            else:
                # A shared variable may be unbound on the left (OPTIONAL
                # upstream) and bound by the right side.
                rcol = right.columns[k]
                out_cols.append([
                    lcol[i] if lcol[i] is not None or j is None else rcol[j]
                    for i, j in zip(out_left, out_right)])
        for var in right_only:
            rcol = right.columns[right_index[var]]
            out_cols.append([None if j is None else rcol[j]
                             for j in out_right])
        prov = left.prov
        return BindingBatch(out_vars, out_cols, [prov[i] for i in out_left])

    def _eval_union(self, op: UnionOp, seed: BindingBatch) -> BindingBatch:
        branches = [self._eval(b, seed) for b in op.branches]
        out_vars: list[Variable] = []
        seen: set[Variable] = set()
        for b in branches:
            for v in b.variables:
                if v not in seen:
                    seen.add(v)
                    out_vars.append(v)
        out_cols: list[list] = [[] for _ in out_vars]
        prov: list[int] = []
        for b in branches:
            n = len(b)
            for col, var in zip(out_cols, out_vars):
                k = b.index.get(var)
                if k is None:
                    col.extend([None] * n)
                else:
                    col.extend(b.columns[k])
            prov.extend(b.prov)
        return BindingBatch(tuple(out_vars), out_cols, prov)

    def _eval_table(self, op: TableOp, seed: BindingBatch) -> BindingBatch:
        encode = self.encode_term
        enc_rows = [tuple(None if t is None else encode(t) for t in row)
                    for row in op.rows]
        tvars = op.variables
        new_vars = tuple(v for v in tvars if v not in seed.index)
        out_vars = seed.variables + new_vars
        shared = [(k, seed.index[v]) for k, v in enumerate(tvars)
                  if v in seed.index]

        out_index: list[int] = []
        merged_rows: list[tuple] = []
        seed_cols = seed.columns
        for i in range(len(seed)):
            for row in enc_rows:
                compatible = True
                for tpos, spos in shared:
                    tv = row[tpos]
                    if tv is None:
                        continue
                    sv = seed_cols[spos][i]
                    if sv is not None and sv != tv:
                        compatible = False
                        break
                if compatible:
                    out_index.append(i)
                    merged_rows.append(row)

        out_cols: list[list] = []
        for var in seed.variables:
            col = seed_cols[seed.index[var]]
            if var in tvars:
                tpos = tvars.index(var)
                out_cols.append([
                    col[i] if row[tpos] is None or col[i] is not None
                    else row[tpos]
                    for i, row in zip(out_index, merged_rows)])
            else:
                out_cols.append([col[i] for i in out_index])
        for var in new_vars:
            tpos = tvars.index(var)
            out_cols.append([row[tpos] for row in merged_rows])
        prov = seed.prov
        return BindingBatch(out_vars, out_cols, [prov[i] for i in out_index])

    # -- expression evaluation over batches -----------------------------------

    def _per_row_eval(self, batch: BindingBatch,
                      needed: tuple[Variable, ...],
                      fn: Callable[[Binding], object]) -> list:
        """``fn`` applied to each row's (partial) binding, memoized per
        distinct id tuple — the expression analogue of the batched probe."""
        present = [v for v in needed if v in batch.index]
        decode = self.decode_id
        term_cache: dict[int, Term] = {}

        def binding_for(key: tuple) -> Binding:
            out: Binding = {}
            for var, tid in zip(present, key):
                if tid is None:
                    continue
                term = term_cache.get(tid)
                if term is None:
                    term = decode(tid)
                    term_cache[tid] = term
                out[var] = term
            return out

        if not present:
            value = fn({})
            return [value] * len(batch)
        cols = [batch.columns[batch.index[v]] for v in present]
        memo: dict = {}
        out_values = []
        if len(cols) == 1:
            for tid in cols[0]:
                if tid in memo:
                    out_values.append(memo[tid])
                else:
                    value = fn(binding_for((tid,)))
                    memo[tid] = value
                    out_values.append(value)
            if _REG.enabled:
                _DECODE_MEMO_MISSES.inc(len(memo))
                _DECODE_MEMO_HITS.inc(len(out_values) - len(memo))
            return out_values
        for key in zip(*cols):
            if key in memo:
                out_values.append(memo[key])
            else:
                value = fn(binding_for(key))
                memo[key] = value
                out_values.append(value)
        if _REG.enabled:
            _DECODE_MEMO_MISSES.inc(len(memo))
            _DECODE_MEMO_HITS.inc(len(out_values) - len(memo))
        return out_values

    def _needed_vars(self, batch: BindingBatch,
                     expr: Expression) -> tuple[Variable, ...]:
        """The batch variables an expression evaluation can observe.

        EXISTS sub-groups may reference any outer variable (including some
        its ``variables()`` summary misses, e.g. filter-only mentions), so
        their presence widens the slice to the whole row.
        """
        if _mentions_exists(expr):
            return batch.variables
        evars = expr.variables()
        return tuple(v for v in batch.variables if v in evars)

    def _eval_filter(self, op: FilterOp, seed: BindingBatch) -> BindingBatch:
        stack = [op]
        while isinstance(stack[-1].child, FilterOp):
            stack.append(stack[-1].child)
        base = stack[-1].child
        if isinstance(base, BGPOp):
            # Filter*(BGP): the plan places each condition among the probes.
            return self._eval_bgp(base, seed, stack[::-1])
        return self._keep(op, self._eval(op.child, seed), base)

    def _keep(self, op: FilterOp, batch: BindingBatch,
              after: int | AlgebraOp) -> BindingBatch:
        """The rows of ``batch`` on which ``op``'s condition holds; it runs
        ``after`` a pattern of the BGP below it, or a whole operator."""
        expr = op.expression
        ctx = self._ctx
        flags = self._per_row_eval(
            batch, self._needed_vars(batch, expr),
            lambda binding: evaluate_ebv(expr, binding, ctx))
        keep = [i for i, flag in enumerate(flags) if flag]
        out = batch if len(keep) == len(batch) else batch.gather(keep)
        if _TRACER.enabled:
            # A filter reports the rows its condition saw, where it ran.
            self._observe(op, len(batch), len(out), (
                f"after pattern {after}" if isinstance(after, int)
                else f"after {type(after).__name__.removesuffix('Op')}"))
        return out

    def _eval_extend(self, op: ExtendOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        k = child.index.get(op.var)
        if k is not None and any(v is not None for v in child.columns[k]):
            raise QueryEvaluationError(
                f"BIND would rebind already-bound variable ?{op.var.name}")
        expr = op.expression
        ctx = self._ctx
        encode = self.encode_term

        if isinstance(expr, VarExpr):
            # BIND(?x AS ?y): the column is the value (common for the
            # internal aggregate variables the translator introduces).
            src = child.index.get(expr.var)
            new_col = list(child.columns[src]) if src is not None \
                else [None] * len(child)
        elif isinstance(expr, TermExpr):
            tid = encode(expr.term)
            new_col = [tid] * len(child)
        else:
            def compute(binding: Binding) -> Optional[int]:
                try:
                    value = evaluate(expr, binding, ctx)
                except ExpressionError:
                    return None
                return None if value is None else encode(value)

            new_col = self._per_row_eval(
                child, self._needed_vars(child, expr), compute)
        if k is not None:
            columns = list(child.columns)
            columns[k] = new_col
            return BindingBatch(child.variables, columns, child.prov)
        return BindingBatch(child.variables + (op.var,),
                            child.columns + [new_col], child.prov)

    # -- grouping -------------------------------------------------------------

    def _eval_groupby(self, op: GroupOp, seed: BindingBatch) -> BindingBatch:
        """GROUP BY in one pass over the rows, the same on every store.

        :func:`dedup_rows` gives every row a dense group id in first-row
        order; the distinct keys it collects are the output key columns,
        and every aggregate folds over the row-aligned ids in row order
        (:meth:`_aggregate_column`) — the layout, and the folds, of a
        :class:`~repro.sparql.grouptable.GroupTable`.  No group owns a
        member list.
        """
        child = self._eval(op.child, seed)
        by_key, gids = dedup_rows(child.key_tuples(op.keys))
        if not by_key and not op.keys:
            by_key[()] = 0  # implicit single group over empty input
        groups = len(by_key)
        key_cols = [list(col) for col in zip(*by_key)] if groups \
            else [[] for _ in op.keys]
        agg_cols = [self._aggregate_column(child, agg, gids, groups)
                    for _var, agg in op.aggregates]
        out_vars = op.keys + tuple(var for var, _agg in op.aggregates)
        return BindingBatch(out_vars, key_cols + agg_cols, [0] * groups)

    def _aggregate_column(self, child: BindingBatch, agg: AggregateExpr,
                          gids: list[int], groups: int
                          ) -> list[Optional[int]]:
        """One aggregate over every group, in id-space: a fold over the
        row-aligned group ids ``gids`` in row order.

        Non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a plain variable — the
        whole SOFOS query class — run on ids through the folds of
        :mod:`repro.sparql.grouptable`, the ones view builds and
        maintenance windows run, and never build accumulator objects;
        everything else gets one spec-faithful accumulator per group.
        Row order within a group is kept everywhere, so float summation
        and first-row-wins MIN/MAX ties match the reference.  Two memos
        carry the fast path across queries: operand id → number or order
        key (``numbers``, ``order_keys``), and result value → id
        (:meth:`_encode_numbers`), so an integer COUNT, SUM or AVG result
        is turned into a literal and interned once, not once per group
        per query.  MIN/MAX return an operand id as is; the generic path
        encodes its accumulator's term.
        """
        operand = agg.operand
        fast_col: Optional[list] = None
        if operand is None:  # COUNT(*): no row is unbound
            fast_col = []
        elif not agg.distinct and isinstance(operand, VarExpr):
            k = child.index.get(operand.var)
            fast_col = child.columns[k] if k is not None \
                else [None] * len(child)
        name = agg.name

        if fast_col is not None and name in ("MIN", "MAX"):
            best: list[Optional[int]] = [None] * groups
            fold_extremum(gids, fast_col, self.order_keys,
                          name == "MAX", best, [None] * groups,
                          [-1] * groups)
            poison_unbound(gids, fast_col, best)
            return best

        if fast_col is not None and name in ("COUNT", "SUM", "AVG"):
            counts = [0] * groups
            if name != "SUM":
                count_bound(gids, fast_col, counts)
                if name == "COUNT":
                    return self._encode_numbers(counts)
            totals: list[int | float | None] = [0] * groups
            fold_sum(gids, fast_col, totals, self.numbers)
            if name == "SUM":
                return self._encode_numbers(totals, numeric_result)
            # AVG: an unpoisoned group's rows all bound a number.
            return self._encode_numbers(
                [None if total is None else total / n if n else 0
                 for total, n in zip(totals, counts)], typed_literal)

        # Generic path: one accumulator per group over per-row operand terms.
        ctx = self._ctx

        def compute(binding: Binding, _e=operand):
            try:
                return evaluate(_e, binding, ctx)
            except ExpressionError:
                return None

        values = self._per_row_eval(
            child, self._needed_vars(child, operand), compute)
        accumulators = [make_accumulator(agg.name, agg.distinct,
                                         agg.separator)
                        for _ in range(groups)]
        for g, value in zip(gids, values):
            accumulators[g].add(value)
        encode = self.encode_term
        out = []
        for acc in accumulators:
            result = acc.result()
            out.append(None if result is None else encode(result))
        return out

    # -- solution modifiers ---------------------------------------------------

    def _eval_project(self, op: ProjectOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        n = len(child)
        cols = []
        for var in op.variables:
            k = child.index.get(var)
            cols.append(child.columns[k] if k is not None else [None] * n)
        return BindingBatch(op.variables, cols, child.prov)

    def _eval_distinct(self, op: DistinctOp, seed: BindingBatch
                       ) -> BindingBatch:
        child = self._eval(op.child, seed)
        seen: set[tuple] = set()
        keep: list[int] = []
        for i, row in enumerate(child.row_tuples()):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        if len(keep) == len(child):
            return child
        return child.gather(keep)

    def _eval_orderby(self, op: OrderByOp, seed: BindingBatch) -> BindingBatch:
        child = self._eval(op.child, seed)
        ctx = self._ctx
        idx = list(range(len(child)))
        # Stable-sort from the least-significant condition backwards so the
        # per-condition ascending/descending flags compose correctly.
        for condition in reversed(op.conditions):
            expr = condition.expression

            def compute(binding: Binding, _e=expr) -> tuple:
                try:
                    return order_key(evaluate(_e, binding, ctx))
                except ExpressionError:
                    return (0,)

            sort_keys = self._per_row_eval(
                child, self._needed_vars(child, expr), compute)
            idx.sort(key=sort_keys.__getitem__,
                     reverse=not condition.ascending)
        return child.gather(idx)


# --------------------------------------------------------------------------
# Static analysis helpers
# --------------------------------------------------------------------------

def _mentions_exists(expr: Expression) -> bool:
    if isinstance(expr, ExistsExpr):
        return True
    if isinstance(expr, (OrExpr, AndExpr, CompareExpr, ArithExpr)):
        return _mentions_exists(expr.left) or _mentions_exists(expr.right)
    if isinstance(expr, (NotExpr, NegExpr)):
        return _mentions_exists(expr.operand)
    if isinstance(expr, FuncCall):
        return any(_mentions_exists(a) for a in expr.args)
    if isinstance(expr, InExpr):
        return (_mentions_exists(expr.operand)
                or any(_mentions_exists(o) for o in expr.options))
    if isinstance(expr, AggregateExpr):
        return expr.operand is not None and _mentions_exists(expr.operand)
    return False


def _expr_variables(expr: Expression) -> Optional[frozenset[Variable]]:
    """Variables an expression can observe; None = potentially any (EXISTS)."""
    if _mentions_exists(expr):
        return None
    return frozenset(expr.variables())


def _op_variables(op: AlgebraOp) -> Optional[set[Variable]]:
    """All variables an operator subtree can observe or bind.

    ``None`` means "cannot be determined" (an EXISTS filter may peek at any
    outer variable); callers must then assume the whole seed row matters.
    This drives the deduplicated seeding of join right-hand sides.
    """
    if isinstance(op, UnitOp):
        return set()
    if isinstance(op, BGPOp):
        out: set[Variable] = set()
        for p in op.patterns:
            out.update(p.variables())
        return out
    if isinstance(op, (JoinOp, LeftJoinOp)):
        left = _op_variables(op.left)
        right = _op_variables(op.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(op, UnionOp):
        out = set()
        for branch in op.branches:
            sub = _op_variables(branch)
            if sub is None:
                return None
            out.update(sub)
        return out
    if isinstance(op, FilterOp):
        child = _op_variables(op.child)
        evars = _expr_variables(op.expression)
        if child is None or evars is None:
            return None
        return child | evars
    if isinstance(op, ExtendOp):
        child = _op_variables(op.child)
        evars = _expr_variables(op.expression)
        if child is None or evars is None:
            return None
        return child | evars | {op.var}
    if isinstance(op, TableOp):
        return set(op.variables)
    if isinstance(op, GroupOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        out = child | set(op.keys)
        for var, agg in op.aggregates:
            out.add(var)
            if agg.operand is not None:
                evars = _expr_variables(agg.operand)
                if evars is None:
                    return None
                out.update(evars)
        return out
    if isinstance(op, ProjectOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        return child | set(op.variables)
    if isinstance(op, (DistinctOp, SliceOp)):
        return _op_variables(op.child)
    if isinstance(op, OrderByOp):
        child = _op_variables(op.child)
        if child is None:
            return None
        out = set(child)
        for condition in op.conditions:
            evars = _expr_variables(condition.expression)
            if evars is None:
                return None
            out.update(evars)
        return out
    return None
