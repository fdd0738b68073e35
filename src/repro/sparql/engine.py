"""The query-engine facade: parse once, plan once, run many times.

:class:`QueryEngine` binds a graph; :class:`PreparedQuery` carries the
parsed AST plus translated algebra and can be executed repeatedly (the
workload runner re-executes the same prepared queries across view
configurations).  ``query()`` is the convenience one-shot — and it caches
its compilations by query text, so a workload replayed as raw strings
still compiles each distinct query once.  That memo serves direct
``QueryEngine.query(text)`` callers; ``Sofos`` keeps the promise for
routed queries with the serving-plan memo of :mod:`repro.core.online`,
which holds rewritten plans and is bounded by the same rule
(:func:`remember`).

Execution goes through the batched id-space executor: the result batch is
decoded column-wise straight into a :class:`ResultTable`, never building a
per-row binding dict.  There is one execution path: ``explain()`` is
``timed_query()`` with the span tracer live, read back as a plan tree.
"""

from __future__ import annotations

import time

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Variable
from .algebra import AlgebraOp, translate_query
from .ast import SelectQuery
from .batch import BindingBatch
from .executor import Executor
from .parser import parse_query
from .results import ResultTable

__all__ = ["PreparedQuery", "QueryEngine", "remember"]

#: How many entries a query-keyed memo keeps (the engine's compilations by
#: text, and each level of the serving-plan memo).
_PREPARED_CACHE_LIMIT = 1024

_REG = _metrics.registry()
_PREPARED_HITS = _REG.counter(
    "engine_prepared_cache_hits_total",
    "string queries answered from the prepared-query memo")
_PREPARED_MISSES = _REG.counter(
    "engine_prepared_cache_misses_total",
    "string queries parsed + translated fresh")


def remember(memo: dict, key, value) -> None:
    """Insert into a bounded memo, evicting its oldest entry at the limit
    (replacing a key's value evicts nothing)."""
    if key not in memo and len(memo) >= _PREPARED_CACHE_LIMIT:
        del memo[next(iter(memo))]
    memo[key] = value


class PreparedQuery:
    """A parsed + translated query, executable against any engine."""

    __slots__ = ("ast", "plan")

    def __init__(self, ast: SelectQuery, plan: AlgebraOp | None = None) -> None:
        self.ast = ast
        self.plan = plan if plan is not None else translate_query(ast)

    @classmethod
    def compile(cls, text: str, prefixes: PrefixMap | None = None
                ) -> "PreparedQuery":
        return cls(parse_query(text, prefixes))

    @property
    def text(self) -> str:
        return self.ast.text

    def __repr__(self) -> str:
        names = ", ".join(f"?{v.name}" for v in self.ast.projected_variables())
        return f"<PreparedQuery SELECT {names}>"


class QueryEngine:
    """Executes SPARQL SELECT queries against one graph."""

    def __init__(self, graph: Graph, prefixes: PrefixMap | None = None) -> None:
        self._graph = graph
        self._prefixes = prefixes
        self._executor = Executor(graph)
        self._prepared: dict[str, PreparedQuery] = {}
        self._scan: tuple[int, object] | None = None    # see keep_scan

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def executor(self) -> Executor:
        """The engine's batched executor (id-space access for the views)."""
        return self._executor

    def prepare(self, query: str | SelectQuery | PreparedQuery
                ) -> PreparedQuery:
        """Compile a query once for repeated execution.

        String queries are memoized by text (bounded), so repeated one-shot
        ``query()`` calls over a fixed workload skip parse + translation.
        """
        if isinstance(query, PreparedQuery):
            return query
        if isinstance(query, SelectQuery):
            return PreparedQuery(query)
        prepared = self._prepared.get(query)
        if prepared is None:
            if _REG.enabled:
                _PREPARED_MISSES.inc()
            prepared = PreparedQuery.compile(query, self._prefixes)
            remember(self._prepared, query, prepared)
        elif _REG.enabled:
            _PREPARED_HITS.inc()
        return prepared

    def keep_scan(self, scan: object) -> None:
        """Keep one whole-graph scan for later callers on this engine: a
        single slot keyed on ``graph.version`` like the BGP-plan cache
        (see :mod:`repro.cube.rollup`; ids are this executor's)."""
        self._scan = (self._graph.version, scan)

    def kept_scan(self) -> object | None:
        """The kept scan, or None; one of an older graph is dropped here,
        so it is never handed out nor kept alive past this look."""
        if self._scan is not None and self._scan[0] != self._graph.version:
            self._scan = None
        return self._scan[1] if self._scan is not None else None

    def query(self, query: str | SelectQuery | PreparedQuery) -> ResultTable:
        """Parse (if needed) and execute, returning a materialized table."""
        prepared = self.prepare(query)
        variables = prepared.ast.projected_variables()
        batch = self._executor.run_ids(prepared.plan)
        return self._decode_table(variables, batch)

    def _decode_table(self, variables: list[Variable],
                      batch: BindingBatch) -> ResultTable:
        if list(batch.variables) != variables:
            # Defensive realignment; plans from translate_query always end
            # in a ProjectOp matching the projection order.
            n = len(batch)
            columns = [batch.columns[batch.index[v]] if v in batch.index
                       else [None] * n for v in variables]
            batch = BindingBatch(tuple(variables), columns, batch.prov)
        return ResultTable(variables, self._executor.decode_batch(batch))

    def explain(self, query: str | SelectQuery | PreparedQuery):
        """EXPLAIN ANALYZE: execute and return the measured plan tree.

        :meth:`timed_query` with the tracer live for the run (hub on or
        off); the returned :class:`~repro.obs.explain.QueryExplain` reads
        its spans: the operator tree with inclusive/exclusive wall time
        and row counts, the decoded result table, that call's wall clock.
        """
        # Imported lazily: obs.explain sits above the sparql layer.
        from ..obs.explain import build_query_explain
        prepared = self.prepare(query)
        with _tracing.tracer().capture() as roots:
            table, total = self.timed_query(prepared)
        return build_query_explain(roots[-1], table, total, prepared.text)

    def timed_query(self, query: str | SelectQuery | PreparedQuery
                    ) -> tuple[ResultTable, float]:
        """Execute and measure wall-clock seconds (result fully drained).

        Preparation cost is excluded when a :class:`PreparedQuery` is
        passed, which is how the benchmark harness isolates execution time
        from parse time.
        """
        prepared = self.prepare(query)
        start = time.perf_counter()
        table = self.query(prepared)
        elapsed = time.perf_counter() - start
        return table, elapsed
