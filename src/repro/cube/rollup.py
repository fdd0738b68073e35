"""The shared facet scan and the finest-first walk over its rollups.

The lattice profile, the view graphs and the workload generator's value
domains are all functions of one id-space group table of the facet's
pattern.  :func:`facet_scan` is the only place that pattern is evaluated
for them, and every facet goes through it: an expression operand is
lifted into the scan plan once and is a variable operand from there on.
:func:`rollup_tables` derives every coarser grain without touching the
graph again.  A scan kept in the engine's version-keyed slot
(:meth:`QueryEngine.keep_scan`) is shared by every consumer holding that
engine, until the first base-graph update.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, NamedTuple, Optional

from ..obs import metrics as _metrics
from ..rdf.terms import Variable
from ..sparql.algebra import ExtendOp
from ..sparql.ast import VarExpr
from ..sparql.engine import QueryEngine
from ..sparql.grouptable import KIND_BY_AGGREGATE, GroupTable
from .facet import AnalyticalFacet
from .lattice import RollupPlan, ViewLattice

__all__ = ["FacetScan", "facet_scan", "rollup_tables"]

_SCANS = _metrics.registry().counter(
    "facet_scan_total", "facet pattern evaluations asked for: run (scan) "
    "or served from the engine's kept scan (reuse)", labels=("outcome",))

#: The scan-plan variable an expression operand is bound to.
_OPERAND_VAR = Variable("__operand")


class FacetScan(NamedTuple):
    """One evaluation of a facet's pattern, folded at ``table.variables``."""

    facet: AnalyticalFacet
    table: GroupTable
    seconds: float      # measured once: prepare + evaluate + fold


def facet_scan(engine: QueryEngine, facet: AnalyticalFacet,
               mask: Optional[int] = None, *, keep: bool = False
               ) -> FacetScan:
    """The facet's group table at ``mask`` (default: finest) or finer.

    The engine's kept scan is reused when it is of this facet and covers
    the mask (callers project by variable); otherwise the pattern runs
    once, and ``keep`` leaves the result for the next caller.  The
    table's ids are the engine graph's, so id-native consumers must
    write into graphs sharing that graph's dictionary.

    An expression operand (``SUM(?v * 2)``) cannot be re-aggregated from
    group accumulators, so it is evaluated per row inside the scan — the
    plan is extended with ``BIND(expr AS ?__operand)`` — and folded as a
    variable operand.  A row whose expression errors leaves the variable
    unbound, which the table treats as the executor's accumulators treat
    the error: poison for SUM/AVG/MIN/MAX, not counted by COUNT.
    """
    aggregate = facet.aggregate
    keys = facet.grouping_variables if mask is None \
        else facet.mask_variables(mask)
    kept = engine.kept_scan()
    if kept is not None and kept.facet == facet \
            and all(key in kept.table.variables for key in keys):
        _SCANS.inc(labels=("reuse",))
        return kept
    start = perf_counter()
    plan = engine.prepare(facet.binding_query()).plan
    operand = aggregate.operand
    if operand is None:
        operand_var = None
    elif isinstance(operand, VarExpr):
        operand_var = operand.var
    else:
        plan = ExtendOp(plan, _OPERAND_VAR, operand)
        operand_var = _OPERAND_VAR
    table = engine.executor.group_table(
        plan, keys, operand_var, KIND_BY_AGGREGATE[aggregate.name],
        keep_max=aggregate.name == "MAX")
    scan = FacetScan(facet, table, perf_counter() - start)
    _SCANS.inc(labels=("scan",))
    if keep:
        engine.keep_scan(scan)
    return scan


def rollup_tables(facet: AnalyticalFacet, plan: RollupPlan,
                  table: GroupTable) -> Iterator[tuple[int, GroupTable]]:
    """``(mask, group table at that grain)`` per plan step, finest first.

    Each step projects from the smallest table built so far that covers
    it (actual group counts), starting from ``table``, which must cover
    the whole plan.
    """
    tables = {facet.subset_mask(table.variables): table}
    for step in plan.steps:
        source = tables[ViewLattice.cheapest_source(
            step.mask, tables, sizes={m: len(t) for m, t in tables.items()})]
        variables = facet.mask_variables(step.mask)
        if source.variables != variables:
            source = source.project_variables(variables)
        tables[step.mask] = source
        yield step.mask, source
