"""The per-row aggregate folds, and id-space group tables built on them.

:func:`count_bound`, :func:`fold_sum` and :func:`fold_extremum` are the
one implementation of COUNT, SUM/AVG and MIN/MAX over solution rows.
Each walks the rows' dense group ids (:func:`~repro.sparql.batch.dedup_rows`)
with the operand column, in row order, and accumulates into per-group
lists its caller owns: GROUP BY (:meth:`Executor._aggregate_column`)
folds a query's rows, a :class:`GroupTable` a facet scan or a
maintenance window.  The rules are SPARQL's: COUNT counts bound operands
(``COUNT(*)`` every row), an unbound or non-numeric operand *poisons*
SUM/AVG and an unbound one MIN/MAX (no stored measure), and MIN/MAX keep
the extremum id under order semantics, the first row winning a tie.

A build folds the *single* evaluation of a facet's pattern into a table,
every row weighing +1; the delta evaluator (:mod:`repro.sparql.delta`)
folds each term of a maintenance window, with signed row weights, into a
*signed* table — Δrows, Δbound, Δsum, the extremum among inserted rows.
Every coarser granularity of either is derived by
:meth:`GroupTable.project_variables` — classic data-cube rollup (Gray et
al.) over the lattice — without touching the base graph again.  It is
exact for SUM/COUNT/AVG over integer measures (the SOFOS datasets);
float measures can in principle differ in the last ulp from a direct
evaluation's row-order summation.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import itemgetter
from typing import Optional, Sequence

from ..rdf.terms import Variable
from .batch import BindingBatch, dedup_rows

__all__ = ["GroupTable", "NOT_A_NUMBER", "count_bound", "fold_extremum",
           "fold_sum", "poison_unbound",
           "KIND_SUM", "KIND_COUNT", "KIND_MINMAX", "KIND_BY_AGGREGATE"]

#: Aggregate kinds the accumulators distinguish.
KIND_SUM = "sum"        # SUM facets and the (sum, count) half of AVG
KIND_COUNT = "count"    # COUNT facets: the measure *is* a row count
KIND_MINMAX = "minmax"  # MIN/MAX: extremum ids under order semantics

#: The single source of truth mapping rollup aggregates to their kind.
KIND_BY_AGGREGATE = {"SUM": KIND_SUM, "AVG": KIND_SUM,
                     "COUNT": KIND_COUNT, "MIN": KIND_MINMAX,
                     "MAX": KIND_MINMAX}

#: What the number memo holds for an operand that is not a number.
NOT_A_NUMBER = object()


# -- the folds ---------------------------------------------------------------

def count_bound(gids: Sequence[int], column: Sequence, counts: list,
                weights: Optional[Sequence[int]] = None) -> None:
    """Add one (``weights[i]`` for row ``i``) to ``counts[g]`` per row
    whose ``column`` id is bound; the empty column is ``COUNT(*)``."""
    if weights is not None:
        for g, weight, tid in zip(gids, weights, column or repeat(0)):
            if tid is not None:
                counts[g] += weight
    elif None in column:
        for g, tid in zip(gids, column):
            if tid is not None:
                counts[g] += 1
    else:
        for g in gids:
            counts[g] += 1


def fold_sum(gids: Sequence[int], column: Sequence, totals: list,
             numbers: dict, weights: Optional[Sequence[int]] = None
             ) -> None:
    """Add each row's operand (times ``weights[i]``) to ``totals[g]``.

    ``numbers`` is the executor's id → number memo
    (``Executor.numbers``; ``get`` first, as a subscript of a dict
    subclass is the slower hit).  An operand that is not a number — an
    unbound one included — poisons its group: ``totals[g]`` becomes None
    and stays None.  The unweighted loop, GROUP BY's, pays no weight.
    """
    get = numbers.get
    if weights is None:
        for g, tid in zip(gids, column):
            total = totals[g]
            if total is not None:
                value = get(tid)
                if value is None:
                    value = numbers[tid]
                totals[g] = None if value is NOT_A_NUMBER \
                    else total + value
    else:
        for g, tid, weight in zip(gids, column, weights):
            total = totals[g]
            if total is not None:
                value = get(tid)
                if value is None:
                    value = numbers[tid]
                totals[g] = None if value is NOT_A_NUMBER \
                    else total + weight * value


def fold_extremum(gids: Sequence[int], column: Sequence, keys: dict,
                  keep_max: bool, best: list, best_key: list,
                  best_row: list) -> None:
    """Keep per group the operand id of least (``keep_max``: greatest)
    order key, with that key and its row index; the first row wins a
    tie, and so does an extremum already held.  ``keys`` is the
    executor's id → order-key memo (``Executor.order_keys``).  Unbound
    rows offer nothing; their poison is :func:`poison_unbound`'s.
    """
    get = keys.get
    for i, g, tid in zip(count(), gids, column):
        if tid is None:
            continue
        key = get(tid)
        if key is None:
            key = keys[tid]
        held = best_key[g]
        if held is None or (key > held if keep_max else key < held):
            best[g] = tid
            best_key[g] = key
            best_row[g] = i


def poison_unbound(gids: Sequence[int], column: Sequence,
                   measure: list) -> None:
    """Set ``measure[g]`` to None for each group with an unbound row."""
    if None in column:
        for g, tid in zip(gids, column):
            if tid is None:
                measure[g] = None


# -- group tables ------------------------------------------------------------

class GroupTable:
    """Finest-grain aggregation state of one facet scan, in id-space.

    ``groups`` maps group-key id tuples (aligned with ``variables``,
    ``None`` = unbound) to dense group ids in first-row order — the
    group order the executor's GROUP BY produces.  Per group id:

    * ``rows`` — ``COUNT(*)``, the stored ``sofos:groupCount`` of non-AVG
      facets;
    * ``bound`` — bound operands, ``COUNT(?u)``, the stored count of AVG
      facets;
    * ``value`` — the SUM/AVG running total; None when the group's
      measure is poisoned, whatever the kind;
    * ``best`` / ``best_key`` / ``best_row`` — the MIN/MAX extremum id,
      its order key and the row of its fold it came from (None, None, -1
      while no row offered one).

    A table over no variables always holds the one group ``()``, as
    ``GROUP BY ()`` does over no input.  In a signed table (a maintenance
    window's Δ) ``rows``, ``bound`` and ``value`` are net changes and may
    be negative.  Ids belong to the executor the table was built by
    (negative ids are that executor's overlay).
    """

    __slots__ = ("variables", "kind", "keep_max", "executor", "groups",
                 "rows", "bound", "value", "best", "best_key", "best_row")

    def __init__(self, executor, variables: tuple[Variable, ...], kind: str,
                 keep_max: bool = False) -> None:
        self.executor = executor
        self.variables = variables
        self.kind = kind
        self.keep_max = keep_max
        self.groups: dict[tuple, int] = {}
        self.rows: list[int] = []
        self.bound: list[int] = []
        self.value: list[int | float | None] = []
        self.best: list[Optional[int]] = []
        self.best_key: list[Optional[tuple]] = []
        self.best_row: list[int] = []
        if not variables:  # GROUP BY () has its one group over no rows too
            self.group_ids([()])

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        names = "+".join(v.name for v in self.variables) or "()"
        return (f"<GroupTable [{names}] kind={self.kind} "
                f"{len(self.groups)} groups>")

    def group_ids(self, keys: Sequence[tuple]) -> list[int]:
        """The group id of each key; a new key gets the next id and an
        all-zero group."""
        _, gids = dedup_rows(keys, self.groups)
        new = len(self.groups) - len(self.rows)
        if new:
            self.rows += [0] * new
            self.bound += [0] * new
            self.value += [0] * new
            self.best += [None] * new
            self.best_key += [None] * new
            self.best_row += [-1] * new
        return gids

    def empty(self, g: int) -> bool:
        """True for a signed group whose changes net to nothing."""
        return not (self.rows[g] or self.bound[g] or self.value[g]) \
            and self.best[g] is None

    def fold(self, batch: BindingBatch, operand: Optional[Variable],
             weights: Optional[Sequence[int]] = None,
             extrema: bool = True) -> None:
        """Fold a solution batch into the per-group accumulators.

        ``operand`` is the measured variable (None = ``COUNT(*)``); the
        batch is folded in row order, so float summation and MIN/MAX
        tie-breaking match a direct GROUP BY evaluation of the same
        pattern.

        ``weights`` makes the fold a signed one: row ``i`` counts
        ``weights[batch.prov[i]]`` times (the multiplicity of the seed
        row it extends; None = every row once).  An unbound operand
        poisons whatever its weight, but only rows of positive weight
        offer an extremum, and none do when ``extrema`` is off: the
        delta evaluator turns it off for a window that deletes anything,
        where a positive row may be one the old state is restored with —
        not a row of the current query result.
        """
        gids = self.group_ids(batch.key_tuples(self.variables))
        row_weights = None if weights is None \
            else [weights[p] for p in batch.prov]
        count_bound(gids, (), self.rows, row_weights)
        if operand is None:
            return  # COUNT(*): the row count is the whole story
        k = batch.index.get(operand)
        column = batch.columns[k] if k is not None else [None] * len(batch)
        count_bound(gids, column, self.bound, row_weights)
        executor = self.executor
        if self.kind == KIND_SUM:
            fold_sum(gids, column, self.value, executor.numbers,
                     row_weights)
        elif self.kind == KIND_MINMAX:
            poison_unbound(gids, column, self.value)
            if not extrema:
                return
            if row_weights is not None:
                column = [tid if weight > 0 else None
                          for tid, weight in zip(column, row_weights)]
            fold_extremum(gids, column, executor.order_keys,
                          self.keep_max, self.best, self.best_key,
                          self.best_row)

    def project_variables(self, variables: Sequence[Variable]
                          ) -> "GroupTable":
        """Roll this table up to ``variables`` (a subset of ours).

        Finer groups sharing a projected key merge exactly: counts add,
        sums add (poison propagates), extrema compare by order key with
        the earliest originating row winning ties — the associative
        formulation of a direct scan.  Group order is first-seen order
        of the finer groups, which is first-row order.
        """
        index = {v: p for p, v in enumerate(self.variables)}
        positions = [index[v] for v in variables]
        out = GroupTable(self.executor, tuple(variables), self.kind,
                         self.keep_max)
        # itemgetter of one position gives the bare id, so zip wraps it.
        if len(positions) > 1:
            keys = list(map(itemgetter(*positions), self.groups))
        elif positions:
            keys = list(zip(map(itemgetter(*positions), self.groups)))
        else:
            keys = [()] * len(self.groups)
        into = out.group_ids(keys)
        # The finer groups are the rows here: their counts add.
        for counts, finer in ((out.rows, self.rows),
                              (out.bound, self.bound)):
            for t, n in zip(into, finer):
                counts[t] += n
        value = out.value
        for t, v in zip(into, self.value):
            total = value[t]
            if total is not None:
                value[t] = None if v is None else total + v
        if self.kind == KIND_MINMAX:
            keep_max = self.keep_max
            best, best_key, best_row = out.best, out.best_key, out.best_row
            for t, tid, key, row in zip(into, self.best, self.best_key,
                                        self.best_row):
                if tid is None:
                    continue
                held = best_key[t]
                if held is None or (key > held if keep_max
                                    else key < held) \
                        or (key == held and row < best_row[t]):
                    best[t] = tid
                    best_key[t] = key
                    best_row[t] = row
        return out
