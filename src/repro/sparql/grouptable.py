"""Id-space group tables: the one accumulator algebra of build and upkeep.

A :class:`GroupTable` folds solution batches of a facet's pattern into
per-group accumulators, straight from the executor's
:class:`~repro.sparql.batch.BindingBatch` and entirely in id-space: group
keys are id tuples, SUM/AVG totals are Python numbers, MIN/MAX extrema
are term ids compared by order key.  Every coarser granularity is then
derived by :meth:`GroupTable.project` — classic data-cube rollup (Gray et
al.) over the lattice — without touching the base graph again.

Two producers run the same :meth:`GroupTable.fold` loop.  A build folds
the *single* evaluation of the facet pattern, every row weighing +1
(:meth:`GroupTable.from_batch`).  The delta evaluator
(:mod:`repro.sparql.delta`) folds each term of a maintenance window, with
signed row weights, into one *signed* table — Δrows, Δbound, Δsum, the
extremum among inserted rows — that rolls up through the same ``project``.

The accumulators replicate the executor's aggregate semantics exactly so
a view encoded from a table is triple-for-triple identical to one built
by running its materialization query:

* ``rows`` is ``COUNT(*)`` (the stored ``sofos:groupCount`` of non-AVG
  facets); ``bound`` counts bound operands (``COUNT(?u)``, the stored
  count of AVG facets) — bound-but-non-numeric operands still count;
* SUM/AVG totals *poison* (aggregate unbound → no stored measure) on any
  unbound or non-numeric operand, exactly like the executor's fast path;
* MIN/MAX keep the extremum id under SPARQL order semantics with
  first-row tie-breaking, so projections merge associatively to the same
  winner the executor's member-order scan picks.

Projection is exact for SUM/COUNT/AVG over integer measures (the SOFOS
datasets) because integer addition is associative; float measures can in
principle differ in the last ulp from a direct evaluation's row-order
summation.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Optional, Sequence

from ..errors import ExpressionError
from ..rdf.terms import Variable
from .batch import BindingBatch
from .values import order_key, to_number

__all__ = ["GroupEntry", "GroupTable",
           "KIND_SUM", "KIND_COUNT", "KIND_MINMAX", "KIND_BY_AGGREGATE"]

#: Aggregate kinds the accumulators distinguish.
KIND_SUM = "sum"        # SUM facets and the (sum, count) half of AVG
KIND_COUNT = "count"    # COUNT facets: the measure *is* a row count
KIND_MINMAX = "minmax"  # MIN/MAX: extremum ids under order semantics

#: The single source of truth mapping rollup aggregates to their kind.
KIND_BY_AGGREGATE = {"SUM": KIND_SUM, "AVG": KIND_SUM,
                     "COUNT": KIND_COUNT, "MIN": KIND_MINMAX,
                     "MAX": KIND_MINMAX}

#: Memo sentinel for "operand decoded to a non-numeric term".
_NOT_NUMERIC = object()


class GroupEntry:
    """Accumulators of one group: COUNT(*), COUNT(u), and the measure.

    ``value`` is the running operand sum (sum kind); ``best_id`` /
    ``best_key`` / ``best_row`` track the extremum id, its order key, and
    the batch row it came from (minmax kind — ``best_row`` makes merge
    tie-breaking reproduce the executor's first-row-wins scan order).
    ``poisoned`` records that the measure aggregate evaluates to an error
    (unbound/non-numeric operand), i.e. the group stores no measure.
    In a signed table (a maintenance window's Δ) ``rows``, ``bound`` and
    ``value`` are net changes and may be negative.
    """

    __slots__ = ("rows", "bound", "value", "best_id", "best_key",
                 "best_row", "poisoned")

    def __init__(self) -> None:
        self.rows: int = 0
        self.bound: int = 0
        self.value: int | float = 0
        self.best_id: Optional[int] = None
        self.best_key: Optional[tuple] = None
        self.best_row: int = -1
        self.poisoned: bool = False

    @property
    def empty(self) -> bool:
        """True for a signed entry whose changes net to nothing."""
        return not (self.rows or self.bound or self.value) \
            and self.best_id is None

    def __repr__(self) -> str:
        return (f"<GroupEntry rows={self.rows} bound={self.bound} "
                f"value={self.value!r} best={self.best_id} "
                f"poisoned={self.poisoned}>")


class GroupTable:
    """Finest-grain aggregation state of one facet scan, in id-space.

    ``groups`` maps group-key id tuples (aligned with ``variables``,
    ``None`` = unbound) to :class:`GroupEntry` accumulators, in first-row
    order — the same group order the executor's GROUP BY produces.  Ids
    belong to the executor the table was built by (negative ids are that
    executor's overlay).
    """

    __slots__ = ("variables", "kind", "keep_max", "groups", "executor")

    def __init__(self, executor, variables: tuple[Variable, ...], kind: str,
                 keep_max: bool = False) -> None:
        self.executor = executor
        self.variables = variables
        self.kind = kind
        self.keep_max = keep_max
        self.groups: dict[tuple, GroupEntry] = {}

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        names = "+".join(v.name for v in self.variables) or "()"
        return (f"<GroupTable [{names}] kind={self.kind} "
                f"{len(self.groups)} groups>")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_batch(cls, executor, batch: BindingBatch,
                   keys: Sequence[Variable], operand: Optional[Variable],
                   kind: str, keep_max: bool = False) -> "GroupTable":
        """A table at the grain of ``keys`` holding one batch's fold."""
        table = cls(executor, tuple(keys), kind, keep_max)
        table.fold(batch, operand)
        return table

    def fold(self, batch: BindingBatch, operand: Optional[Variable],
             weights: Optional[Sequence[int]] = None,
             extrema: bool = True) -> None:
        """Fold a solution batch into the per-group accumulators.

        ``operand`` is the measured variable (None = ``COUNT(*)``); the
        batch is consumed row by row in order, so accumulation order —
        and therefore float summation and MIN/MAX tie-breaking — matches
        a direct GROUP BY evaluation of the same pattern.

        ``weights`` makes the fold a signed one: row ``i`` counts
        ``weights[batch.prov[i]]`` times (the multiplicity of the seed
        row it extends; None = every row once).  Only rows of positive
        weight offer an extremum, and none do when ``extrema`` is off:
        the delta evaluator turns it off for a window that deletes
        anything, where a positive row may be one the old state is
        restored with — not a row of the current query result.
        """
        groups = self.groups
        n = len(batch)
        operand_col = None
        if operand is not None:
            k = batch.index.get(operand)
            operand_col = batch.columns[k] if k is not None else [None] * n
        row_weights = repeat(1) if weights is None \
            else map(weights.__getitem__, batch.prov)

        decode = self.executor.decode_id
        numbers: dict[int, object] = {}
        sort_keys: dict[int, tuple] = {}
        is_sum = self.kind == KIND_SUM
        is_minmax = self.kind == KIND_MINMAX
        keep_max = self.keep_max

        for i, key, weight in zip(
                count(), batch.key_tuples(self.variables), row_weights):
            entry = groups.get(key)
            if entry is None:
                entry = GroupEntry()
                groups[key] = entry
            entry.rows += weight
            if operand_col is None:
                continue  # COUNT(*): the row count is the whole story
            tid = operand_col[i]
            if tid is None:
                if is_sum or is_minmax:
                    entry.poisoned = True
                continue
            entry.bound += weight
            if entry.poisoned:
                continue
            if is_sum:
                value = numbers.get(tid)
                if value is None:
                    try:
                        value = to_number(decode(tid))
                    except ExpressionError:
                        value = _NOT_NUMERIC
                    numbers[tid] = value
                if value is _NOT_NUMERIC:
                    entry.poisoned = True
                else:
                    entry.value += weight * value  # type: ignore[operator]
            elif is_minmax and extrema and weight > 0:
                sort_key = sort_keys.get(tid)
                if sort_key is None:
                    sort_key = order_key(decode(tid))
                    sort_keys[tid] = sort_key
                if entry.best_key is None or (
                        sort_key > entry.best_key if keep_max
                        else sort_key < entry.best_key):
                    entry.best_id = tid
                    entry.best_key = sort_key
                    entry.best_row = i

    # -- rollup --------------------------------------------------------------

    def project(self, positions: Sequence[int]) -> "GroupTable":
        """Roll this table up to the key subset at ``positions``.

        Entries of finer groups sharing a projected key merge exactly:
        counts add, sums add (poison propagates), extrema compare by
        order key with the earliest originating row winning ties — the
        associative formulation of the executor's scan.  Group order is
        first-seen order of the finer groups, which is first-row order.
        """
        out = GroupTable(self.executor,
                         tuple(self.variables[p] for p in positions),
                         self.kind, self.keep_max)
        merged = out.groups
        keep_max = self.keep_max
        is_sum = self.kind == KIND_SUM
        is_minmax = self.kind == KIND_MINMAX
        for key, entry in self.groups.items():
            sub_key = tuple(key[p] for p in positions)
            target = merged.get(sub_key)
            if target is None:
                target = merged[sub_key] = GroupEntry()
            target.rows += entry.rows
            target.bound += entry.bound
            if is_sum:
                if entry.poisoned:
                    target.poisoned = True
                elif not target.poisoned:
                    target.value += entry.value
            elif is_minmax:
                if entry.poisoned:
                    target.poisoned = True
                if entry.best_id is not None and (
                        target.best_key is None
                        or (entry.best_key > target.best_key if keep_max
                            else entry.best_key < target.best_key)
                        or (entry.best_key == target.best_key
                            and entry.best_row < target.best_row)):
                    target.best_id = entry.best_id
                    target.best_key = entry.best_key
                    target.best_row = entry.best_row
        return out

    def project_variables(self, variables: Sequence[Variable]
                          ) -> "GroupTable":
        """:meth:`project` by variable names (must be a subset of ours)."""
        index = {v: p for p, v in enumerate(self.variables)}
        return self.project([index[v] for v in variables])
