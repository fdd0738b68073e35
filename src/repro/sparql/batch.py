"""Columnar binding batches: the id-space data plane of the executor.

A :class:`BindingBatch` is a set of solution rows stored column-wise over
integer term ids (``None`` = unbound), plus a *provenance* array mapping
every row back to the row of the seed batch it extends.  Provenance is what
lets OPTIONAL detect unmatched seed rows and what lets a hash join fan a
deduplicated probe result back out to the full outer relation.

Ids come from the graph's :class:`~repro.rdf.dictionary.TermDictionary`;
terms computed at query time (BIND results, aggregate values, VALUES
constants never seen by the store) are interned by the executor into a
private overlay with *negative* ids, so id equality remains term equality
across the whole pipeline and nothing above the expression boundary ever
compares strings.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..rdf.terms import Term, Variable

__all__ = ["BindingBatch", "dedup_rows"]

IdColumn = list  # list[Optional[int]]


class BindingBatch:
    """Columnar solution rows in id-space.

    ``columns[k]`` holds the ids of ``variables[k]``, one per row; ``prov``
    maps each row to the index of the seed-batch row it extends.  Batches
    are value-immutable by convention: operators build fresh column lists
    and may share them between batches, but never mutate them in place.
    """

    __slots__ = ("variables", "columns", "prov", "index")

    def __init__(self, variables: tuple[Variable, ...],
                 columns: Sequence[IdColumn], prov: list[int],
                 index: Optional[dict[Variable, int]] = None) -> None:
        self.variables = variables
        self.columns = list(columns)
        self.prov = prov
        # variable → column; a compiled probe step hands in the one map it
        # shares between every batch it builds (never mutated)
        self.index: dict[Variable, int] = index if index is not None else {
            v: k for k, v in enumerate(variables)}

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls) -> "BindingBatch":
        """The single empty solution (the root seed)."""
        return cls((), (), [0])

    @classmethod
    def empty(cls, variables: tuple[Variable, ...]) -> "BindingBatch":
        """Zero rows over ``variables``."""
        return cls(variables, [[] for _ in variables], [])

    # -- basic protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.prov)

    def __repr__(self) -> str:
        names = ", ".join(f"?{v.name}" for v in self.variables)
        return f"<BindingBatch [{names}] with {len(self)} rows>"

    def column(self, var: Variable) -> IdColumn:
        return self.columns[self.index[var]]

    # -- row views -----------------------------------------------------------

    def row_tuples(self) -> list[tuple]:
        """All rows as id tuples (positional, aligned to ``variables``)."""
        if not self.columns:
            return [()] * len(self)
        return list(zip(*self.columns))

    def key_tuples(self, variables: Iterable[Variable]) -> list[tuple]:
        """Per-row id tuples restricted to ``variables`` (missing = None).

        This is the join/grouping key extractor: every consumer that
        groups, dedups, or hashes rows goes through here so key identity is
        id identity everywhere.
        """
        cols = []
        n = len(self)
        for v in variables:
            k = self.index.get(v)
            cols.append(self.columns[k] if k is not None else [None] * n)
        if not cols:
            return [()] * n
        return list(zip(*cols))

    def group_rows(self, variables: Iterable[Variable]
                   ) -> dict[tuple, list[int]]:
        """Row indexes grouped by the id tuples of ``variables``.

        Groups appear in first-row order and each member list is in row
        order.  The delta evaluator's hash join of a batch with a window's
        deleted matches reads it (GROUP BY folds over group ids instead,
        see :func:`dedup_rows`).
        """
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(self.key_tuples(variables)):
            members = groups.get(key)
            if members is None:
                groups[key] = [i]
            else:
                members.append(i)
        return groups

    # -- derived batches -----------------------------------------------------

    def renumbered(self) -> "BindingBatch":
        """The same rows with identity provenance (a fresh seed scope)."""
        return BindingBatch(self.variables, self.columns,
                            list(range(len(self))), self.index)

    def gather(self, row_indexes: Sequence[int]) -> "BindingBatch":
        """A new batch holding ``rows[i] for i in row_indexes`` (dups ok)."""
        prov = self.prov
        return BindingBatch(
            self.variables,
            [[col[i] for i in row_indexes] for col in self.columns],
            [prov[i] for i in row_indexes], self.index)

    def decode_rows(self, terms: Sequence[Term], overlay: Sequence[Term]
                    ) -> list[tuple[Optional[Term], ...]]:
        """All rows as term tuples, each column decoded by indexing.

        ``terms`` is the dictionary's id → term list and ``overlay`` the
        executor's list of query-computed terms (id ``-1`` is
        ``overlay[0]``); ``None`` stays unbound.  This is the one decode of
        a result batch: a list comprehension per column, no cache and no
        call per cell.
        """
        decoded = [[None if t is None else terms[t] if t >= 0
                    else overlay[~t] for t in col]
                   for col in self.columns]
        if not decoded:
            return [()] * len(self)
        return list(zip(*decoded))


def dedup_rows(keys: Sequence[tuple],
               by_key: Optional[dict[tuple, int]] = None
               ) -> tuple[dict[tuple, int], list[int]]:
    """Assign each distinct key a dense index; return (key→index, per-row map).

    Indexes are given in first-row order, so ``by_key`` iterates the
    distinct keys in the order they first appear.  The executor uses this
    to probe/evaluate once per *distinct* bound prefix and hash-join the
    results back onto the full row set, and as GROUP BY's (and a group
    table's, which passes its own ``by_key``) group ids.
    """
    by_key = {} if by_key is None else by_key
    index_of = by_key.setdefault
    return by_key, [index_of(key, len(by_key)) for key in keys]
