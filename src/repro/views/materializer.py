"""View materialization: encoding aggregation results back into RDF.

Following the paper (§3.1, generalizing MARVEL), a materialized view is an
RDF graph in which every group of the view query becomes a fresh *blank
node* carrying:

* ``sofos:view <view-iri>`` — membership link;
* one ``sofos:dim/<name>`` triple per grouping variable, holding that
  group's dimension value;
* ``sofos:measure`` (distributive facets) or ``sofos:sum`` (AVG facets)
  with the aggregate value;
* ``sofos:groupCount`` with the group cardinality, so every aggregate —
  including AVG — can be rolled up exactly from coarser queries.

The union of the base graph and these view graphs is the expanded graph
``G+`` of the paper.

This module is the only place that knows that format: :class:`GroupCodec`
turns a group's accumulators into its stored count and measure and mints
its triples, :class:`GroupIndex` is the format read back (group key →
node and stored values).  :func:`materialize_view_from_table` encodes
every group of a build, rebuild or refresh from a table rolled up from
one :func:`~repro.cube.rollup.facet_scan`; the patcher
(:mod:`repro.views.maintenance`) encodes the groups a window gives birth
to or changes, the profiler counts footprints and persistence restores
indexes through the same codec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from ..errors import ExpressionError, ViewError
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.namespace import SOFOS
from ..rdf.terms import IRI, BlankNode, Literal, Term, Variable
from ..cube.view import ViewDefinition
from ..sparql.engine import QueryEngine
from ..sparql.grouptable import GroupTable, KIND_BY_AGGREGATE, KIND_COUNT, \
    KIND_MINMAX
from ..sparql.values import numeric_result, to_number

__all__ = ["GroupCodec", "GroupIndex", "GroupState", "MaterializationStats",
           "dimension_predicate", "materialize_view_from_table",
           "stored_literal"]

IdTriple = tuple[int, int, int]


def dimension_predicate(var: Variable) -> IRI:
    """The predicate storing values of grouping variable ``var``."""
    return SOFOS[f"dim/{var.name}"]


def stored_literal(value: int | float) -> Literal:
    """The literal a group count or a numeric measure is stored as."""
    return numeric_result(value)


class GroupCodec:
    """The §3.1 encoding of one view's groups.

    Without a dictionary only the accumulators → stored numbers rule
    (:meth:`columns`) is available, which is all a footprint count
    needs; with the view graph's dictionary the codec also holds the
    view's predicate ids and mints group triples (:meth:`birth`) and
    lists them again when a group dies (:meth:`death`), so the patcher
    never reads a view graph's star back.
    """

    __slots__ = ("view", "kind", "_is_avg", "_count_star", "_encode",
                 "_integer_id", "view_pred", "view_iri", "value_pred",
                 "count_pred", "dim_preds")

    def __init__(self, view: ViewDefinition,
                 dictionary: Optional[TermDictionary] = None) -> None:
        aggregate = view.facet.aggregate
        self.view = view
        self.kind = KIND_BY_AGGREGATE[aggregate.name]
        self._is_avg = aggregate.name == "AVG"
        self._count_star = aggregate.operand is None
        if dictionary is None:
            return
        encode = self._encode = dictionary.encode
        self._integer_id = dictionary.integer_id
        self.view_pred = encode(SOFOS.view)
        self.view_iri = encode(view.iri)
        self.value_pred = encode(SOFOS.sum if self._is_avg else SOFOS.measure)
        self.count_pred = encode(SOFOS.groupCount)
        self.dim_preds = [encode(dimension_predicate(v))
                          for v in view.variables]

    def columns(self, table: GroupTable) -> tuple[list[int], list]:
        """The ``(counts, measures)`` the table's groups store, one entry
        per group id (read-only: they may be the table's own lists).

        The count is ``COUNT(u)`` for AVG (its divisor), else
        ``COUNT(*)``.  The measure is a number (SUM/AVG and COUNT
        kinds), the extremum's term id (MIN/MAX), or None when the
        aggregate errors or saw nothing: no measure triple.  Numbers are
        linear in the accumulators, so a signed table's group maps to
        the *change* of what is stored.
        """
        counts = table.bound if self._is_avg else table.rows
        if self.kind == KIND_COUNT:
            return counts, table.rows if self._count_star else table.bound
        if self.kind == KIND_MINMAX:
            return counts, [None if value is None else tid
                            for value, tid in zip(table.value, table.best)]
        return counts, table.value

    def number_id(self, value: int | float) -> int:
        """The id of a count's or numeric measure's literal.

        An int's literal is its canonical ``xsd:integer`` one, so it is
        read from the dictionary's integer index by value and built only
        when the dictionary never minted it: group sizes cluster, COUNT
        measures are counts, and every window's codec starts warm."""
        # Exact ints only: True and 5.0 would read the ids of 1 and 5.
        if type(value) is int:
            tid = self._integer_id(value)
            if tid is not None:
                return tid
        return self._encode(stored_literal(value))

    def birth(self, triples: list[IdTriple], key: tuple, count: int,
              value: int | float | None) -> "GroupState":
        """Mint a group storing :meth:`columns`' ``(count, value)``: its
        triples are appended to ``triples``, its state returned."""
        if value is None:
            value_id = None
        elif self.kind == KIND_MINMAX:
            value_id, value = value, None
        else:
            value_id = self.number_id(value)
        count_id = self.number_id(count)
        node = self._encode(BlankNode.fresh(f"v{self.view.mask}g"))
        state = GroupState(node, count, value, value_id, count_id)
        self.death(triples, key, state)
        return state

    def death(self, triples: list[IdTriple], key: tuple,
              state: "GroupState") -> None:
        """Append the triples a group stores — :meth:`birth`'s, as the
        patches left them — to ``triples``: the view link, one per bound
        key id, the measure when ``value_id`` is set, and the count.
        Read from the key and the state, not from the view graph;
        :meth:`birth` lists a new group's triples with it too."""
        node = state.node_id
        triples.append((node, self.view_pred, self.view_iri))
        for pred, tid in zip(self.dim_preds, key):
            if tid is not None:
                triples.append((node, pred, tid))
        if state.value_id is not None:
            triples.append((node, self.value_pred, state.value_id))
        triples.append((node, self.count_pred, state.count_id))


class GroupState:
    """One materialized group: its node plus the stored running values.

    ``value`` is the numeric aggregate for sum/count kinds (the operand
    sum, or the bound-operand row count) and ``None`` for MIN/MAX, where
    only the stored term id matters.  ``value_id``/``count_id`` are the
    exact object ids currently stored in the view graph, kept so patches
    remove precisely the triples that exist.
    """

    __slots__ = ("node_id", "count", "value", "value_id", "count_id")

    def __init__(self, node_id: int, count: int, value, value_id: int,
                 count_id: int) -> None:
        self.node_id = node_id
        self.count = count
        self.value = value
        self.value_id = value_id
        self.count_id = count_id

    def __repr__(self) -> str:
        return (f"<GroupState node={self.node_id} count={self.count} "
                f"value={self.value!r}>")


class GroupIndex:
    """Group-key ids → :class:`GroupState` for one materialized view."""

    __slots__ = ("kind", "groups")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.groups: dict[tuple, GroupState] = {}

    def __len__(self) -> int:
        return len(self.groups)

    def insert(self, key: tuple, node_id: int, count_id: int, value_id: int,
               decode: Callable[[int], Term]) -> None:
        """Register a stored group, reading its numbers back from its ids.

        Raises :class:`ViewError` when the ids do not decode to a §3.1
        count and measure, or the key is already taken.
        """
        try:
            count = decode(count_id).to_python()
            value = None if self.kind == KIND_MINMAX \
                else to_number(decode(value_id))
        except (AttributeError, ExpressionError) as exc:
            raise ViewError(f"non-numeric stored aggregate ({exc})") from exc
        if not isinstance(count, int):
            raise ViewError("non-integer groupCount")
        if key in self.groups:
            raise ViewError("duplicate group key")
        self.groups[key] = GroupState(node_id, count, value, value_id,
                                      count_id)

    @classmethod
    def from_graph(cls, view: ViewDefinition, graph: Graph) -> "GroupIndex":
        """Scan a view's named graph into its group index.

        Raises :class:`ViewError` when the graph does not follow the §3.1
        encoding (missing/ambiguous measure or count, duplicate group
        keys) — callers treat that as "not incrementally maintainable".
        """
        codec = GroupCodec(view, graph.dictionary)
        index = cls(codec.kind)

        def leaves(pred: int) -> Callable[[int], Optional[list[int]]]:
            # Node → its objects under ``pred``: one scan per predicate.
            out: dict[int, list[int]] = {}
            for node, _, obj in graph.match_ids(None, pred, None):
                out.setdefault(node, []).append(obj)
            return out.get

        def single(leaf: Optional[list[int]], what: str,
                   required: bool = True) -> Optional[int]:
            leaf = leaf or ()
            if len(leaf) > 1 or (required and not leaf):
                raise ViewError(f"group node has {len(leaf)} {what} values")
            return leaf[0] if leaf else None

        dims = [leaves(pred) for pred in codec.dim_preds]
        counts = leaves(codec.count_pred)
        values = leaves(codec.value_pred)
        try:
            for node in list(graph.adjacent_ids(None, codec.view_pred,
                                                codec.view_iri)):
                index.insert(
                    tuple(single(dim(node), "dimension", required=False)
                          for dim in dims), node,
                    single(counts(node), "groupCount"),
                    single(values(node), "measure"),
                    graph.dictionary.decode)
        except ViewError as exc:
            raise ViewError(f"view {view.label!r}: {exc}") from exc
        return index


@dataclass(frozen=True)
class MaterializationStats:
    """What materializing one view produced and cost."""

    view: ViewDefinition
    groups: int
    triples: int
    build_seconds: float

    def __str__(self) -> str:
        return (f"{self.view.label}: {self.groups} groups, "
                f"{self.triples} triples, {self.build_seconds * 1000:.1f} ms")


def materialize_view_from_table(view: ViewDefinition, engine: QueryEngine,
                                target: Graph, table: GroupTable
                                ) -> tuple[MaterializationStats,
                                           Optional[GroupIndex]]:
    """Encode a view from a (possibly finer) group table — no query run.

    The table must come from ``engine``'s executor and cover the view's
    grouping variables; when finer, it is rolled up first.  Encoding is
    id-native — only overlay ids and computed literals cross the term
    boundary — and reproduces exactly the triples the view's
    materialization query implies: same dimension/measure/count
    literals, same poison semantics (no measure triple when the
    aggregate errors), and the apex's implicit empty group when the
    table is empty.

    Returns the stats plus the view's :class:`GroupIndex` as encoded
    (or None when a group stores no measure: the index, and the patcher,
    require the complete §3.1 encoding).
    """
    if len(target):
        raise ViewError(
            f"target graph for view {view.label!r} is not empty; drop it "
            "before re-materializing")
    if target.dictionary is not engine.graph.dictionary:
        raise ViewError(
            f"materializing view {view.label!r} needs the target to share "
            "the engine graph's dictionary")
    start = time.perf_counter()

    if table.variables != view.variables:
        table = table.project_variables(view.variables)
    codec = GroupCodec(view, target.dictionary)
    is_minmax = codec.kind == KIND_MINMAX
    decode_query_id = engine.executor.decode_id
    encode = target.dictionary.encode

    def target_id(tid: int) -> int:
        # Overlay ids are private to the executor; intern the term.
        return tid if tid >= 0 else encode(decode_query_id(tid))

    # Keys are translated only when some key id is an overlay one.
    translate = min(set(chain.from_iterable(table.groups)) - {None},
                    default=0) < 0
    index: Optional[GroupIndex] = GroupIndex(codec.kind)
    id_triples: list[IdTriple] = []
    for key, count, value in zip(table.groups, *codec.columns(table)):
        if translate:
            key = tuple(None if tid is None else target_id(tid)
                        for tid in key)
        if value is None:
            index = None
        elif is_minmax:
            if not isinstance(decode_query_id(value), Literal):
                raise ViewError(
                    f"view {view.label!r} produced a non-literal "
                    f"aggregate {decode_query_id(value)!r}")
            value = target_id(value)
        state = codec.birth(id_triples, key, count, value)
        if index is not None:
            index.groups[key] = state

    triples_added = target.add_ids_bulk(id_triples)
    stats = MaterializationStats(
        view=view,
        groups=len(table),
        triples=triples_added,
        build_seconds=time.perf_counter() - start,
    )
    return stats, index
