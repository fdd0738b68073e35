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

:func:`materialize_view_from_table` is the only encoder of that format
for a build: every build, rebuild and refresh hands it a group table
rolled up from one :func:`~repro.cube.rollup.facet_scan` (the patcher in
:mod:`repro.views.maintenance` edits groups of an encoded view in place).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ViewError
from ..rdf.graph import Graph
from ..rdf.namespace import SOFOS
from ..rdf.terms import IRI, BlankNode, Literal, Variable, typed_literal
from ..cube.view import ViewDefinition
from ..sparql.engine import QueryEngine
from ..sparql.grouptable import GroupEntry, GroupTable, KIND_COUNT, KIND_SUM
from ..sparql.values import numeric_result

__all__ = ["MaterializationStats", "dimension_predicate",
           "materialize_view_from_table"]


def dimension_predicate(var: Variable) -> IRI:
    """The predicate storing values of grouping variable ``var``."""
    return SOFOS[f"dim/{var.name}"]


@dataclass(frozen=True)
class MaterializationStats:
    """What materializing one view produced and cost."""

    view: ViewDefinition
    groups: int
    triples: int
    nodes: int
    build_seconds: float

    def __str__(self) -> str:
        return (f"{self.view.label}: {self.groups} groups, "
                f"{self.triples} triples, {self.nodes} nodes, "
                f"{self.build_seconds * 1000:.1f} ms")


def materialize_view_from_table(view: ViewDefinition, engine: QueryEngine,
                                target: Graph, table: GroupTable
                                ) -> tuple[MaterializationStats, object]:
    """Encode a view from a (possibly finer) group table — no query run.

    The table must come from ``engine``'s executor and cover the view's
    grouping variables; when finer, it is rolled up first.  Encoding is
    id-native — only overlay ids and computed literals cross the term
    boundary — and reproduces exactly the triples the view's
    materialization query implies: same dimension/measure/count
    literals, same poison semantics (no measure triple when the
    aggregate errors), and the apex's implicit empty group when the
    table is empty.

    Returns the stats plus the view's freshly built
    :class:`~repro.views.maintenance.GroupIndex` (or None when a group
    stores no measure) so incremental maintenance can adopt the index
    without re-scanning the view graph.
    """
    from .maintenance import GroupIndex, GroupState, aggregate_kind

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
    groups = table.groups
    if not groups and view.is_apex:
        # GROUP BY () over empty input still yields one (all-zero) group.
        groups = {(): GroupEntry()}

    facet = view.facet
    agg_name = facet.aggregate.name
    is_avg = agg_name == "AVG"
    count_star = facet.aggregate.operand is None
    kind = table.kind
    value_pred = SOFOS.sum if is_avg else SOFOS.measure

    executor = engine.executor
    decode_query_id = executor.decode_id
    dictionary = target.dictionary
    encode = dictionary.encode
    dim_pred_ids = [encode(dimension_predicate(v)) for v in view.variables]
    view_pred_id = encode(SOFOS.view)
    view_iri_id = encode(view.iri)
    value_pred_id = encode(value_pred)
    count_pred_id = encode(SOFOS.groupCount)

    def target_id(tid: int) -> int:
        # Overlay ids are private to the executor; intern the term.
        return tid if tid >= 0 else encode(decode_query_id(tid))

    index = GroupIndex(aggregate_kind(agg_name))
    maintainable = True
    id_triples: list[tuple[int, int, int]] = []
    # Count/measure literals repeat heavily across groups (group sizes
    # cluster, COUNT measures are counts); intern each distinct value once.
    count_ids: dict[int, int] = {}
    sum_ids: dict[int, int] = {}
    for key, entry in groups.items():
        node_id = encode(BlankNode.fresh(f"v{view.mask}g"))
        id_triples.append((node_id, view_pred_id, view_iri_id))
        index_key = []
        for pred_id, tid in zip(dim_pred_ids, key):
            if tid is None:
                index_key.append(None)
                continue
            tid = target_id(tid)
            index_key.append(tid)
            id_triples.append((node_id, pred_id, tid))

        value: int | float | None
        if kind == KIND_SUM:
            if entry.poisoned:
                measure_id = None
                value = None
            else:
                value = entry.value
                # int-only memo: 5 and 5.0 hash equal but encode to
                # different literals (xsd:integer vs xsd:double).
                if isinstance(value, int):
                    measure_id = sum_ids.get(value)
                    if measure_id is None:
                        measure_id = encode(numeric_result(value))
                        sum_ids[value] = measure_id
                else:
                    measure_id = encode(numeric_result(value))
        elif kind == KIND_COUNT:
            value = entry.rows if count_star else entry.bound
            measure_id = count_ids.get(value)
            if measure_id is None:
                measure_id = encode(typed_literal(value))
                count_ids[value] = measure_id
        else:  # KIND_MINMAX
            measure_id = None
            value = None
            if not entry.poisoned and entry.best_id is not None:
                if not isinstance(decode_query_id(entry.best_id), Literal):
                    raise ViewError(
                        f"view {view.label!r} produced a non-literal "
                        f"aggregate {decode_query_id(entry.best_id)!r}")
                measure_id = target_id(entry.best_id)
        if measure_id is not None:
            id_triples.append((node_id, value_pred_id, measure_id))
        else:
            # No stored measure: the §3.1 encoding the group index (and
            # the patcher) requires is incomplete for this view.
            maintainable = False

        count = entry.bound if is_avg else entry.rows
        count_id = count_ids.get(count)
        if count_id is None:
            count_id = encode(typed_literal(count))
            count_ids[count] = count_id
        id_triples.append((node_id, count_pred_id, count_id))
        if maintainable:
            index.groups[tuple(index_key)] = GroupState(
                node_id, count, value, measure_id, count_id)

    triples_added = target.add_ids_bulk(id_triples)
    stats = MaterializationStats(
        view=view,
        groups=len(groups),
        triples=triples_added,
        nodes=target.node_count(),
        build_seconds=time.perf_counter() - start,
    )
    return stats, (index if maintainable else None)
