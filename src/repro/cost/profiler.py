"""The lattice profiler: exact per-view statistics.

The demo's "Exploration of the Full Lattice" step computes, for every view
of a facet, the quantities the cost models disagree about: result rows
(aggregated values), encoded triples, distinct nodes, and measured
evaluation time.  The profiler computes all four *without* materializing
any RDF and from **one** evaluation of the facet's pattern: the finest
group table of :func:`~repro.cube.rollup.facet_scan` rolls up through the
lattice as ``ViewCatalog.materialize_all`` would build it, and each view's
encoding footprint is read off its table in id-space
(``tests/test_profile_rollup.py`` pins the counts to the materializer and
to a per-view-query oracle).  The scan stays in the engine's slot for the
materialization that follows.  No facet is profiled any other way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import CostModelError
from ..obs import tracing as _tracing
from ..rdf.dictionary import canonical_integer
from ..rdf.stats import GraphStatistics
from ..rdf.terms import Term
from ..cube.facet import AnalyticalFacet
from ..cube.lattice import ViewLattice
from ..cube.rollup import facet_scan, rollup_tables
from ..cube.view import ViewDefinition
from ..sparql.engine import QueryEngine
from ..sparql.grouptable import KIND_MINMAX, GroupTable
from ..views.materializer import GroupCodec, stored_literal

_TRACER = _tracing.tracer()

__all__ = ["ViewProfile", "BaseProfile", "LatticeProfile"]


@dataclass(frozen=True)
class ViewProfile:
    """Exact footprint and measured cost of one (not yet materialized) view.

    ``eval_seconds`` is the measured shared pattern scan plus this
    view's own measured fold (projection from its rollup source and the
    footprint count).
    """

    mask: int
    label: str
    level: int
    rows: int
    triples: int
    nodes: int
    eval_seconds: float
    dim_cardinalities: tuple[int, ...] = ()


@dataclass(frozen=True)
class BaseProfile:
    """The same quantities for the raw graph G (the no-view fallback).

    ``eval_seconds`` is the measured pattern scan alone (no fold).
    """

    triples: int
    rows: int                      # bindings of the facet pattern P
    nodes: int
    eval_seconds: float


@dataclass
class LatticeProfile:
    """Per-view statistics for a whole lattice over a fixed graph."""

    facet: AnalyticalFacet
    base: BaseProfile
    graph_stats: GraphStatistics
    views: dict[int, ViewProfile] = field(default_factory=dict)
    profile_seconds: float = 0.0

    @classmethod
    def profile(cls, lattice: ViewLattice, engine: QueryEngine
                ) -> "LatticeProfile":
        """Profile the whole lattice from one scan of the facet pattern."""
        started = time.perf_counter()
        facet = lattice.facet
        graph = engine.graph
        graph_stats = GraphStatistics.of(graph)

        scan = facet_scan(engine, facet, keep=True)
        base = BaseProfile(
            triples=len(graph),
            rows=sum(scan.table.rows),
            nodes=graph.node_count(),
            eval_seconds=scan.seconds,
        )

        profile = cls(facet=facet, base=base, graph_stats=graph_stats)
        with _TRACER.span("profile.rollup", facet=facet.name) as sp:
            tick = time.perf_counter()
            for mask, table in rollup_tables(
                    facet, lattice.plan_materialization(lattice),
                    scan.table):
                view = lattice[mask]
                rows, triples, nodes, dims = _footprint(view, table, engine)
                now = time.perf_counter()
                profile.views[mask] = ViewProfile(
                    mask, view.label, view.level, rows, triples, nodes,
                    scan.seconds + now - tick, dims)
                tick = now
            sp.set_tags(groups=len(scan.table), views=len(lattice))
        profile.profile_seconds = time.perf_counter() - started
        return profile

    # -- cost-model accessors -----------------------------------------------

    def of(self, view: ViewDefinition) -> ViewProfile:
        if view.facet != self.facet:
            raise CostModelError(
                f"view {view.label!r} belongs to facet "
                f"{view.facet.name!r}, not to the profiled facet "
                f"{self.facet.name!r}")
        entry = self.views.get(view.mask)
        if entry is None:
            raise CostModelError(
                f"view {view.label!r} was not profiled (partial profile)")
        return entry

    def rows(self, view: ViewDefinition) -> int:
        """|V(G)| — the aggregated-values cost (paper model 3)."""
        return self.of(view).rows

    def triples(self, view: ViewDefinition) -> int:
        """|G_V| — the triple-count cost (paper model 2)."""
        return self.of(view).triples

    def nodes(self, view: ViewDefinition) -> int:
        """|I∪B∪L| of the view graph — the node-count cost (paper model 4)."""
        return self.of(view).nodes

    def eval_seconds(self, view: ViewDefinition) -> float:
        """Measured seconds to evaluate the view query on G."""
        return self.of(view).eval_seconds

    def by_level(self) -> list[list[ViewProfile]]:
        """Profiles grouped by lattice level (apex first)."""
        out: list[list[ViewProfile]] = [
            [] for _ in range(self.facet.dimension_count + 1)]
        for mask in sorted(self.views):
            entry = self.views[mask]
            out[entry.level].append(entry)
        return out

    def total_triples(self) -> int:
        """Triples needed to materialize the *entire* lattice."""
        return sum(v.triples for v in self.views.values())

    def full_lattice_amplification(self) -> float:
        """(|G| + all views) / |G| — why full materialization is impractical."""
        if not self.base.triples:
            return 0.0
        return (self.base.triples + self.total_triples()) / self.base.triples

    def __iter__(self) -> Iterator[ViewProfile]:
        for mask in sorted(self.views):
            yield self.views[mask]


def _footprint(view: ViewDefinition, table: GroupTable, engine: QueryEngine
               ) -> tuple[int, int, int, tuple[int, ...]]:
    """``(rows, triples, nodes, dim_cardinalities)`` of the view encoded
    from ``table``: ``materialize_view_from_table`` without the writes.

    Per group: the view link, one triple per bound dimension, the
    measure unless the group stores none, and ``groupCount`` — what each
    stores is the materializer's :meth:`GroupCodec.columns`.  Nodes are
    the group nodes, the view IRI and the distinct object terms — count
    and measure literals are interned, so a count equal to a dimension
    literal is one node.  Counted a column at a time: an int's node is
    read by value from the dictionary's integer index, so only floats
    and overlay ids become terms.
    """
    groups = len(table)
    columns = list(zip(*table.groups)) or [()] * len(view.variables)
    dims = [set(column) - {None} for column in columns]
    ids: set[int] = set().union(*dims)
    triples = 2 * groups + sum(groups - c.count(None) for c in columns)
    codec = GroupCodec(view)
    counts, measures = codec.columns(table)
    measures = [m for m in measures if m is not None]
    triples += len(measures)
    if codec.kind == KIND_MINMAX:
        ids.update(measures)
        measures = []
    floats = {v for v in measures if type(v) is not int}  # 5.0 is not 5
    ints = set(counts).union(
        [v for v in measures if type(v) is int] if floats else measures)
    dictionary = engine.graph.dictionary
    int_ids = list(map(dictionary.integer_id, ints))
    # A node the dictionary never minted: an int by value, else its term.
    unminted: set = {v for v, tid in zip(ints, int_ids) if tid is None}
    ids.update(int_ids)
    ids.discard(None)
    overlay = {tid for tid in ids if tid < 0}
    ids -= overlay
    decode = engine.executor.decode_id
    for term in [decode(tid) for tid in overlay] + [
            stored_literal(value) for value in floats]:
        tid = dictionary.lookup(term)
        if tid is None:
            value = canonical_integer(term)
            unminted.add(term if value is None else value)
        else:
            ids.add(tid)
    nodes = groups + (1 if groups else 0) + len(ids) + len(unminted)
    return groups, triples, nodes, tuple(map(len, dims))
