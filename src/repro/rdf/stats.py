"""Whole-graph statistics: the raw inputs of the cost models.

:class:`GraphStatistics` is a snapshot — compute it once per graph version
and share it between the cost estimators, the learned cost model's
feature encoder, and the console's dataset panel.  It decodes every node,
so the BGP planner builds none: it reads the predicates it plans from
:meth:`~repro.rdf.graph.Graph.predicate_profile`, as the profiles below do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph
from .terms import BlankNode, IRI, Literal

__all__ = ["PredicateProfile", "GraphStatistics"]


@dataclass(frozen=True)
class PredicateProfile:
    """Per-predicate cardinalities used for selectivity estimation."""

    predicate: IRI
    triples: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def avg_fanout(self) -> float:
        """Mean objects per subject for this predicate."""
        return self.triples / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def avg_fanin(self) -> float:
        """Mean subjects per object for this predicate."""
        return self.triples / self.distinct_objects if self.distinct_objects else 0.0


@dataclass(frozen=True)
class GraphStatistics:
    """A cardinality snapshot of a graph."""

    triple_count: int
    node_count: int
    iri_nodes: int
    blank_nodes: int
    literal_nodes: int
    predicate_count: int
    predicates: dict[IRI, PredicateProfile] = field(repr=False)

    @classmethod
    def of(cls, graph: Graph) -> "GraphStatistics":
        """Profile ``graph`` in a single pass over its storage backend."""
        decode = graph.dictionary.decode
        profiles: dict[IRI, PredicateProfile] = {}
        for pid in graph.store.predicate_counts():
            triples, distinct_subjects, distinct_objects = \
                graph.predicate_profile(pid)
            predicate = decode(pid)
            profiles[predicate] = PredicateProfile(
                predicate=predicate,
                triples=triples,
                distinct_subjects=distinct_subjects,
                distinct_objects=distinct_objects,
            )
        iris = blanks = literals = 0
        for nid in graph.node_ids():
            term = decode(nid)
            if isinstance(term, IRI):
                iris += 1
            elif isinstance(term, BlankNode):
                blanks += 1
            elif isinstance(term, Literal):
                literals += 1
        return cls(
            triple_count=len(graph),
            node_count=iris + blanks + literals,
            iri_nodes=iris,
            blank_nodes=blanks,
            literal_nodes=literals,
            predicate_count=len(profiles),
            predicates=profiles,
        )

    def predicate_frequency(self, predicate: IRI) -> int:
        """Triple count for ``predicate`` (0 when absent)."""
        profile = self.predicates.get(predicate)
        return profile.triples if profile else 0

    def selectivity(self, predicate: IRI) -> float:
        """Fraction of all triples using ``predicate``."""
        if not self.triple_count:
            return 0.0
        return self.predicate_frequency(predicate) / self.triple_count

    def summary(self) -> dict[str, int]:
        """Flat dict for table rendering."""
        return {
            "triples": self.triple_count,
            "nodes": self.node_count,
            "iri_nodes": self.iri_nodes,
            "blank_nodes": self.blank_nodes,
            "literal_nodes": self.literal_nodes,
            "predicates": self.predicate_count,
        }
