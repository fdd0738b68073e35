"""N-Quads parsing and serialization (dataset interchange).

Same line grammar as N-Triples with an optional fourth position naming the
graph.  This is how an expanded dataset — base graph plus materialized
view graphs — round-trips to disk in one file.
"""

from __future__ import annotations

import io
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

from .dataset import Dataset
from .ntriples import parse_nquad_line
from .triples import Quad

__all__ = ["parse_nquads", "serialize_nquads", "serialize_graph_lines",
           "iter_nquads", "parse_nquad_line"]


def iter_nquads(lines: Iterable[str]) -> Iterator[Quad]:
    """Parse an iterable of N-Quads lines into quads (unvalidated: see
    :func:`parse_nquad_line`)."""
    for line_no, raw in enumerate(lines, start=1):
        quad = parse_nquad_line(raw, line_no)
        if quad is not None:
            yield quad


def parse_nquads(text: str, dataset: Dataset | None = None) -> Dataset:
    """Parse an N-Quads document into a (new or given) dataset."""
    if dataset is None:
        dataset = Dataset()
    # a file's line rule, as parse_ntriples reads one
    for name, quads in groupby(iter_nquads(io.StringIO(text, newline=None)),
                               attrgetter("graph")):
        dataset.graph(name).update(quad.triple for quad in quads)
    return dataset


def serialize_graph_lines(dataset: Dataset) -> dict[str, list[str]]:
    """Serialized N-Quads lines per component graph, each sorted.

    Keys are graph IRI values ("" for the default graph); named-graph
    lines carry their graph label, exactly as :func:`serialize_nquads`
    emits them.  The per-graph split is what lets the persistence layer
    checksum each materialized view independently.
    """
    by_graph: dict[str, list[str]] = {}
    for quad in dataset.quads():
        parts = [quad.s.n3(), quad.p.n3(), quad.o.n3()]
        if quad.graph is not None:
            parts.append(quad.graph.n3())
        key = quad.graph.value if quad.graph is not None else ""
        by_graph.setdefault(key, []).append(" ".join(parts) + " .")
    for lines in by_graph.values():
        lines.sort()
    return by_graph


def serialize_nquads(dataset: Dataset) -> str:
    """Serialize a dataset deterministically (sorted lines)."""
    lines = [line for graph_lines in serialize_graph_lines(dataset).values()
             for line in graph_lines]
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
