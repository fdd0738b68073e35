"""N-Quads parsing and serialization (dataset interchange).

Same line grammar as N-Triples with an optional fourth position naming the
graph.  This is how an expanded dataset — base graph plus materialized
view graphs — round-trips to disk in one file.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

from ..errors import ParseError
from .dataset import Dataset
from .ntriples import _parse_term
from .terms import IRI
from .triples import Quad, Triple

__all__ = ["parse_nquads", "serialize_nquads", "serialize_graph_lines",
           "iter_nquads", "parse_nquad_line"]


def iter_nquads(lines: Iterable[str]) -> Iterator[Quad]:
    """Parse an iterable of N-Quads lines into quads."""
    for line_no, raw in enumerate(lines, start=1):
        quad = parse_nquad_line(raw, line_no)
        if quad is not None:
            yield quad


def parse_nquad_line(raw: str, line_no: int = 1) -> Quad | None:
    """One N-Quads line as a quad; ``None`` for a blank or comment line.

    Raises :class:`ParseError` (or ``TermError`` for an invalid triple)
    on a malformed line, before anything is returned.
    """
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    s, pos = _parse_term(line, 0, line_no)
    p, pos = _parse_term(line, pos, line_no)
    o, pos = _parse_term(line, pos, line_no)
    rest = line[pos:].strip()
    graph: IRI | None = None
    if rest != ".":
        g, pos = _parse_term(line, pos, line_no)
        if not isinstance(g, IRI):
            raise ParseError("graph label must be an IRI", line_no)
        graph = g
        rest = line[pos:].strip()
        if rest != ".":
            raise ParseError(
                f"expected terminating '.', got {rest!r}", line_no)
    Triple.validate(s, p, o)
    return Quad(s, p, o, graph)


def parse_nquads(text: str, dataset: Dataset | None = None) -> Dataset:
    """Parse an N-Quads document into a (new or given) dataset."""
    if dataset is None:
        dataset = Dataset()
    for name, quads in groupby(iter_nquads(text.split("\n")),
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
