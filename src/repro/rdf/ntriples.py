"""N-Triples parsing and serialization (line-based RDF interchange).

The parser accepts the full N-Triples 1.1 grammar for IRIs, blank nodes and
literals (including ``\\uXXXX``/``\\UXXXXXXXX`` escapes, language tags, and
datatype IRIs); comments and blank lines are skipped.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator

from ..errors import ParseError
from .graph import Graph
from .terms import XSD, BlankNode, IRI, Literal, Term
from .triples import Quad, Triple

__all__ = ["parse_ntriples", "parse_ntriples_file", "serialize_ntriples",
           "write_ntriples"]

_TERM_RE = re.compile(
    r"""\s*(?:
        <(?P<iri>[^<>"{}|^`\\\x00-\x20]*)>
      | _:(?P<bnode>[A-Za-z0-9_.\-]+)
      | "(?P<lex>(?:[^"\\\n\r]|\\.)*)"
        (?: @(?P<lang>[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
          | \^\^<(?P<dtype>[^<>"{}|^`\\\x00-\x20]*)>
        )?
    )""",
    re.VERBOSE,
)

_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def unescape_string(text: str, line: int | None = None) -> str:
    """Resolve N-Triples string escapes, including \\u and \\U forms."""
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ParseError("dangling backslash in literal", line)
        esc = text[i + 1]
        if esc in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[esc])
            i += 2
        elif esc == "u":
            if i + 6 > n:
                raise ParseError("truncated \\u escape", line)
            out.append(chr(int(text[i + 2:i + 6], 16)))
            i += 6
        elif esc == "U":
            if i + 10 > n:
                raise ParseError("truncated \\U escape", line)
            out.append(chr(int(text[i + 2:i + 10], 16)))
            i += 10
        else:
            raise ParseError(f"invalid escape \\{esc}", line)
    return "".join(out)


def _parse_term(text: str, pos: int, line_no: int) -> tuple[Term, int]:
    m = _TERM_RE.match(text, pos)
    if m is None:
        raise ParseError(f"expected RDF term near {text[pos:pos + 30]!r}",
                         line_no, pos + 1)
    if m.group("iri") is not None:
        return IRI(unescape_string(m.group("iri"), line_no)), m.end()
    if m.group("bnode") is not None:
        return BlankNode(m.group("bnode")), m.end()
    lexical = unescape_string(m.group("lex"), line_no)
    lang = m.group("lang")
    dtype = m.group("dtype")
    if lang is not None:
        return Literal(lexical, language=lang), m.end()
    if dtype is not None:
        return Literal(lexical, IRI(dtype)), m.end()
    return Literal(lexical, XSD.string), m.end()


def parse_nquad_line(raw: str, line_no: int = 1) -> Quad | None:
    """One N-Triples or N-Quads line as a quad; ``None`` for a blank or
    comment line.

    The one line grammar of both formats: three terms, an optional graph
    IRI and a terminating ``.``.  Raises :class:`ParseError` on a
    malformed line.  The terms' positions are not checked here: whoever
    stores the quad runs :meth:`Triple.validate` on it once
    (:meth:`Graph.update` does).
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
    return Quad(s, p, o, graph)


def iter_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Parse an iterable of N-Triples lines into triples (unvalidated:
    see :func:`parse_nquad_line`); a line naming a graph is a
    :class:`ParseError`."""
    for line_no, raw in enumerate(lines, start=1):
        quad = parse_nquad_line(raw, line_no)
        if quad is not None:
            if quad.graph is not None:
                raise ParseError("N-Triples has no graph label", line_no)
            yield quad.triple


def parse_ntriples(text: str, graph: Graph | None = None) -> Graph:
    """Parse an N-Triples document into a (new or given) graph."""
    if graph is None:
        graph = Graph()
    # a file's line rule; splitlines() also splits at U+2028, U+0085, …
    graph.update(iter_ntriples(io.StringIO(text, newline=None)))
    return graph


def parse_ntriples_file(path: str, graph: Graph | None = None) -> Graph:
    """Parse an N-Triples file from disk."""
    if graph is None:
        graph = Graph()
    with open(path, encoding="utf-8") as handle:
        graph.update(iter_ntriples(handle))
    return graph


def serialize_ntriples(graph: Graph) -> str:
    """Serialize a graph to a deterministic (sorted) N-Triples document."""
    lines = sorted(t.n3() for t in graph)
    return "\n".join(lines) + ("\n" if lines else "")


def write_ntriples(graph: Graph, out: IO[str]) -> int:
    """Stream a graph to a file object; returns the number of triples."""
    count = 0
    for t in graph:
        out.write(t.n3())
        out.write("\n")
        count += 1
    return count
