"""A Turtle subset: the parts of Turtle 1.1 the demo datasets need.

Supported: ``@prefix``/``PREFIX`` and ``@base``/``BASE`` directives,
prefixed names, ``a`` for ``rdf:type``, predicate-object lists (``;``),
object lists (``,``), blank node labels, numeric/boolean literal shorthand,
language tags and datatyped literals, ``"..."`` and ``\"\"\"...\"\"\"`` strings,
and comments.  Not supported (raises :class:`ParseError`): collections
``( ... )`` and anonymous blank nodes ``[ ... ]``.

The serializer writes subject-grouped Turtle with prefix abbreviation,
which is what the console's "view node inspector" panel displays.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from ..errors import ParseError
from .graph import Graph
from .namespace import RDF, PrefixMap, default_prefixes
from .ntriples import unescape_string
from .terms import XSD, BlankNode, IRI, Literal, Term
from .triples import Triple

__all__ = ["parse_turtle", "serialize_turtle"]


class _Token(NamedTuple):
    kind: str
    value: str
    line: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<triple_string>\"\"\"(?:[^"\\]|\\.|"(?!""))*\"\"\")
    | (?P<string>"(?:[^"\\\n\r]|\\.)*")
    | (?P<iri><[^<>"{}|^`\\\x00-\x20]*>)
    | (?P<bnode>_:[A-Za-z0-9_.\-]+)
    | (?P<lang>@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
    | (?P<double>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
    | (?P<decimal>[+-]?\d*\.\d+)
    | (?P<integer>[+-]?\d+)
    | (?P<dtype_marker>\^\^)
    | (?P<punct>[.;,\[\]()])
    | (?P<pname>[A-Za-z_][A-Za-z0-9_\-.]*?:[A-Za-z0-9_][A-Za-z0-9_\-.]*|[A-Za-z_][A-Za-z0-9_\-.]*?:)
    | (?P<keyword>@?[A-Za-z]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "lang" and value.lower() in ("@prefix", "@base"):
            kind = "keyword"
        if kind != "ws":
            yield _Token(kind, value, line)
        line += value.count("\n")
        pos = m.end()
    yield _Token("eof", "", line)


class _TurtleParser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._pos = 0
        self._prefixes = default_prefixes()
        self._base = ""

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self._next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise ParseError(
                f"expected {value or kind}, got {tok.value!r}", tok.line)
        return tok

    def triples(self) -> Iterator[Triple]:
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "keyword" and tok.value.lower() in (
                    "@prefix", "prefix", "@base", "base"):
                self._directive()
            else:
                yield from self._statement()

    def _directive(self) -> None:
        tok = self._next()
        keyword = tok.value.lower()
        sparql_style = not keyword.startswith("@")
        if keyword.endswith("prefix"):
            pname = self._expect("pname")
            prefix = pname.value[:-1] if pname.value.endswith(":") else \
                pname.value.split(":", 1)[0]
            iri_tok = self._expect("iri")
            self._prefixes.bind(prefix, iri_tok.value[1:-1])
        else:
            iri_tok = self._expect("iri")
            self._base = iri_tok.value[1:-1]
        if not sparql_style:
            self._expect("punct", ".")

    def _statement(self) -> Iterator[Triple]:
        subject = self._subject()
        yield from self._predicate_object_list(subject)
        self._expect("punct", ".")

    def _subject(self) -> Term:
        tok = self._peek()
        if tok.kind in ("iri", "pname"):
            return self._iri_like()
        if tok.kind == "bnode":
            self._next()
            return BlankNode(tok.value[2:])
        raise ParseError(f"invalid subject {tok.value!r}", tok.line)

    def _iri_like(self) -> IRI:
        tok = self._next()
        if tok.kind == "iri":
            raw = unescape_string(tok.value[1:-1], tok.line)
            if self._base and "://" not in raw and not raw.startswith("urn:"):
                raw = self._base + raw
            return IRI(raw)
        try:
            return self._prefixes.expand(tok.value)
        except KeyError as exc:
            raise ParseError(str(exc), tok.line) from exc

    def _predicate_object_list(self, subject: Term) -> Iterator[Triple]:
        while True:
            predicate = self._verb()
            while True:
                obj = self._object()
                yield Triple(subject, predicate, obj)  # update validates
                if self._peek() == ("punct", ",", self._peek().line) or (
                        self._peek().kind == "punct" and self._peek().value == ","):
                    self._next()
                    continue
                break
            tok = self._peek()
            if tok.kind == "punct" and tok.value == ";":
                self._next()
                # allow trailing ';' before '.'
                nxt = self._peek()
                if nxt.kind == "punct" and nxt.value == ".":
                    return
                continue
            return

    def _verb(self) -> IRI:
        tok = self._peek()
        if tok.kind == "keyword" and tok.value == "a":
            self._next()
            return RDF.type
        if tok.kind in ("iri", "pname"):
            return self._iri_like()
        raise ParseError(f"invalid predicate {tok.value!r}", tok.line)

    def _object(self) -> Term:
        tok = self._peek()
        if tok.kind in ("iri", "pname"):
            return self._iri_like()
        if tok.kind == "bnode":
            self._next()
            return BlankNode(tok.value[2:])
        if tok.kind in ("string", "triple_string"):
            return self._literal()
        if tok.kind == "integer":
            self._next()
            return Literal(tok.value, XSD.integer)
        if tok.kind == "decimal":
            self._next()
            return Literal(tok.value, XSD.decimal)
        if tok.kind == "double":
            self._next()
            return Literal(tok.value, XSD.double)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self._next()
            return Literal(tok.value, XSD.boolean)
        if tok.kind == "punct" and tok.value in ("[", "("):
            raise ParseError(
                "collections and anonymous blank nodes are outside the "
                "supported Turtle subset", tok.line)
        raise ParseError(f"invalid object {tok.value!r}", tok.line)

    def _literal(self) -> Literal:
        tok = self._next()
        if tok.kind == "triple_string":
            lexical = unescape_string(tok.value[3:-3], tok.line)
        else:
            lexical = unescape_string(tok.value[1:-1], tok.line)
        nxt = self._peek()
        if nxt.kind == "lang":
            self._next()
            return Literal(lexical, language=nxt.value[1:])
        if nxt.kind == "dtype_marker":
            self._next()
            dtype = self._iri_like()
            return Literal(lexical, dtype)
        return Literal(lexical, XSD.string)


def parse_turtle(text: str, graph: Graph | None = None) -> Graph:
    """Parse a Turtle document (see module docstring for the subset)."""
    if graph is None:
        graph = Graph()
    graph.update(_TurtleParser(text).triples())
    return graph


def _term_to_turtle(term: Term, prefixes: PrefixMap) -> str:
    if isinstance(term, IRI):
        short = prefixes.shrink(term)
        return short if short is not None else term.n3()
    if isinstance(term, Literal) and term.datatype != XSD.string \
            and not term.language:
        short = prefixes.shrink(term.datatype)
        if short is not None:
            body = term.n3().split("^^")[0]
            return f"{body}^^{short}"
    return term.n3()


def serialize_turtle(graph: Graph, prefixes: PrefixMap | None = None) -> str:
    """Serialize a graph as subject-grouped Turtle with prefix abbreviation."""
    if prefixes is None:
        prefixes = default_prefixes()
    lines = [f"@prefix {prefix}: <{base}> ." for prefix, base in
             sorted(prefixes.items())]
    if lines:
        lines.append("")
    by_subject: dict[Term, list[Triple]] = {}
    for t in graph:
        by_subject.setdefault(t.s, []).append(t)
    for subject in sorted(by_subject, key=lambda s: s.sort_key()):
        triples = sorted(by_subject[subject],
                         key=lambda t: (t.p.sort_key(), t.o.sort_key()))
        subject_text = _term_to_turtle(subject, prefixes)
        parts = []
        for t in triples:
            pred = "a" if t.p == RDF.type else _term_to_turtle(t.p, prefixes)
            parts.append(f"{pred} {_term_to_turtle(t.o, prefixes)}")
        joined = " ;\n    ".join(parts)
        lines.append(f"{subject_text} {joined} .")
    return "\n".join(lines) + ("\n" if lines else "")
