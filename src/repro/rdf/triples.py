"""Triples, quads, and triple patterns."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .terms import IRI, BlankNode, Literal, Term, TermOrVariable, Variable
from ..errors import TermError

__all__ = ["Triple", "Quad", "TriplePattern"]


class Triple(NamedTuple):
    """An asserted RDF triple ``(subject, predicate, object)``.

    Being a ``NamedTuple`` it unpacks like a plain 3-tuple and compares by
    value, while still offering ``.s``/``.p``/``.o`` accessors.
    """

    s: Term
    p: Term
    o: Term

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."

    @staticmethod
    def validate(s: Term, p: Term, o: Term) -> "Triple":
        """Build a triple, enforcing RDF positional constraints.

        Subjects must be IRIs or blank nodes, predicates IRIs, and objects
        any term.  Raises :class:`TermError` otherwise.
        """
        if not isinstance(s, (IRI, BlankNode)):
            raise TermError(f"triple subject must be IRI or blank node: {s!r}")
        if not isinstance(p, IRI):
            raise TermError(f"triple predicate must be IRI: {p!r}")
        if not isinstance(o, (IRI, BlankNode, Literal)):
            raise TermError(f"triple object must be an RDF term: {o!r}")
        return Triple(s, p, o)


class Quad(NamedTuple):
    """A triple inside a named graph (``graph is None`` = default graph)."""

    s: Term
    p: Term
    o: Term
    graph: Optional[IRI]

    @property
    def triple(self) -> Triple:
        return Triple(self.s, self.p, self.o)


class TriplePattern(NamedTuple):
    """A triple pattern: each position is a concrete term or a variable."""

    s: TermOrVariable
    p: TermOrVariable
    o: TermOrVariable

    def variables(self) -> set[Variable]:
        """The set of variables appearing in this pattern."""
        return {t for t in self if isinstance(t, Variable)}

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."
