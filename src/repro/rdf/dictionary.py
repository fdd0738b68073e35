"""Dictionary encoding of RDF terms.

Real RDF stores never join on strings: terms are interned once into dense
integer identifiers and every index and every intermediate query result is
expressed over those integers.  :class:`TermDictionary` provides that
interning layer; a dictionary is typically shared by all graphs of a
:class:`~repro.rdf.dataset.Dataset` and by the SPARQL executor so that ids
are comparable across graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..errors import StoreCapacityError
from .terms import XSD, Literal, Term

__all__ = ["ID_LIMIT", "TermDictionary", "canonical_integer"]

#: Ids must fit 32 bits signed so the columnar store packs (a, b) into one
#: int64 key; the dictionary refuses to mint an id at or past it.
ID_LIMIT = 1 << 31


_INTEGER = XSD.integer.value


def _capacity_error(term: Term) -> StoreCapacityError:
    return StoreCapacityError(
        f"term dictionary is full ({ID_LIMIT} ids): cannot intern {term}")


def canonical_integer(term: Term) -> Optional[int]:
    """``v`` if ``term`` is ``v``'s canonical ``xsd:integer`` literal,
    else None: ``"5"`` is 5's; ``"05"``, ``"+5"``, ``"-0"``, ``" 5"``
    and ``"5"`` under any other datatype (a language tag included) are
    nobody's."""
    if not isinstance(term, Literal) or term.datatype.value != _INTEGER:
        return None
    lexical = term.lexical
    try:
        value = int(lexical)
    except ValueError:
        return None
    return value if str(value) == lexical else None


class TermDictionary:
    """A bidirectional, append-only term ↔ integer-id mapping.

    Ids are dense and start at 0, so ``decode`` is a list lookup.  Terms are
    never removed: a graph that drops its last triple for a term simply
    leaves the id unused, which keeps ids stable for the lifetime of a
    dataset (a property the view catalog relies on).

    Beside the two directions it keeps one value index: an int ``v`` →
    the id of ``Literal(str(v), XSD.integer)``, the canonical literal of
    ``v`` (:meth:`integer_id`).  Only a non-language ``xsd:integer``
    literal whose lexical form is ``str(int(lexical))`` enters it, so
    ``"05"``, ``"+5"`` and ``"-0"`` never answer for 5 or 0.  It is
    filled as terms are minted, O(1) per new term, and like the ids it
    never goes stale.
    """

    __slots__ = ("_by_term", "_by_id", "_by_integer")

    def __init__(self) -> None:
        self._by_term: dict[Term, int] = {}
        self._by_id: list[Term] = []
        self._by_integer: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, term: Term) -> bool:
        return term in self._by_term

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, interning it on first sight."""
        tid = self._by_term.get(term)
        if tid is None:
            tid = len(self._by_id)
            if tid >= ID_LIMIT:
                raise _capacity_error(term)
            self._by_term[term] = tid
            self._by_id.append(term)
            if isinstance(term, Literal) and (
                    value := canonical_integer(term)) is not None:
                self._by_integer[value] = tid
        return tid

    def integer_id(self, value: int) -> Optional[int]:
        """The id of ``value``'s canonical ``xsd:integer`` literal, or
        None when it was never minted: ``lookup(Literal(str(value),
        XSD.integer))`` without building the literal.

        ``value`` must be an exact ``int`` (``type(value) is int``): the
        index is a dict, where ``True`` and ``5.0`` would read the ids
        of ``"1"`` and ``"5"``.  Callers guard.
        """
        return self._by_integer.get(value)

    def lookup(self, term: Term) -> Optional[int]:
        """Return the id for ``term`` or ``None`` when it was never seen.

        Unlike :meth:`encode` this never mutates the dictionary, which makes
        it the right call for query constants: an unseen constant means the
        pattern matches nothing.
        """
        return self._by_term.get(term)

    def encode_many(self, terms: Iterable[Term]) -> list[int]:
        """Intern many terms at once; returns their ids in input order.

        A term that would be minted past :data:`ID_LIMIT` raises
        :class:`~repro.errors.StoreCapacityError`; the terms minted before
        it stay interned, and it and the rest are left out."""
        by_term = self._by_term
        by_id = self._by_id
        out: list[int] = []
        for term in terms:
            tid = by_term.get(term)
            if tid is None:
                tid = len(by_id)
                if tid >= ID_LIMIT:
                    raise _capacity_error(term)
                by_term[term] = tid
                by_id.append(term)
                if isinstance(term, Literal) and (
                        value := canonical_integer(term)) is not None:
                    self._by_integer[value] = tid
            out.append(tid)
        return out

    def decode(self, tid: int) -> Term:
        """Return the term for ``tid``; raises ``IndexError`` for bad ids."""
        return self._by_id[tid]

    def id_terms(self) -> Sequence[Term]:
        """The id → term list itself (``id_terms()[tid]`` decodes ``tid``):
        live and growing, read-only for callers."""
        return self._by_id

    def decode_many(self, tids: Iterable[int]) -> list[Term]:
        """Return the terms for many ids in input order (bulk ``decode``)."""
        by_id = self._by_id
        return [by_id[tid] for tid in tids]

    def terms(self) -> Iterator[Term]:
        """Iterate over all interned terms in id order."""
        return iter(self._by_id)
