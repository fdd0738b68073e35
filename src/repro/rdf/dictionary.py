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
from .terms import Term

__all__ = ["ID_LIMIT", "TermDictionary"]

#: Ids must fit 32 bits signed so the columnar store packs (a, b) into one
#: int64 key; the dictionary refuses to mint an id at or past it.
ID_LIMIT = 1 << 31


def _capacity_error(term: Term) -> StoreCapacityError:
    return StoreCapacityError(
        f"term dictionary is full ({ID_LIMIT} ids): cannot intern {term}")


class TermDictionary:
    """A bidirectional, append-only term ↔ integer-id mapping.

    Ids are dense and start at 0, so ``decode`` is a list lookup.  Terms are
    never removed: a graph that drops its last triple for a term simply
    leaves the id unused, which keeps ids stable for the lifetime of a
    dataset (a property the view catalog relies on).
    """

    __slots__ = ("_by_term", "_by_id")

    def __init__(self) -> None:
        self._by_term: dict[Term, int] = {}
        self._by_id: list[Term] = []

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
        return tid

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
