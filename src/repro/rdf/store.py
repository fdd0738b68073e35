"""Pluggable triple-storage layouts behind a single `TripleStore` seam.

:class:`~repro.rdf.graph.Graph` owns *semantics* — version counting,
change-capture, failpoint seams, term encoding — and delegates *layout*
to a :class:`TripleStore`.  Two layouts ship:

``DictStore`` (default)
    The seed structure: three nested-hash permutation indexes
    (SPO, POS, OSP) of ``dict[int, dict[int, set[int]]]``.  Every access
    path is a hash walk; mutation is O(1) per triple.  Best for
    mutation-heavy paths (update streams, view patching).

``ColumnarStore`` (:mod:`repro.rdf.columnar`)
    Each permutation as sorted contiguous ``array('q')`` id columns with
    binary-search range lookups and vectorized numpy probe kernels.
    Best for scan/probe-heavy analytical serving.

Selection is explicit (``Graph(store="columnar")``) or process-wide via
the ``REPRO_STORE`` environment variable, so the whole test suite can run
against either backend.  Both backends must be observationally
equivalent: the randomized twin-store suite in
``tests/test_store_backends.py`` pins triples, counts, and iteration
semantics against each other.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, Iterator, Mapping, Optional

__all__ = ["TripleStore", "DictStore", "resolve_store", "STORE_ENV_VAR"]

#: Environment variable consulted when ``Graph`` gets no explicit store.
STORE_ENV_VAR = "REPRO_STORE"

_Index = dict  # dict[int, dict[int, set[int]]]

IdTriple = tuple  # (sid, pid, oid)


def _no_leaf(key: int):
    """Leaf accessor for a constant the index has never seen."""
    return None


class TripleStore:
    """Abstract storage layout for a set of id-triples.

    Stores hold **structure only**: the triple set, permutation indexes,
    and derived cardinalities (size, per-predicate counts).  They know
    nothing of versions, change logs, or term dictionaries — that is
    :class:`~repro.rdf.graph.Graph`'s job, which is what keeps the two
    backends from drifting on mutation semantics.

    ``insert_many``/``delete_many`` return the triples *actually*
    inserted/removed (duplicates and absentees skipped), in application
    order — the graph turns those into changelog records.
    """

    kind = "abstract"
    #: True when the backend exposes the bulk kernel API
    #: (``bulk_probe``/``bulk_exists``/``bulk_scan``); the executor's
    #: whole-batch probe is its one consumer.
    vectorized = False

    # -- mutation -----------------------------------------------------------

    def insert_many(self, id_triples: Iterable[IdTriple]) -> list:
        raise NotImplementedError

    def delete_many(self, id_triples: Iterable[IdTriple]) -> list:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    # -- cardinalities ------------------------------------------------------

    def __len__(self) -> int:
        raise NotImplementedError

    def predicate_counts(self) -> Mapping[int, int]:
        """Live read-only mapping of predicate id → triple count."""
        raise NotImplementedError

    # -- lookup -------------------------------------------------------------

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        raise NotImplementedError

    def iter_ids(self) -> Iterator[IdTriple]:
        raise NotImplementedError

    def snapshot_ids(self) -> list:
        return list(self.iter_ids())

    def match_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> Iterator[IdTriple]:
        raise NotImplementedError

    def adjacent_ids(self, sid: Optional[int], pid: Optional[int],
                     oid: Optional[int]):
        raise NotImplementedError

    def pair_adjacency(self, key_pos: int, free_pos: int, const_id: int):
        raise NotImplementedError

    def count_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> int:
        raise NotImplementedError

    def subject_ids(self):
        """Deterministically-ordered distinct subject ids (read-only)."""
        raise NotImplementedError

    def object_ids(self):
        """Distinct object ids (read-only; order backend-defined)."""
        raise NotImplementedError

    def predicate_profile(self, pid: int) -> tuple[int, int, int]:
        """``(triples, distinct subjects, distinct objects)`` of one
        predicate, in O(triples of that predicate)."""
        raise NotImplementedError

    def object_domain(self, pid: int):
        """The distinct object ids of one predicate (read-only; order
        backend-defined): the objects ``predicate_profile`` counts."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------

    def copy(self) -> "TripleStore":
        """An independent same-layout copy, O(store size)."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Estimated resident bytes of the index structures."""
        raise NotImplementedError

    def compact(self) -> None:
        """Fold any buffered writes into the base layout (no-op default)."""


def _index_add(index: _Index, a: int, b: int, c: int) -> bool:
    level1 = index.get(a)
    if level1 is None:
        index[a] = {b: {c}}
        return True
    level2 = level1.get(b)
    if level2 is None:
        level1[b] = {c}
        return True
    if c in level2:
        return False
    level2.add(c)
    return True


def _index_discard(index: _Index, a: int, b: int, c: int) -> bool:
    level1 = index.get(a)
    if level1 is None:
        return False
    level2 = level1.get(b)
    if level2 is None or c not in level2:
        return False
    level2.discard(c)
    if not level2:
        del level1[b]
        if not level1:
            del index[a]
    return True


def _index_bytes(index: _Index) -> int:
    total = sys.getsizeof(index)
    for level1 in index.values():
        total += sys.getsizeof(level1)
        for leaf in level1.values():
            total += sys.getsizeof(leaf)
    return total


class DictStore(TripleStore):
    """Three nested-hash permutation indexes (the seed layout)."""

    kind = "dict"
    vectorized = False

    __slots__ = ("_spo", "_pos", "_osp", "_size", "_pred_counts")

    def __init__(self) -> None:
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._pred_counts: dict[int, int] = {}

    # -- mutation -----------------------------------------------------------

    def insert_many(self, id_triples: Iterable[IdTriple]) -> list:
        spo, pos, osp = self._spo, self._pos, self._osp
        pred_counts = self._pred_counts
        added: list = []
        for sid, pid, oid in id_triples:
            if not _index_add(spo, sid, pid, oid):
                continue
            _index_add(pos, pid, oid, sid)
            _index_add(osp, oid, sid, pid)
            pred_counts[pid] = pred_counts.get(pid, 0) + 1
            added.append((sid, pid, oid))
        self._size += len(added)
        return added

    def delete_many(self, id_triples: Iterable[IdTriple]) -> list:
        spo, pos, osp = self._spo, self._pos, self._osp
        pred_counts = self._pred_counts
        removed: list = []
        for sid, pid, oid in id_triples:
            if not _index_discard(spo, sid, pid, oid):
                continue
            _index_discard(pos, pid, oid, sid)
            _index_discard(osp, oid, sid, pid)
            remaining = pred_counts[pid] - 1
            if remaining:
                pred_counts[pid] = remaining
            else:
                del pred_counts[pid]
            removed.append((sid, pid, oid))
        self._size -= len(removed)
        return removed

    def clear(self) -> None:
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._pred_counts.clear()
        self._size = 0

    # -- cardinalities ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def predicate_counts(self) -> Mapping[int, int]:
        return self._pred_counts

    # -- lookup -------------------------------------------------------------

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        level1 = self._spo.get(sid)
        if level1 is None:
            return False
        level2 = level1.get(pid)
        return level2 is not None and oid in level2

    def iter_ids(self) -> Iterator[IdTriple]:
        for sid, level1 in self._spo.items():
            for pid, level2 in level1.items():
                for oid in level2:
                    yield (sid, pid, oid)

    def match_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> Iterator[IdTriple]:
        if sid is not None:
            level1 = self._spo.get(sid)
            if level1 is None:
                return
            if pid is not None:
                level2 = level1.get(pid)
                if level2 is None:
                    return
                if oid is not None:
                    if oid in level2:
                        yield (sid, pid, oid)
                    return
                for o in level2:
                    yield (sid, pid, o)
                return
            if oid is not None:
                preds = self._osp.get(oid, {}).get(sid)
                if preds:
                    for p in preds:
                        yield (sid, p, oid)
                return
            for p, objs in level1.items():
                for o in objs:
                    yield (sid, p, o)
            return
        if pid is not None:
            level1 = self._pos.get(pid)
            if level1 is None:
                return
            if oid is not None:
                subs = level1.get(oid)
                if subs:
                    for s in subs:
                        yield (s, pid, oid)
                return
            for o, subs in level1.items():
                for s in subs:
                    yield (s, pid, o)
            return
        if oid is not None:
            level1 = self._osp.get(oid)
            if level1 is None:
                return
            for s, preds in level1.items():
                for p in preds:
                    yield (s, p, oid)
            return
        yield from self.iter_ids()

    _EMPTY_ADJACENCY: frozenset = frozenset()

    def adjacent_ids(self, sid: Optional[int], pid: Optional[int],
                     oid: Optional[int]):
        if sid is None:
            if pid is None or oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            return self._pos.get(pid, {}).get(oid) or self._EMPTY_ADJACENCY
        if pid is None:
            if oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            return self._osp.get(oid, {}).get(sid) or self._EMPTY_ADJACENCY
        if oid is not None:
            raise ValueError("adjacent_ids needs exactly one wildcard")
        return self._spo.get(sid, {}).get(pid) or self._EMPTY_ADJACENCY

    def pair_adjacency(self, key_pos: int, free_pos: int, const_id: int):
        if key_pos == 0 and free_pos == 2:    # (key, const_p, ?) → SPO
            spo_get = self._spo.get

            def get_o(key: int, _p: int = const_id):
                level = spo_get(key)
                return level.get(_p) if level else None
            return get_o
        if key_pos == 2 and free_pos == 0:    # (?, const_p, key) → POS
            level1 = self._pos.get(const_id)
            return level1.get if level1 is not None else _no_leaf
        if key_pos == 0 and free_pos == 1:    # (key, ?, const_o) → OSP
            level1 = self._osp.get(const_id)
            return level1.get if level1 is not None else _no_leaf
        if key_pos == 1 and free_pos == 2:    # (const_s, key, ?) → SPO
            level1 = self._spo.get(const_id)
            return level1.get if level1 is not None else _no_leaf
        if key_pos == 1 and free_pos == 0:    # (?, key, const_o) → POS
            pos_get = self._pos.get

            def get_s(key: int, _o: int = const_id):
                level = pos_get(key)
                return level.get(_o) if level else None
            return get_s
        if key_pos == 2 and free_pos == 1:    # (const_s, ?, key) → OSP
            osp_get = self._osp.get

            def get_p(key: int, _s: int = const_id):
                level = osp_get(key)
                return level.get(_s) if level else None
            return get_p
        raise ValueError(
            f"invalid pair_adjacency positions ({key_pos}, {free_pos})")

    def count_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> int:
        if sid is not None:
            level1 = self._spo.get(sid)
            if level1 is None:
                return 0
            if pid is not None:
                level2 = level1.get(pid)
                if level2 is None:
                    return 0
                if oid is not None:
                    return 1 if oid in level2 else 0
                return len(level2)
            if oid is not None:
                return len(self._osp.get(oid, {}).get(sid, ()))
            return sum(len(objs) for objs in level1.values())
        if pid is not None:
            if oid is not None:
                return len(self._pos.get(pid, {}).get(oid, ()))
            return self._pred_counts.get(pid, 0)
        if oid is not None:
            level1 = self._osp.get(oid)
            if level1 is None:
                return 0
            return sum(len(preds) for preds in level1.values())
        return self._size

    def subject_ids(self):
        return self._spo.keys()

    def object_ids(self):
        return self._osp.keys()

    def predicate_profile(self, pid: int) -> tuple[int, int, int]:
        by_object = self._pos.get(pid)
        if by_object is None:
            return (0, 0, 0)
        subjects = set().union(*by_object.values())
        return (self._pred_counts[pid], len(subjects), len(by_object))

    def object_domain(self, pid: int):
        return self._pos.get(pid, {}).keys()

    # -- lifecycle ----------------------------------------------------------

    def copy(self) -> "DictStore":
        clone = DictStore()
        clone._spo = {a: {b: set(c) for b, c in l1.items()}
                      for a, l1 in self._spo.items()}
        clone._pos = {a: {b: set(c) for b, c in l1.items()}
                      for a, l1 in self._pos.items()}
        clone._osp = {a: {b: set(c) for b, c in l1.items()}
                      for a, l1 in self._osp.items()}
        clone._size = self._size
        clone._pred_counts = dict(self._pred_counts)
        return clone

    def memory_bytes(self) -> int:
        return (_index_bytes(self._spo) + _index_bytes(self._pos)
                + _index_bytes(self._osp)
                + sys.getsizeof(self._pred_counts))


def resolve_store(spec) -> TripleStore:
    """Turn a store spec into a fresh (or passed-through) instance.

    ``spec`` may be ``None`` (consult ``$REPRO_STORE``, default dict), a
    backend name (``"dict"`` / ``"columnar"``), or a ready
    :class:`TripleStore` instance (adopted as-is — the caller hands over
    ownership, which is how ``Graph.copy`` stays O(store)).
    """
    if isinstance(spec, TripleStore):
        return spec
    if spec is None:
        spec = os.environ.get(STORE_ENV_VAR) or "dict"
    if spec == "dict":
        return DictStore()
    if spec == "columnar":
        from .columnar import ColumnarStore
        return ColumnarStore()
    raise ValueError(
        f"unknown triple-store backend {spec!r} (want 'dict' or 'columnar')")
