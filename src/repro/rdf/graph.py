"""An indexed, dictionary-encoded, in-memory RDF graph.

The graph owns *semantics* — term interning, version counting, change
capture, failpoint seams — and delegates physical *layout* to a
pluggable :class:`~repro.rdf.store.TripleStore`.  The default
``DictStore`` keeps three nested-hash indexes (SPO, POS, OSP) over
integer term ids, which makes every one of the eight triple-pattern
access paths a hash walk rather than a scan; the ``ColumnarStore``
backend keeps sorted contiguous id-columns probed by binary search.
This is the substrate the paper assumes when it says SOFOS can run "on
any RDF triple store with SPARQL query processing".

Typical usage::

    g = Graph()                      # nested-hash layout (default)
    g = Graph(store="columnar")      # sorted-column layout
    g.add(Triple(EX.france, EX.population, typed_literal(67_000_000)))
    for t in g.triples(p=EX.population):
        ...

The ``REPRO_STORE`` environment variable changes the default backend
process-wide (``REPRO_STORE=columnar``), which is how CI runs the whole
test suite against both layouts.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Optional

from ..resilience.failpoints import fail_at
from .changelog import ChangeLog, DEFAULT_CHANGELOG_LIMIT
from .dictionary import TermDictionary
from .store import TripleStore, resolve_store
from .terms import IRI, BlankNode, Literal, Term, Variable
from .triples import Triple, TriplePattern

__all__ = ["Graph"]


class Graph:
    """A mutable set of RDF triples with pattern-matching access paths.

    Parameters
    ----------
    dictionary:
        The term-interning dictionary to use.  Pass a shared dictionary when
        several graphs must produce comparable term ids (the
        :class:`~repro.rdf.dataset.Dataset` does this for all its graphs);
        by default each graph owns a private one.
    store:
        Storage backend: a name (``"dict"`` / ``"columnar"``), a ready
        :class:`~repro.rdf.store.TripleStore` instance (adopted as-is),
        or ``None`` to consult ``$REPRO_STORE`` and fall back to the
        nested-hash layout.
    """

    __slots__ = ("_dict", "_store", "_version", "_node_cache",
                 "_hist_cache", "_profile_cache", "_logs")

    def __init__(self, dictionary: TermDictionary | None = None,
                 triples: Iterable[Triple] | None = None,
                 store: str | TripleStore | None = None) -> None:
        self._dict = dictionary if dictionary is not None else TermDictionary()
        self._store: TripleStore = resolve_store(store)
        self._version = 0
        # version-keyed caches of the whole-graph statistics the cost
        # models probe repeatedly: (version, payload) tuples.
        self._node_cache: dict[bool, tuple[int, set[int]]] = {}
        self._hist_cache: Optional[tuple[int, dict[IRI, int]]] = None
        self._profile_cache: tuple[int, dict[int, tuple]] = (0, {})
        # Live change-capture subscriptions (held weakly, so a log whose
        # owner forgot close() stops costing per-mutation work once it is
        # collected).  Copies start with no subscribers of their own.
        self._logs: list[weakref.ref] = []
        if triples is not None:
            for t in triples:
                self.add(t)

    # -- basic protocol ----------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The term dictionary this graph encodes against."""
        return self._dict

    @property
    def store(self) -> TripleStore:
        """The storage backend holding this graph's triples."""
        return self._store

    @property
    def store_kind(self) -> str:
        """Name of the configured storage backend (``dict``/``columnar``)."""
        return self._store.kind

    @property
    def version(self) -> int:
        """A counter incremented by every successful mutation.

        Materialized views record the base graph's version at build time;
        the catalog compares versions to detect staleness.
        """
        return self._version

    def __len__(self) -> int:
        return len(self._store)

    def __bool__(self) -> bool:
        return len(self._store) > 0

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        sid = self._dict.lookup(s)
        pid = self._dict.lookup(p)
        oid = self._dict.lookup(o)
        if sid is None or pid is None or oid is None:
            return False
        return self._store.contains(sid, pid, oid)

    def __repr__(self) -> str:
        return (f"<Graph with {len(self._store)} triples "
                f"[{self._store.kind}]>")

    # -- mutation ------------------------------------------------------------

    def _apply(self, inserts, deletes) -> tuple[int, int]:
        """The single mutation seam shared by every write path.

        Applies ``inserts`` then ``deletes`` (iterables of id-triples,
        ``None`` to skip) to the store, bumps the version once iff
        anything actually changed, and pushes per-triple records to live
        change logs.  Routing *all* writes through here is what keeps
        the two storage backends from drifting on version-bump /
        changelog-push semantics.
        """
        store = self._store
        added = store.insert_many(inserts) if inserts is not None else ()
        removed = store.delete_many(deletes) if deletes is not None else ()
        if not added and not removed:
            return 0, 0
        self._version += 1
        if self._logs:
            for log in self._live_logs():
                record = log._record
                for sid, pid, oid in added:
                    record(sid, pid, oid, 1)
                for sid, pid, oid in removed:
                    record(sid, pid, oid, -1)
        return len(added), len(removed)

    def add(self, triple: Triple) -> bool:
        """Add a triple; returns True when it was not already present."""
        s, p, o = Triple.validate(*triple)
        sid = self._dict.encode(s)
        pid = self._dict.encode(p)
        oid = self._dict.encode(o)
        return self._add_ids(sid, pid, oid)

    def _add_ids(self, sid: int, pid: int, oid: int) -> bool:
        added, _ = self._apply(((sid, pid, oid),), None)
        return bool(added)

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        validated = [Triple.validate(*t) for t in triples]
        ids = self._dict.encode_many(
            term for triple in validated for term in triple)
        return self.add_ids_bulk(zip(ids[0::3], ids[1::3], ids[2::3]))

    def add_ids_bulk(self, id_triples: Iterable[tuple[int, int, int]]) -> int:
        """Insert many id-triples with a single version bump.

        The id-native fast path for bulk loading and view materialization:
        ids must come from this graph's dictionary.  Returns the number of
        triples actually inserted (duplicates are skipped), and bumps the
        version once iff anything was inserted.
        """
        fail_at("graph.add_ids_bulk")
        added, _ = self._apply(id_triples, None)
        return added

    def discard(self, triple: Triple) -> bool:
        """Remove a triple; returns True when it was present."""
        s, p, o = triple
        sid = self._dict.lookup(s)
        pid = self._dict.lookup(p)
        oid = self._dict.lookup(o)
        if sid is None or pid is None or oid is None:
            return False
        return self.discard_ids(sid, pid, oid)

    def discard_ids(self, sid: int, pid: int, oid: int) -> bool:
        """Remove one id-triple; returns True when it was present."""
        _, removed = self._apply(None, ((sid, pid, oid),))
        return bool(removed)

    def remove(self, triples: Iterable[Triple]) -> int:
        """Remove many triples with a single version bump.

        The bulk counterpart of :meth:`discard` (and the mirror image of
        :meth:`update`): triples whose terms were never interned are
        skipped, and the version moves once iff anything was removed.
        """
        ids: list[tuple[int, int, int]] = []
        lookup = self._dict.lookup
        for s, p, o in triples:
            sid = lookup(s)
            pid = lookup(p)
            oid = lookup(o)
            if sid is None or pid is None or oid is None:
                continue
            ids.append((sid, pid, oid))
        return self.remove_ids_bulk(ids)

    def remove_ids_bulk(self, id_triples: Iterable[tuple[int, int, int]]
                        ) -> int:
        """Remove many id-triples with a single version bump.

        The id-native fast path for delta application and view patching;
        returns the number of triples actually removed (absent triples are
        skipped), and bumps the version once iff anything was removed.
        """
        fail_at("graph.remove_ids_bulk")
        _, removed = self._apply(None, id_triples)
        return removed

    def clear(self) -> None:
        """Drop all triples (the shared dictionary is left untouched).

        Change logs cannot itemize a wholesale clear; their current window
        is marked truncated so consumers fall back to full recomputation.
        """
        self._store.clear()
        self._version += 1
        if self._logs:
            for log in self._live_logs():
                log._truncate()

    # -- change capture ------------------------------------------------------

    def _live_logs(self) -> list[ChangeLog]:
        """Dereference subscriptions, pruning any whose owner was collected."""
        logs = [ref() for ref in self._logs]
        live = [log for log in logs if log is not None]
        if len(live) != len(logs):
            self._logs = [ref for ref in self._logs if ref() is not None]
        return live

    def subscribe(self, limit: int = DEFAULT_CHANGELOG_LIMIT) -> ChangeLog:
        """Attach a :class:`~repro.rdf.changelog.ChangeLog` to this graph.

        The log buffers the net id-space delta of every subsequent
        mutation until drained.  Call :meth:`ChangeLog.close` (or
        :meth:`unsubscribe`) when done — live logs cost one dict update
        per mutated triple.  The graph holds the subscription weakly, so
        an abandoned log stops recording once garbage-collected.
        """
        log = ChangeLog(self, limit)
        self._logs.append(weakref.ref(log))
        return log

    def unsubscribe(self, log: ChangeLog) -> bool:
        """Detach a change log; returns True when it was attached."""
        for i, ref in enumerate(self._logs):
            if ref() is log:
                del self._logs[i]
                return True
        return False

    def copy(self, dictionary: TermDictionary | None = None) -> "Graph":
        """A copy preserving the storage backend.

        Same-dictionary copies are O(store): the backend clones its own
        index structures (array slices on columnar, dict rebuilds on
        dict) instead of re-inserting triple-at-a-time.  Re-encoding
        against a different ``dictionary`` falls back to per-triple
        decode/re-add on a fresh store of the same kind.
        """
        if dictionary is None or dictionary is self._dict:
            clone = Graph(self._dict, store=self._store.copy())
            clone._version = 1 if len(clone._store) else 0
            return clone
        clone = Graph(dictionary, store=self._store.kind)
        for t in self.triples():
            clone.add(t)
        return clone

    # -- id-level access (used by the SPARQL executor) -----------------------

    def subject_ids(self):
        """Distinct ids appearing in subject position.

        Deterministically ordered (insertion order of first use as a
        subject on the dict backend, ascending id order on columnar);
        the update-stream generator samples entities from it.  Callers
        must treat the view as read-only.
        """
        return self._store.subject_ids()

    def _iter_ids(self) -> Iterator[tuple[int, int, int]]:
        return self._store.iter_ids()

    def snapshot_ids(self) -> list[tuple[int, int, int]]:
        """The full id-triple content, materialized as a list.

        The undo-log primitive of transactional upkeep: capture before a
        risky in-place rewrite, restore after a failure with ``clear()``
        + ``add_ids_bulk(snapshot)`` (ids stay valid across the round
        trip because the dictionary is append-only).
        """
        return self._store.snapshot_ids()

    def match_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> Iterator[tuple[int, int, int]]:
        """Iterate id-triples matching a pattern of ids (None = wildcard).

        This is the raw access path: every one of the eight concretization
        patterns walks the cheapest of the three permutation indexes.
        """
        return self._store.match_ids(sid, pid, oid)

    def adjacent_ids(self, sid: Optional[int], pid: Optional[int],
                     oid: Optional[int]):
        """The ids filling the single ``None`` position.

        This is the raw index leaf: the batched executor probes it once
        per distinct bound prefix and the hash join intersects candidate
        sets directly, with no per-triple tuple construction.  Exactly one
        position must be ``None``.  The returned collection may be **live
        index state** — callers must treat it as read-only.
        """
        return self._store.adjacent_ids(sid, pid, oid)

    def pair_adjacency(self, key_pos: int, free_pos: int, const_id: int):
        """A per-key leaf accessor for two-variable, one-constant patterns.

        Returns ``get(key) -> collection | None`` mapping the id at
        ``key_pos`` to the leaf of ids at ``free_pos``, with ``const_id``
        fixed at the remaining position.  The batched executor hoists
        this out of its probe loop so each distinct key costs one or two
        index lookups and no per-call position dispatch.  Leaves may be
        live index state — read-only for callers.
        """
        return self._store.pair_adjacency(key_pos, free_pos, const_id)

    def count_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> int:
        """Exact cardinality of a pattern of ids, without materializing it.

        The planner uses this to order basic graph patterns most-selective
        first; all cases are O(index-fanout) or better.
        """
        return self._store.count_ids(sid, pid, oid)

    # -- term-level access ----------------------------------------------------

    def _encode_pattern(self, s: Term | None, p: Term | None, o: Term | None
                        ) -> Optional[tuple[Optional[int], Optional[int], Optional[int]]]:
        ids: list[Optional[int]] = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                tid = self._dict.lookup(term)
                if tid is None:
                    return None
                ids.append(tid)
        return (ids[0], ids[1], ids[2])

    def triples(self, s: Term | None = None, p: Term | None = None,
                o: Term | None = None) -> Iterator[Triple]:
        """Iterate triples matching the (s, p, o) pattern; None = wildcard."""
        ids = self._encode_pattern(s, p, o)
        if ids is None:
            return
        decode = self._dict.decode
        for sid, pid, oid in self._store.match_ids(*ids):
            yield Triple(decode(sid), decode(pid), decode(oid))

    def count(self, s: Term | None = None, p: Term | None = None,
              o: Term | None = None) -> int:
        """Number of triples matching the pattern, without materializing."""
        ids = self._encode_pattern(s, p, o)
        if ids is None:
            return 0
        return self._store.count_ids(*ids)

    def subjects(self, p: Term | None = None, o: Term | None = None
                 ) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, p, o)``."""
        seen: set[int] = set()
        ids = self._encode_pattern(None, p, o)
        if ids is None:
            return
        for sid, _, _ in self._store.match_ids(*ids):
            if sid not in seen:
                seen.add(sid)
                yield self._dict.decode(sid)

    def objects(self, s: Term | None = None, p: Term | None = None
                ) -> Iterator[Term]:
        """Distinct objects of triples matching ``(s, p, ?)``."""
        seen: set[int] = set()
        ids = self._encode_pattern(s, p, None)
        if ids is None:
            return
        for _, _, oid in self._store.match_ids(*ids):
            if oid not in seen:
                seen.add(oid)
                yield self._dict.decode(oid)

    def predicates(self) -> Iterator[Term]:
        """Distinct predicates used in the graph."""
        for pid in self._store.predicate_counts():
            yield self._dict.decode(pid)

    def value(self, s: Term | None = None, p: Term | None = None,
              o: Term | None = None) -> Term | None:
        """The single term filling the one None position, or None.

        Convenience accessor for functional properties: exactly one of the
        three positions must be None.
        """
        none_count = sum(1 for t in (s, p, o) if t is None)
        if none_count != 1:
            raise ValueError("value() requires exactly one wildcard position")
        for triple in self.triples(s, p, o):
            if s is None:
                return triple.s
            if p is None:
                return triple.p
            return triple.o
        return None

    # -- whole-graph statistics (cost-model inputs) ---------------------------

    def node_ids(self, include_predicates: bool = False) -> set[int]:
        """Ids of distinct graph nodes (subjects ∪ objects).

        This realizes the paper's node-count cost model
        ``C(V) = |I ∪ B ∪ L|``: the values appearing as graph nodes.
        Predicates are edge labels, not nodes, unless requested.

        The result is cached per graph version (the lattice profiler
        probes node counts repeatedly between mutations); callers must
        treat the returned set as read-only.
        """
        cached = self._node_cache.get(include_predicates)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        nodes = set(self._store.subject_ids())
        nodes.update(self._store.object_ids())
        if include_predicates:
            nodes.update(self._store.predicate_counts())
        self._node_cache[include_predicates] = (self._version, nodes)
        return nodes

    def node_count(self, include_predicates: bool = False) -> int:
        """Number of distinct nodes — the paper's cost model (4)."""
        return len(self.node_ids(include_predicates))

    def nodes(self) -> Iterator[Term]:
        """Iterate the distinct node terms of the graph."""
        for tid in sorted(self.node_ids()):
            yield self._dict.decode(tid)

    def predicate_histogram(self) -> dict[IRI, int]:
        """Triple count per predicate (feature input for the learned model).

        Cached per graph version; a fresh dict is returned each call so
        callers may mutate their copy freely.
        """
        cached = self._hist_cache
        if cached is not None and cached[0] == self._version:
            return dict(cached[1])
        decode = self._dict.decode
        histogram = {decode(pid): n
                     for pid, n in self._store.predicate_counts().items()}
        self._hist_cache = (self._version, histogram)
        return dict(histogram)

    def predicate_profile(self, pid: int) -> tuple[int, int, int]:
        """``(triples, distinct subjects, distinct objects)`` of one predicate.

        The one home of per-predicate cardinalities (the BGP planner reads
        the predicates it orders, ``GraphStatistics`` all of them): on
        demand, once per graph version, in O(triples of that predicate).
        """
        version, profiles = self._profile_cache
        if version != self._version:
            profiles = {}
            self._profile_cache = (self._version, profiles)
        profile = profiles.get(pid)
        if profile is None:
            profile = profiles[pid] = self._store.predicate_profile(pid)
        return profile

    def matches(self, pattern: TriplePattern) -> Iterator[dict[Variable, Term]]:
        """Bindings of ``pattern``'s variables against this graph.

        Single-pattern matching only; multi-pattern conjunction is the
        SPARQL executor's job.  Positions holding the same variable twice
        must bind consistently.
        """
        spec: list[Term | None] = []
        for t in pattern:
            spec.append(None if isinstance(t, Variable) else t)
        for triple in self.triples(*spec):
            binding: dict[Variable, Term] = {}
            ok = True
            for pos, term in zip(pattern, triple):
                if isinstance(pos, Variable):
                    bound = binding.get(pos)
                    if bound is None:
                        binding[pos] = term
                    elif bound != term:
                        ok = False
                        break
            if ok:
                yield binding
