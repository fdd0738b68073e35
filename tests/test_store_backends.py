"""Backend parity: DictStore and ColumnarStore must be indistinguishable.

The storage layer is pluggable; everything above it (graph semantics,
change capture, transactional snapshot/restore, the SPARQL engines) must
behave identically on the nested-hash and sorted-column layouts.  These
tests drive *twin graphs* — one per backend, sharing a term dictionary so
ids coincide — through randomized mutation interleavings and assert the
observable state never diverges; the columnar bulk kernels are checked
against brute-force scans.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from repro.obs import metrics as _metrics
from repro.rdf import ColumnarStore, DictStore, Graph, IRI, TermDictionary, \
    Triple, parse_turtle, resolve_store, typed_literal
from repro.rdf.dictionary import ID_LIMIT
from repro.sparql import QueryEngine
from repro.workload import WorkloadConfig, WorkloadGenerator

from tests.conftest import on_store

EX = "http://example.org/"


def _twins() -> tuple[Graph, Graph]:
    d = TermDictionary()
    return Graph(d, store="dict"), Graph(d, store="columnar")


def _assert_same_state(gd: Graph, gc: Graph) -> None:
    assert len(gd) == len(gc)
    assert gd.version == gc.version
    assert sorted(gd.snapshot_ids()) == sorted(gc.snapshot_ids())
    assert gd.predicate_histogram() == gc.predicate_histogram()
    assert gd.node_ids() == gc.node_ids()
    assert set(gd.subject_ids()) == set(gc.subject_ids())
    triples = gd.snapshot_ids()
    for pid in {p for _, p, _ in triples} | {10 ** 6}:
        mine = [(s, o) for s, p, o in triples if p == pid]
        assert gd.predicate_profile(pid) == gc.predicate_profile(pid) == (
            len(mine), len({s for s, _ in mine}), len({o for _, o in mine}))
        assert sorted(gd.object_domain(pid)) == \
            sorted(gc.object_domain(pid)) == sorted({o for _, o in mine})


def _random_triples(rng: random.Random, n: int) -> list[Triple]:
    return [Triple(IRI(f"{EX}s{rng.randrange(12)}"),
                   IRI(f"{EX}p{rng.randrange(4)}"),
                   typed_literal(rng.randrange(15)))
            for _ in range(n)]


class TestTwinInterleaving:
    """Randomized op sequences leave both backends in identical state."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_interleaved_mutations(self, seed):
        rng = random.Random(seed)
        gd, gc = _twins()
        log_d, log_c = gd.subscribe(), gc.subscribe()
        for _ in range(60):
            op = rng.randrange(10)
            if op < 4:
                ts = _random_triples(rng, rng.randrange(1, 6))
                assert gd.update(ts) == gc.update(ts)
            elif op < 6:
                ts = _random_triples(rng, rng.randrange(1, 4))
                assert gd.remove(ts) == gc.remove(ts)
            elif op < 8 and len(gd):
                victim = rng.choice(sorted(gd.snapshot_ids()))
                assert gd.discard_ids(*victim) == gc.discard_ids(*victim)
            elif op == 8:
                delta_d, delta_c = log_d.drain(), log_c.drain()
                assert sorted(delta_d.inserted) == sorted(delta_c.inserted)
                assert sorted(delta_d.deleted) == sorted(delta_c.deleted)
                assert delta_d.truncated == delta_c.truncated
            else:
                gd.clear()
                gc.clear()
            _assert_same_state(gd, gc)
        delta_d, delta_c = log_d.drain(), log_c.drain()
        assert delta_d.truncated == delta_c.truncated
        assert sorted(delta_d.inserted) == sorted(delta_c.inserted)
        assert sorted(delta_d.deleted) == sorted(delta_c.deleted)

    def test_copy_preserves_backend_and_content(self):
        rng = random.Random(3)
        gd, gc = _twins()
        ts = _random_triples(rng, 40)
        gd.update(ts)
        gc.update(ts)
        cd, cc = gd.copy(), gc.copy()
        assert cd.store_kind == "dict"
        assert cc.store_kind == "columnar"
        assert isinstance(cc.store, ColumnarStore)
        _assert_same_state(cd, cc)
        # copies are independent of their originals
        extra = Triple(IRI(f"{EX}fresh"), IRI(f"{EX}p0"), typed_literal(99))
        cd.add(extra)
        cc.add(extra)
        assert extra not in gd and extra not in gc
        assert extra in cd and extra in cc

    def test_snapshot_restore_round_trip(self):
        rng = random.Random(5)
        gd, gc = _twins()
        ts = _random_triples(rng, 30)
        gd.update(ts)
        gc.update(ts)
        snap_d, snap_c = gd.snapshot_ids(), gc.snapshot_ids()
        assert sorted(snap_d) == sorted(snap_c)
        more = _random_triples(rng, 10)
        gd.update(more)
        gc.update(more)
        for g, snap in ((gd, snap_d), (gc, snap_c)):
            g.clear()
            g.add_ids_bulk(snap)
        _assert_same_state(gd, gc)
        assert sorted(gd.snapshot_ids()) == sorted(snap_d)


class TestPredicateProfile:
    """The planner's statistics: per predicate, per version, on demand."""

    @pytest.mark.parametrize("store", ["dict", "columnar"])
    def test_read_once_per_version_and_only_when_asked(self, store,
                                                       monkeypatch):
        g = Graph(store=store)
        g.update(_random_triples(random.Random(3), 40))
        reads: list[int] = []
        real = type(g.store).predicate_profile
        monkeypatch.setattr(
            type(g.store), "predicate_profile",
            lambda self, pid: reads.append(pid) or real(self, pid))
        pid = g.dictionary.lookup(IRI(f"{EX}p1"))
        first = g.predicate_profile(pid)
        assert g.predicate_profile(pid) == first and reads == [pid]
        g.add(Triple(IRI(f"{EX}new"), IRI(f"{EX}p1"), typed_literal(99)))
        assert g.predicate_profile(pid) == (
            first[0] + 1, first[1] + 1, first[2] + 1)
        assert reads == [pid, pid]
        # a single-pattern BGP is not planned: it reads no statistics
        QueryEngine(g).query(f"SELECT ?s WHERE {{ ?s <{EX}p2> ?o }}")
        assert reads == [pid, pid]
        # a two-pattern join has one candidate per step: still none
        QueryEngine(g).query(
            f"SELECT ?s WHERE {{ ?s <{EX}p2> ?o . ?s <{EX}p3> ?x }}")
        assert reads == [pid, pid]
        # three patterns: the first is the smallest skeleton (a count),
        # the other two compete on fan-out — their statistics, once each
        QueryEngine(g).query(
            f"SELECT ?s WHERE {{ ?s <{EX}p2> ?o . ?s <{EX}p3> ?x . "
            f"?s <{EX}p0> ?y }}")
        planned = {g.dictionary.lookup(IRI(f"{EX}p{k}")) for k in (0, 2, 3)}
        assert len(reads[2:]) == 2 and set(reads[2:]) < planned


class TestColumnarKernels:
    """Bulk kernels and access paths vs brute force over the triple set."""

    @pytest.fixture
    def store(self):
        rng = random.Random(11)
        s = ColumnarStore()
        triples = {(rng.randrange(40), rng.randrange(6), rng.randrange(50))
                   for _ in range(300)}
        s.insert_many(sorted(triples))
        return s, sorted(triples)

    def test_access_paths_match_bruteforce(self, store):
        s, triples = store
        rng = random.Random(13)
        subjects = sorted({t[0] for t in triples}) + [777]
        preds = sorted({t[1] for t in triples}) + [777]
        objects = sorted({t[2] for t in triples}) + [777]
        for _ in range(50):
            sid = rng.choice(subjects + [None])
            pid = rng.choice(preds + [None])
            oid = rng.choice(objects + [None])
            expected = [t for t in triples
                        if (sid is None or t[0] == sid)
                        and (pid is None or t[1] == pid)
                        and (oid is None or t[2] == oid)]
            assert sorted(s.match_ids(sid, pid, oid)) == expected
            assert s.count_ids(sid, pid, oid) == len(expected)
            wildcards = (sid, pid, oid).count(None)
            if wildcards == 1:
                free = (sid, pid, oid).index(None)
                assert s.adjacent_ids(sid, pid, oid) == \
                    {t[free] for t in expected}

    def test_pair_adjacency_matches_bruteforce(self, store):
        s, triples = store
        for key_pos, free_pos, const_pos in ((0, 2, 1), (2, 0, 1),
                                             (0, 1, 2), (1, 0, 2),
                                             (1, 2, 0), (2, 1, 0)):
            const = triples[0][const_pos]
            leaf = s.pair_adjacency(key_pos, free_pos, const)
            keys = {t[key_pos] for t in triples} | {999}
            for key in keys:
                expected = {t[free_pos] for t in triples
                            if t[key_pos] == key and t[const_pos] == const}
                got = leaf(key)
                assert (got or set()) == expected

    def test_memory_charges_the_pending_tail(self):
        s = ColumnarStore()
        s.insert_many([(i, 1, i) for i in range(100)])
        s.compact()
        compacted = s.memory_bytes()
        s.insert_many([(i, 2, i) for i in range(100)])
        s.delete_many([(i, 1, i) for i in range(50)])
        tables = sys.getsizeof(s._adds) + sys.getsizeof(s._dels) \
            - 2 * sys.getsizeof(set())
        assert s.memory_bytes() - compacted >= \
            tables + 150 * sys.getsizeof((0, 0, 0))

    def test_insert_rejects_oversized_ids(self):
        s = ColumnarStore()
        with pytest.raises(ValueError):
            s.insert_many([(ID_LIMIT, 0, 0)])

    def test_a_rejected_batch_writes_nothing(self):
        """The ids are checked before the first write: a batch with one
        bad id leaves no triple behind that was never counted, versioned
        or logged, and the store takes later batches as usual."""
        from repro.errors import StoreCapacityError
        g = Graph(store="columnar")
        log = g.subscribe()
        with pytest.raises(StoreCapacityError):
            g.add_ids_bulk(iter([(1, 2, 3), (ID_LIMIT, 0, 0)]))
        assert g.snapshot_ids() == [] and len(g) == 0
        assert g.count_ids(None, 2, None) == 0 and g.version == 0
        assert log.pending == 0
        assert g.add_ids_bulk([(1, 2, 3)]) == 1
        assert g.snapshot_ids() == [(1, 2, 3)] and len(g) == 1
        assert g.count_ids(None, 2, None) == 1 and g.version == 1
        assert log.drain().inserted == ((1, 2, 3),)

    def test_dictionary_refuses_to_mint_past_the_limit(self, monkeypatch):
        """The dictionary checks the limit before it mints, so no id a
        store would refuse ever exists; a hit is never checked."""
        from repro.errors import StoreCapacityError
        from repro.rdf import dictionary
        monkeypatch.setattr(dictionary, "ID_LIMIT", 3)
        d = TermDictionary()
        a, b, c, e = (IRI(EX + name) for name in "abce")
        assert d.encode_many([a, b]) == [0, 1]
        with pytest.raises(StoreCapacityError):
            d.encode_many([a, c, e, b])     # c takes id 2, e would be 3
        assert list(d.terms()) == [a, b, c]
        assert e not in d and d.lookup(e) is None
        with pytest.raises(StoreCapacityError):
            d.encode(e)
        assert len(d) == 3
        assert d.encode(b) == 1 and d.encode_many([c, a]) == [2, 0]


class TestOutOfRangeIds:
    """An id outside ``[0, ID_LIMIT)`` is absent on both stores: packed
    as ``(s << 32) | p`` a wider ``p`` would read as another pair."""

    ALIAS = (0, 2 ** 32 + 5, 7)      # packs to the key of (1, 5, ·)

    @pytest.mark.parametrize("kind", ["dict", "columnar"])
    def test_reads_and_deletes_treat_it_as_absent(self, kind):
        store = resolve_store(kind)
        store.insert_many([(1, 5, 7), (2, 5, 8)])
        sid, pid, oid = self.ALIAS
        for bad in ((sid, pid, oid), (-1, 5, 7), (1, -1, 7), (1, 5, -1),
                    (ID_LIMIT, 5, 7), (1, ID_LIMIT + 5, 7)):
            assert not store.contains(*bad)
            assert store.count_ids(*bad) == 0
            for free in range(3):
                if bad[free] != bad[free] % ID_LIMIT:
                    continue        # the one bad id, wildcarded
                pattern = list(bad)
                pattern[free] = None
                assert list(store.match_ids(*pattern)) == []
                assert store.count_ids(*pattern) == 0
                assert not store.adjacent_ids(*pattern)
        assert list(store.match_ids(sid, pid, None)) == []
        for key_pos, free_pos, const in ((1, 2, 0), (0, 2, 2 ** 32 + 5),
                                         (2, 0, 2 ** 32 + 5)):
            leaf = store.pair_adjacency(key_pos, free_pos, const)
            assert not leaf(2 ** 32 + 5 if key_pos == 1 else 0)
        counts = dict(store.predicate_counts())
        assert store.delete_many([self.ALIAS, (2 ** 70, 5, 7),
                                  (1, 5, ID_LIMIT)]) == []
        assert len(store) == 2 and dict(store.predicate_counts()) == counts
        if kind == "columnar":
            store.compact()
        assert sorted(store.snapshot_ids()) == [(1, 5, 7), (2, 5, 8)]
        assert len(store) == 2 and dict(store.predicate_counts()) == counts

    def test_a_batch_mixing_absent_ids_deletes_the_stored_rows(self):
        """The columnar batch pass masks the out-of-range rows only."""
        stores = [resolve_store(kind) for kind in ("dict", "columnar")]
        batch = [(2, 5, 8), self.ALIAS, (1, 5, 7), (2, 5, 8)]
        for store in stores:
            store.insert_many([(1, 5, 7), (2, 5, 8), (3, 5, 9)])
        stores[1].compact()                 # the rows are in the base
        assert stores[0].delete_many(batch) == stores[1].delete_many(batch) \
            == [(2, 5, 8), (1, 5, 7)]
        assert sorted(stores[1].snapshot_ids()) == [(3, 5, 9)]


class TestBulkKernels:
    """The vectorized kernel API vs brute force."""

    @pytest.fixture
    def store(self):
        rng = random.Random(17)
        s = ColumnarStore()
        triples = {(rng.randrange(30), rng.randrange(5), rng.randrange(40))
                   for _ in range(400)}
        s.insert_many(sorted(triples))
        return s, sorted(triples)

    def test_bulk_probe_single_bound(self, store):
        s, triples = store
        keys = np.asarray([0, 3, 29, 777, -2, 5, 3], dtype=np.int64)
        const = triples[0][1]
        # bound subject, constant predicate, free object (SPO leaf)
        starts, ends, cols = s.bulk_probe((0,), (None, const, None), [keys])
        for i, key in enumerate(keys.tolist()):
            expected = sorted(t[2] for t in triples
                              if t[0] == key and t[1] == const)
            assert cols[2][starts[i]:ends[i]].tolist() == expected

    def test_bulk_probe_range(self, store):
        s, triples = store
        keys = np.asarray([1, 4, -9, 999, 2], dtype=np.int64)
        starts, ends, cols = s.bulk_probe((1,), (None, None, None), [keys])
        for i, key in enumerate(keys.tolist()):
            expected = sorted((t[2], t[0]) for t in triples if t[1] == key)
            got = sorted(zip(cols[2][starts[i]:ends[i]].tolist(),
                             cols[0][starts[i]:ends[i]].tolist()))
            assert got == expected

    def test_bulk_probe_pair(self, store):
        s, triples = store
        some = triples[::37] + [(999, 999, 999)]
        skeys = np.asarray([t[0] for t in some], dtype=np.int64)
        okeys = np.asarray([t[2] for t in some], dtype=np.int64)
        starts, ends, cols = s.bulk_probe((0, 2), (None, None, None),
                                          [skeys, okeys])
        for i, t in enumerate(some):
            expected = sorted(x[1] for x in triples
                              if x[0] == t[0] and x[2] == t[2])
            assert cols[1][starts[i]:ends[i]].tolist() == expected

    def test_bulk_exists(self, store):
        s, triples = store
        present = triples[::29]
        keys = np.asarray([t[0] for t in present] + [999, -1],
                          dtype=np.int64)
        pid, oid = present[0][1], present[0][2]
        mask = s.bulk_exists(0, (None, pid, oid), keys)
        for key, got in zip(keys.tolist(), mask.tolist()):
            assert got == ((key, pid, oid) in set(triples))

    def test_bulk_scan_skeletons(self, store):
        s, triples = store
        t0 = triples[0]
        cases = [(None, None, None), (t0[0], None, None),
                 (None, t0[1], None), (None, None, t0[2]),
                 (t0[0], t0[1], None), (None, t0[1], t0[2]),
                 (t0[0], None, t0[2]), t0, (999, 999, 999)]
        for const in cases:
            expected = [t for t in triples
                        if all(c is None or c == t[k]
                               for k, c in enumerate(const))]
            count, cols = s.bulk_scan(const)
            assert count == len(expected)
            for pos, col in cols.items():
                assert sorted(col.tolist()) == \
                    sorted(t[pos] for t in expected)

    def test_arrays_taken_before_a_compaction_keep_their_rows(self, store):
        """A compaction writes fresh columns: the views a batch holds
        neither block it (``BufferError``) nor change under it."""
        s, triples = store
        _, scanned = s.bulk_scan((None, None, None))
        keys = np.asarray([1, 2], dtype=np.int64)
        _, _, probed = s.bulk_probe((1,), (None, None, None), [keys])
        held = list(scanned.values()) + list(probed.values())
        before = [col.copy() for col in held]
        s.insert_many([(999, 1, 0), (0, 2, 999)])
        s.delete_many(triples[:50])
        s.compact()
        assert all((col == old).all() for col, old in zip(held, before))
        count, _ = s.bulk_scan((None, None, None))
        assert count == len(triples) - 50 + 2


class TestStoreResolution:
    def test_explicit_and_instance(self):
        assert isinstance(resolve_store("dict"), DictStore)
        assert isinstance(resolve_store("columnar"), ColumnarStore)
        s = ColumnarStore()
        assert resolve_store(s) is s
        with pytest.raises(ValueError):
            resolve_store("btree")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "columnar")
        assert Graph().store_kind == "columnar"
        monkeypatch.setenv("REPRO_STORE", "dict")
        assert Graph().store_kind == "dict"
        monkeypatch.delenv("REPRO_STORE")
        assert Graph().store_kind == "dict"


EX_TTL = """
@prefix ex: <http://example.org/> .

ex:a ex:p ex:b ; ex:score 3 .
ex:b ex:p ex:c ; ex:score 5 .
ex:c ex:p ex:a .
ex:d ex:score 5 ; ex:tag "x" .
ex:e ex:score 1 ; ex:tag "x" .
ex:a ex:knows ex:b , ex:d .
"""

QUERIES = (
    "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }",
    "SELECT ?s ?v WHERE { ?s <http://example.org/p> ?x . "
    "?x <http://example.org/score> ?v }",
    "SELECT ?s WHERE { ?s ?p ?o }",
    "SELECT ?t (SUM(?v) AS ?total) (COUNT(*) AS ?n) WHERE { "
    "?s <http://example.org/tag> ?t . "
    "?s <http://example.org/score> ?v } GROUP BY ?t",
    "SELECT ?s WHERE { ?s <http://example.org/knows> "
    "<http://example.org/d> }",
)


class TestExecutorParityOnColumnar:
    """The batched executor agrees with the reference on columnar graphs."""

    def test_edge_queries_bag_equal(self):
        from test_executor_parity import assert_parity
        graph = parse_turtle(EX_TTL)
        engine = QueryEngine(on_store(graph, "columnar"))
        dict_engine = QueryEngine(graph)
        for q in QUERIES:
            columnar = assert_parity(engine, q)
            batched = dict_engine.query(q)
            assert columnar.same_solutions(batched)

    def test_generated_workloads_bag_equal(self):
        from repro.datasets import load_dataset
        from test_executor_parity import assert_parity
        ds = load_dataset("dbpedia", "tiny")
        engine = QueryEngine(on_store(ds.graph, "columnar"))
        facet = ds.facet()
        generator = WorkloadGenerator(
            facet, engine, WorkloadConfig(size=10, seed=42,
                                          filter_probability=0.6))
        for query in generator.generate():
            assert_parity(engine, query.to_select_query())


class TestCompactionMetrics:
    def test_compactions_counted_when_enabled(self):
        reg = _metrics.registry()
        reg.reset()
        reg.enable()
        try:
            g = Graph(store="columnar")
            g.add(Triple(IRI(f"{EX}s"), IRI(f"{EX}p"), typed_literal(1)))
            list(g.snapshot_ids())  # read forces a flush/compaction
            assert reg.counter_total("store_compactions_total") >= 1
        finally:
            reg.disable()
            reg.reset()

    def test_disabled_registry_records_nothing(self):
        reg = _metrics.registry()
        reg.reset()
        g = Graph(store="columnar")
        g.add(Triple(IRI(f"{EX}s"), IRI(f"{EX}p"), typed_literal(1)))
        list(g.snapshot_ids())
        assert reg.counter_total("store_compactions_total") == 0

    def test_compaction_seconds_observed_once_per_pass(self):
        reg = _metrics.registry()
        reg.reset()
        reg.enable()
        try:
            g = Graph(store="columnar")
            for value in (1, 2):
                g.add(Triple(IRI(f"{EX}s"), IRI(f"{EX}p"),
                             typed_literal(value)))
                list(g.snapshot_ids())      # one pass per buffered write
            list(g.snapshot_ids())          # nothing pending: no pass
            seconds = reg.get("store_compaction_seconds")
            assert seconds.count(("columnar",)) == 2
            assert reg.counter_total("store_compactions_total") == 2
        finally:
            reg.disable()
            reg.reset()

    def test_compaction_seconds_need_the_registry(self):
        reg = _metrics.registry()
        reg.reset()
        g = Graph(store="columnar")
        g.add(Triple(IRI(f"{EX}s"), IRI(f"{EX}p"), typed_literal(1)))
        list(g.snapshot_ids())
        assert list(reg.get("store_compaction_seconds").labeled_series()) \
            == []
