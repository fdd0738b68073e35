"""Unit tests for the id-space plumbing under the batched executor:

bulk graph mutation, adjacency accessors, version-keyed statistics caches,
bulk dictionary codecs, the BindingBatch container, and the engine-level
compilation caches.
"""

from __future__ import annotations

import pytest

from repro.rdf import Graph, Namespace, Triple, typed_literal
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import Literal, Variable
from repro.sparql import QueryEngine, parse_query, translate_query
from repro.sparql.batch import BindingBatch, dedup_rows

EX = Namespace("http://example.org/")


def small_graph() -> Graph:
    g = Graph()
    g.add(Triple(EX.a, EX.p, EX.b))
    g.add(Triple(EX.a, EX.p, EX.c))
    g.add(Triple(EX.b, EX.q, EX.c))
    return g


class TestBulkMutation:
    def test_add_ids_bulk_inserts_and_counts(self):
        g = Graph()
        d = g.dictionary
        ids = [(d.encode(EX.a), d.encode(EX.p), d.encode(EX.b)),
               (d.encode(EX.a), d.encode(EX.p), d.encode(EX.c)),
               (d.encode(EX.a), d.encode(EX.p), d.encode(EX.b))]  # dup
        assert g.add_ids_bulk(ids) == 2
        assert len(g) == 2
        assert Triple(EX.a, EX.p, EX.b) in g

    def test_add_ids_bulk_single_version_bump(self):
        g = small_graph()
        v0 = g.version
        d = g.dictionary
        ids = [(d.encode(EX.x), d.encode(EX.p), d.encode(EX.y)),
               (d.encode(EX.x), d.encode(EX.p), d.encode(EX.z))]
        assert g.add_ids_bulk(ids) == 2
        assert g.version == v0 + 1

    def test_add_ids_bulk_noop_keeps_version(self):
        g = small_graph()
        v0 = g.version
        d = g.dictionary
        assert g.add_ids_bulk(
            [(d.encode(EX.a), d.encode(EX.p), d.encode(EX.b))]) == 0
        assert g.version == v0

    def test_update_counts_actual_inserts(self):
        g = small_graph()
        n = g.update([Triple(EX.a, EX.p, EX.b),   # duplicate
                      Triple(EX.n, EX.p, EX.m)])
        assert n == 1
        assert len(g) == 4


class TestAdjacency:
    def test_adjacent_ids_each_wildcard_position(self):
        g = small_graph()
        d = g.dictionary
        a, p, b, c = (d.encode(t) for t in (EX.a, EX.p, EX.b, EX.c))
        assert g.adjacent_ids(a, p, None) == {b, c}
        assert g.adjacent_ids(None, p, b) == {a}
        assert g.adjacent_ids(a, None, b) == {p}
        assert g.adjacent_ids(10**6, p, None) == frozenset()

    def test_adjacent_ids_requires_one_wildcard(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.adjacent_ids(None, None, 0)
        with pytest.raises(ValueError):
            g.adjacent_ids(0, 1, 2)

    def test_pair_adjacency_all_shapes(self):
        g = small_graph()
        d = g.dictionary
        a, p, b, c, q = (d.encode(t) for t in (EX.a, EX.p, EX.b, EX.c, EX.q))
        assert g.pair_adjacency(0, 2, p)(a) == {b, c}     # (key, P, ?)
        assert g.pair_adjacency(2, 0, p)(b) == {a}        # (?, P, key)
        assert g.pair_adjacency(0, 1, c)(b) == {q}        # (key, ?, C)
        assert g.pair_adjacency(1, 2, a)(p) == {b, c}     # (A, key, ?)
        assert g.pair_adjacency(1, 0, c)(q) == {b}        # (?, key, C)
        assert g.pair_adjacency(2, 1, a)(b) == {p}        # (A, ?, key)
        # Unknown constant: accessor still works, returns nothing.
        assert g.pair_adjacency(2, 0, 10**6)(b) is None

    def test_pair_adjacency_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            small_graph().pair_adjacency(0, 0, 1)


class TestStatsCaches:
    def test_node_ids_cached_until_mutation(self):
        g = small_graph()
        first = g.node_ids()
        assert g.node_ids() is first          # same cached set
        g.add(Triple(EX.x, EX.p, EX.y))
        second = g.node_ids()
        assert second is not first
        assert g.dictionary.encode(EX.x) in second

    def test_node_count_tracks_include_predicates(self):
        g = small_graph()
        assert g.node_count() == 3
        assert g.node_count(include_predicates=True) == 5


class TestDictionaryBulk:
    def test_encode_many_decode_many_roundtrip(self):
        d = TermDictionary()
        terms = [EX.a, EX.b, EX.a, Literal("x")]
        ids = d.encode_many(terms)
        assert ids[0] == ids[2]
        assert d.decode_many(ids) == terms
        assert d.encode_many([EX.a]) == [ids[0]]   # stable ids


class TestBindingBatch:
    def test_unit_and_empty(self):
        assert len(BindingBatch.unit()) == 1
        assert BindingBatch.unit().row_tuples() == [()]
        assert len(BindingBatch.empty((Variable("x"),))) == 0

    def test_key_tuples_and_gather(self):
        x, y = Variable("x"), Variable("y")
        batch = BindingBatch((x, y), [[1, 2, 1], [7, None, 7]], [0, 1, 2])
        assert batch.key_tuples((y, x)) == [(7, 1), (None, 2), (7, 1)]
        assert batch.key_tuples((Variable("z"),)) == [(None,)] * 3
        picked = batch.gather([2, 0])
        assert picked.row_tuples() == [(1, 7), (1, 7)]
        assert picked.prov == [2, 0]

    def test_dedup_rows(self):
        by_key, row_map = dedup_rows([(1,), (2,), (1,), (1,)])
        assert by_key == {(1,): 0, (2,): 1}
        assert row_map == [0, 1, 0, 0]

    def test_decode_rows_by_index(self):
        x, y = Variable("x"), Variable("y")
        terms = [typed_literal(i) for i in range(8)]
        overlay = [typed_literal(-1), typed_literal(-2)]
        batch = BindingBatch((x, y), [[5, 5, None, -2], [0, -1, 7, None]],
                             [0, 1, 2, 3])
        assert batch.decode_rows(terms, overlay) == [
            (terms[5], terms[0]), (terms[5], overlay[0]),
            (None, terms[7]), (overlay[1], None)]
        assert BindingBatch.unit().decode_rows(terms, overlay) == [()]


class TestEngineCaches:
    def test_prepare_memoizes_query_text(self):
        engine = QueryEngine(small_graph())
        text = ("PREFIX ex: <http://example.org/> "
                "SELECT ?s WHERE { ?s ex:p ?o . }")
        assert engine.prepare(text) is engine.prepare(text)

    def test_bgp_plan_cache_invalidated_by_mutation(self):
        g = small_graph()
        engine = QueryEngine(g)
        text = ("PREFIX ex: <http://example.org/> "
                "SELECT ?s WHERE { ?s ex:r ?o . }")
        assert len(engine.query(text)) == 0     # ex:r unknown → None, not kept
        g.add(Triple(EX.a, EX.r, EX.b))
        assert len(engine.query(text)) == 1     # version bump recompiles

    @staticmethod
    def _plan_counts(engine, text) -> tuple[int, int]:
        """(hits, misses) of the BGP plan cache over one answer of ``text``."""
        from repro.obs import hub
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            engine.query(text)
            return (h.metrics.counter_total("engine_bgp_plan_cache_hits_total"),
                    h.metrics.counter_total(
                        "engine_bgp_plan_cache_misses_total"))
        finally:
            h.disable()
            h.reset()

    def test_bgp_plan_is_kept_across_a_write(self):
        g = small_graph()
        engine = QueryEngine(g)
        text = ("PREFIX ex: <http://example.org/> "
                "SELECT ?s WHERE { ?s ex:p ?o . }")
        assert self._plan_counts(engine, text) == (0, 1)
        g.add(Triple(EX.d, EX.p, EX.e))          # 3 → 4 triples
        assert self._plan_counts(engine, text) == (1, 0)
        assert len(engine.query(text)) == 3

    def test_bgp_plan_is_made_again_once_the_graph_doubles(self):
        g = small_graph()
        engine = QueryEngine(g)
        text = ("PREFIX ex: <http://example.org/> "
                "SELECT ?s WHERE { ?s ex:p ?o . }")
        engine.query(text)
        g.update(Triple(EX[f"s{i}"], EX.q, EX.c) for i in range(3))
        assert self._plan_counts(engine, text) == (0, 1)   # 3 → 6 triples
        assert self._plan_counts(engine, text) == (1, 0)
        g.remove(Triple(EX[f"s{i}"], EX.q, EX.c) for i in range(3))
        assert self._plan_counts(engine, text) == (0, 1)   # 6 → 3: halved

    def test_plan_and_verdict_memos_are_bounded(self, monkeypatch):
        """The plan and verdict memos outlive writes, so they evict
        oldest-first at the engine's limit: distinct conditions (and
        plans) past it leave each at or under it; the compiled programs
        live as long as their operators, which go with the prepared
        queries the engine's memo evicts.  Answers stay right."""
        import repro.sparql.engine as engine_module
        monkeypatch.setattr(engine_module, "_PREPARED_CACHE_LIMIT", 4)
        g = Graph()
        g.update(Triple(EX[f"s{i}"], EX.p, EX[f"o{i % 3}"]) for i in range(20))
        engine = QueryEngine(g)
        executor = engine.executor
        for k in range(10):
            # ?o{k}: a plan of its own; the condition is read on the domain
            table = engine.query(
                "PREFIX ex: <http://example.org/> SELECT ?s WHERE { "
                f'?s ex:p ?o{k} . FILTER(STR(?o{k}) != "{k}") }}')
            assert len(table) == 20
        assert 0 < len(executor._bgp_cache) <= 4
        assert 0 < len(executor._conditions) <= 4
        assert 0 < len(executor._programs) <= 4

    TEXT = ("PREFIX ex: <http://example.org/> "
            "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o != ex:c) }")

    @staticmethod
    def _program(engine, prepared):
        """The program the executor keeps for the BGP stack of ``prepared``
        (its top is the FilterOp under the projection)."""
        top = prepared.plan.child
        return engine.executor._programs[id(top)].programs

    def test_a_dropped_prepared_query_frees_its_program(self):
        import gc
        from repro.sparql import PreparedQuery
        engine = QueryEngine(small_graph())
        prepared = PreparedQuery.compile(self.TEXT)
        assert len(engine.query(prepared)) == 1
        assert len(engine.executor._programs) == 1
        del prepared
        gc.collect()
        assert engine.executor._programs == {}

    def test_an_operator_reusing_a_dead_ones_id_gets_its_own_program(self):
        """A program is found by the id() of its operator, and an id is
        reused once the operator is gone: the dead operator's entry goes
        with it, so the newcomer is compiled, not handed the old steps."""
        from repro.sparql import PreparedQuery
        from repro.sparql.algebra import FilterOp
        engine = QueryEngine(small_graph())
        other = PreparedQuery.compile(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?s WHERE { ?s ex:q ?o . FILTER(?o != ex:b) }").plan.child
        prepared = PreparedQuery.compile(self.TEXT)
        assert len(engine.query(prepared)) == 1
        dead = id(prepared.plan.child)
        del prepared
        assert dead not in engine.executor._programs
        born = []   # kept alive, so each takes a fresh block
        while len(born) < 10_000 and (not born or id(born[-1]) != dead):
            born.append(FilterOp(other.expression, other.child))
        newcomer = born[-1]
        assert id(newcomer) == dead    # CPython hands the block out again
        # ex:b ex:q ex:c passes; the dead program would probe ex:p
        rows = engine.executor.run(newcomer)
        assert [row[Variable("s")] for row in rows] == [EX.b]
        program, = engine.executor._programs[dead].programs
        assert [step.const[1] for step in program.steps] \
            == [engine.graph.dictionary.lookup(EX.q)]

    def test_a_program_is_compiled_again_once_the_graph_doubles(self):
        from repro.sparql import PreparedQuery
        g = small_graph()
        engine = QueryEngine(g)
        prepared = PreparedQuery.compile(self.TEXT)
        engine.query(prepared)
        first, = self._program(engine, prepared)
        g.add(Triple(EX.d, EX.p, EX.e))               # 3 → 4: kept
        assert [row[0] for row in engine.query(prepared)] == [EX.a, EX.d]
        assert self._program(engine, prepared) == [first]
        g.update(Triple(EX[f"s{i}"], EX.q, EX.c) for i in range(4))  # → 8
        engine.query(prepared)
        second, = self._program(engine, prepared)
        assert second is not first
        g.remove(Triple(EX[f"s{i}"], EX.q, EX.c) for i in range(4))  # → 4
        engine.query(prepared)
        third, = self._program(engine, prepared)
        assert third is not second

    def test_remember_replaces_a_value_without_evicting(self, monkeypatch):
        """A verdict list is refreshed in place at each graph version: at
        the limit that must not push out another entry."""
        import repro.sparql.engine as engine_module
        monkeypatch.setattr(engine_module, "_PREPARED_CACHE_LIMIT", 3)
        memo: dict = {}
        for key in "abc":
            engine_module.remember(memo, key, 0)
        engine_module.remember(memo, "c", 1)
        assert memo == {"a": 0, "b": 0, "c": 1}
        engine_module.remember(memo, "d", 0)
        assert memo == {"b": 0, "c": 1, "d": 0}

    def test_overlay_ids_are_private_to_executor(self):
        g = small_graph()
        engine = QueryEngine(g)
        before = len(g.dictionary)
        table = engine.query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?v WHERE { ?s ex:p ?o . BIND(40 + 2 AS ?v) }")
        assert len(g.dictionary) == before      # no dictionary pollution
        assert {cell.to_python() for row in table for cell in row} == {42}

    def test_exists_cache_keyed_by_group_pattern(self):
        engine = QueryEngine(small_graph())
        text = ("PREFIX ex: <http://example.org/> SELECT ?s WHERE "
                "{ ?s ex:p ?o . FILTER EXISTS { ?s ex:p ex:b . } }")
        # Two structurally identical plans from separate parses share one
        # compiled EXISTS entry (value-keyed, strong reference — no id()
        # reuse hazard).
        for _ in range(2):
            plan = translate_query(parse_query(text))
            # ex:a has two ex:p objects, and only ex:a passes the EXISTS.
            assert len(list(engine.executor.run(plan))) == 2
        assert len(engine.executor._groups) == 1
