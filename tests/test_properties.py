"""Property-based tests (hypothesis) for core data structures and the
materialize→rewrite pipeline.

The flagship property is ``test_view_rewrite_equivalence``: for random
small knowledge graphs, random analytical queries, random aggregates, and
random covering views, answering through the materialized view must give
exactly the answers the base graph gives.
"""

from __future__ import annotations

import string
from collections import Counter
from contextlib import contextmanager
from itertools import product, zip_longest
from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, event, example, given, settings, \
    strategies as st

from repro.cost import AggregatedValuesCost
from repro.cost.profiler import BaseProfile, LatticeProfile, ViewProfile
from repro.cube import AnalyticalFacet, AnalyticalQuery, FilterCondition, \
    ViewLattice
from repro.rdf import ColumnarStore, Dataset, Graph, IRI, Literal, \
    Namespace, TermDictionary, Triple, Variable, XSD, parse_ntriples, \
    serialize_ntriples, typed_literal
from repro.rdf.dictionary import ID_LIMIT
from repro.rdf.terms import BlankNode
from repro.selection import AnnealingSelector, ExhaustiveSelector, \
    GreedySelector, SelectionProblem
from repro.sparql import QueryEngine
from repro.sparql.aggregates import make_accumulator
from repro.sparql.values import order_key
from repro.views import ViewCatalog, rewrite_on_view

EX = Namespace("http://example.org/")

# --------------------------------------------------------------------------
# term / triple strategies
# --------------------------------------------------------------------------

_local = st.text(alphabet=string.ascii_lowercase + string.digits,
                 min_size=1, max_size=8)

iris = _local.map(lambda s: EX[s])
bnodes = _local.map(BlankNode)
plain_literals = st.text(max_size=12).map(Literal)
lang_literals = st.tuples(
    st.text(max_size=8),
    st.sampled_from(["en", "fr", "de", "en-gb"]),
).map(lambda pair: Literal(pair[0], language=pair[1]))
int_literals = st.integers(-10 ** 9, 10 ** 9).map(typed_literal)
float_literals = st.floats(allow_nan=False, allow_infinity=False,
                           width=32).map(typed_literal)
literals = st.one_of(plain_literals, lang_literals, int_literals,
                     float_literals)

subjects = st.one_of(iris, bnodes)
objects_ = st.one_of(iris, bnodes, literals)

triples = st.builds(Triple, subjects, iris, objects_)
triple_lists = st.lists(triples, max_size=40)


# --------------------------------------------------------------------------
# store invariants
# --------------------------------------------------------------------------

class TestStoreProperties:
    @given(triple_lists)
    def test_graph_is_a_set_of_triples(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        assert len(g) == len(set(items))
        assert set(g) == set(items)
        for t in items:
            assert t in g

    @given(triple_lists, triple_lists)
    def test_add_then_discard_restores(self, base, extra):
        g = Graph()
        for t in base:
            g.add(t)
        before = set(g)
        for t in extra:
            g.add(t)
        for t in set(extra):
            if t not in before:
                assert g.discard(t)
        assert set(g) == before

    @given(triple_lists)
    def test_counts_agree_with_scans_on_all_patterns(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        probes = items[:5] + [Triple(EX.zz, EX.zz, EX.zz)]
        for probe in probes:
            for mask in range(8):
                s = probe.s if mask & 4 else None
                p = probe.p if mask & 2 else None
                o = probe.o if mask & 1 else None
                assert g.count(s, p, o) == len(list(g.triples(s, p, o)))

    @given(triple_lists)
    def test_ntriples_round_trip(self, items):
        g = Graph()
        for t in items:
            g.add(t)
        assert set(parse_ntriples(serialize_ntriples(g))) == set(g)

    @given(st.lists(st.one_of(subjects, iris, literals), max_size=30))
    def test_dictionary_interning_is_bijective(self, terms):
        d = TermDictionary()
        ids = [d.encode(t) for t in terms]
        for term, tid in zip(terms, ids):
            assert d.decode(tid) == term
            assert d.encode(term) == tid  # stable on re-encode
        assert len(d) == len(set(terms))


# --------------------------------------------------------------------------
# the dictionary's integer index: an int → its canonical literal's id
# --------------------------------------------------------------------------

_index_ints = st.one_of(st.integers(-1000, 1000),
                        st.integers(2 ** 63 - 3, 2 ** 63 + 3),
                        st.integers(-2 ** 70, 2 ** 70))
#: lexicals whose value is an int but which are not its canonical form,
#: and one int() rejects
_non_canonical = ("05", "+5", "-0", " 5", "5 ", "1_0", "five")
_index_terms = st.one_of(
    _index_ints.map(lambda v: Literal(str(v), XSD.integer)),
    st.sampled_from(_non_canonical).map(lambda s: Literal(s, XSD.integer)),
    st.tuples(st.one_of(_index_ints.map(str), st.sampled_from(_non_canonical)),
              st.sampled_from([XSD.int, XSD.decimal, XSD.string])).map(
        lambda pair: Literal(*pair)),
    st.sampled_from(["5", "0", "-3"]).map(
        lambda s: Literal(s, language="en")),
    iris,
)
_index_steps = st.lists(st.one_of(
    st.tuples(st.just("encode"), _index_terms),
    st.tuples(st.just("encode_many"), st.lists(_index_terms, max_size=6))),
    max_size=20)


@contextmanager
def _integer_id_guarded():
    """Every ``TermDictionary.integer_id`` call inside asserts its caller
    passed an exact int: a bool or a float must never reach the index."""
    integer_id = TermDictionary.integer_id

    def guarded(self, value):
        assert type(value) is int, value
        return integer_id(self, value)

    TermDictionary.integer_id = guarded
    try:
        yield
    finally:
        TermDictionary.integer_id = integer_id


class TestIntegerIndex:
    """``integer_id(v)`` is ``lookup(Literal(str(v), XSD.integer))`` after
    any interleaving of the two minting paths; callers guard its key."""

    @given(_index_steps, st.lists(_index_ints, max_size=5))
    @example([("encode", Literal("05", XSD.integer)),
              ("encode_many", [Literal("-0", XSD.integer),
                               Literal("5", XSD.int),
                               Literal("5", language="en")])], [5, 0])
    def test_the_index_is_the_canonical_literal_lookup(self, steps, extra):
        d = TermDictionary()
        drawn = {0, 5, *extra}
        for kind, payload in steps:
            if kind == "encode":
                d.encode(payload)
                terms = [payload]
            else:
                d.encode_many(payload)
                terms = payload
            for term in terms:
                if isinstance(term, Literal):
                    try:
                        drawn.add(int(term.lexical))
                    except ValueError:
                        pass
            for v in drawn:
                assert d.integer_id(v) == d.lookup(
                    Literal(str(v), XSD.integer)), v

    @given(st.lists(st.one_of(st.none(), st.booleans(), _index_ints,
                              st.sampled_from([5.0, 0.0, -0.0, 1.0]),
                              st.floats(allow_nan=False)), max_size=12))
    def test_callers_read_the_index_with_exact_ints_only(self, values):
        from repro.sparql.executor import Executor
        from repro.views.materializer import GroupCodec, stored_literal
        graph = Graph()
        for v in (0, 1, 5):
            graph.add(Triple(EX.s, EX.p, typed_literal(v)))
        executor = Executor(graph)
        codec = GroupCodec(ViewLattice(population_facet("SUM")).apex,
                           graph.dictionary)

        def expected() -> list:
            return [None if v is None
                    else executor.encode_term(typed_literal(v))
                    for v in values]

        with _integer_id_guarded():
            ids = executor._encode_numbers(values)
            assert ids == executor._encode_numbers(values) == expected()
            # the codec mints what the executor held in its overlay
            number_ids = [codec.number_id(v) for v in values
                          if v is not None]
            assert executor._encode_numbers(values) == expected()
        assert number_ids == [graph.dictionary.lookup(stored_literal(v))
                              for v in values if v is not None]


# --------------------------------------------------------------------------
# columnar compaction: a merge that must equal a full sort
# --------------------------------------------------------------------------

_TOP = ID_LIMIT - 1      # the largest id: packed keys reach 2**63 - 1
_store_ids = st.one_of(st.integers(0, 6), st.just(_TOP))
_store_ops = st.lists(st.tuples(
    st.sampled_from(("insert", "delete", "reinsert", "compact")),
    st.lists(st.tuples(_store_ids, _store_ids, _store_ids), max_size=10)),
    max_size=12)
#: one (p, o) pair with forty subjects: a long run in POS
_RUN = [(s, 1, 2) for s in range(0, 80, 2)]
_PERM_ORDERS = (("spo", (0, 1, 2)), ("pos", (1, 2, 0)), ("osp", (2, 0, 1)))


class TestColumnarCompaction:
    """Whatever the interleaving, compaction leaves the sorted live set."""

    @given(_store_ops, st.sampled_from((4, 1 << 18)))
    @example([("insert", _RUN)], 1 << 18)                       # empty base
    @example([("insert", _RUN), ("compact", []), ("delete", _RUN)],
             1 << 18)                                           # every row
    @example([("insert", _RUN), ("compact", []),
              ("insert", [(s, 1, 2) for s in range(1, 81, 2)]),
              ("delete", _RUN[::3]), ("reinsert", [])], 1 << 18)
    @example([("insert", [(_TOP, _TOP, _TOP), (0, _TOP, 0), (_TOP, 0, 0)]),
              ("compact", []),
              ("insert", [(_TOP, _TOP, 0), (0, 0, _TOP), (0, _TOP, _TOP)]),
              ("delete", [(0, _TOP, 0), (_TOP, _TOP, _TOP)])], 1 << 18)
    def test_compaction_equals_a_full_sort(self, ops, pending_limit):
        store = ColumnarStore(pending_limit=pending_limit)
        live: set = set()
        deleted: list = []
        for op, batch in ops:
            if op == "insert":
                store.insert_many(batch)
                live.update(batch)
            elif op == "delete":
                store.delete_many(batch)
                deleted = sorted(live.intersection(batch))
                live.difference_update(batch)
            elif op == "reinsert":      # the triples the last delete took
                store.insert_many(deleted)
                live.update(deleted)
            else:
                store.compact()
        store.compact()
        for perm, order in _PERM_ORDERS:
            ab, b, c = getattr(store, f"_v_{perm}")
            assert ((ab & 0xFFFFFFFF) == b).all(), perm
            rows = list(zip((ab >> 32).tolist(), b.tolist(), c.tolist()))
            assert rows == sorted(tuple(t[i] for i in order) for t in live), \
                perm
        assert len(store) == len(live)
        assert store.predicate_counts() == Counter(p for _, p, _ in live)
        for probe in sorted(live)[:8] + [(0, 1, 2)]:
            for pattern in product(*((x, None) for x in probe)):
                assert store.count_ids(*pattern) == sum(
                    all(x is None or x == y for x, y in zip(pattern, t))
                    for t in live), pattern


#: ids no stored triple can hold: deletes only (inserts raise on them);
#: ``(s, 2**32 + p, o)`` packs to the key of ``(s + 1, p, o)``
_absent_ids = st.one_of(st.integers(2 ** 32, 2 ** 32 + 6),
                        st.sampled_from((-1, ID_LIMIT, 2 ** 64)))
_write_ops = st.lists(st.tuples(
    st.sampled_from(("insert", "delete", "reinsert", "unwrite", "run",
                     "compact")),
    st.lists(st.tuples(_store_ids, _store_ids, _store_ids), max_size=10),
    st.lists(st.tuples(_store_ids, _absent_ids, _store_ids), max_size=2)),
    max_size=12)


class TestColumnarWriteBatches:
    """A write batch is checked against the base in one pass; what it
    returns is still exactly what the dict store returns."""

    @given(_write_ops, st.sampled_from((4, 1 << 18)))
    @example([("run", [], []), ("compact", [], []),
              ("delete", _RUN[::2] + _RUN[:3], [(1, 2 ** 32 + 1, 2)]),
              ("reinsert", [], []), ("unwrite", [], [])], 1 << 18)
    @example([("insert", [(_TOP, _TOP, _TOP), (_TOP, _TOP, _TOP)], []),
              ("compact", [], []),
              ("delete", [(_TOP, _TOP, _TOP)], [(_TOP, ID_LIMIT, _TOP)]),
              ("reinsert", [], [])], 1 << 18)
    def test_batches_return_what_the_dict_store_returns(self, ops,
                                                        pending_limit):
        from repro.rdf import DictStore
        store = ColumnarStore(pending_limit=pending_limit)
        twin = DictStore()
        last_deleted: list = []
        last_added: list = []
        for op, batch, absent in ops:
            if op == "compact":
                store.compact()
                continue
            if op == "delete":
                # out-of-range ids interleaved with the real rows
                batch = [t for pair in zip_longest(batch, absent)
                         for t in pair if t is not None]
            batch = {"reinsert": last_deleted, "unwrite": last_added,
                     "run": _RUN + _RUN[:5]}.get(op, batch)
            if op in ("delete", "unwrite"):
                got, want = store.delete_many(batch), twin.delete_many(batch)
                last_deleted = want
            else:
                got, want = store.insert_many(batch), twin.insert_many(batch)
                last_added = want
            assert got == want, (op, batch)
            assert len(store) == len(twin)
            assert dict(store.predicate_counts()) == \
                dict(twin.predicate_counts())
        assert sorted(store.snapshot_ids()) == sorted(twin.snapshot_ids())

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60)),
                    max_size=120),
           st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 62)),
                    max_size=30))
    @example([(1, c) for c in range(0, 120, 2)], [(1, c) for c in range(61)])
    def test_locate_is_a_per_row_lower_bound(self, rows, keys):
        import numpy as np
        from bisect import bisect_left
        from repro.rdf.columnar import _locate
        rows = sorted(rows)
        ab = np.asarray([r[0] for r in rows], dtype=np.int64)
        c = np.asarray([r[1] for r in rows], dtype=np.int64)
        got = _locate(ab, c, np.asarray([k[0] for k in keys], dtype=np.int64),
                      np.asarray([k[1] for k in keys], dtype=np.int64))
        assert got.tolist() == [bisect_left(rows, k) for k in keys]


# --------------------------------------------------------------------------
# value semantics
# --------------------------------------------------------------------------

class TestValueProperties:
    @given(st.lists(st.one_of(st.none(), iris, bnodes, literals),
                    max_size=20))
    def test_order_key_gives_total_preorder(self, terms):
        keys = sorted(order_key(t) for t in terms)
        assert keys == sorted(keys)  # comparable without exceptions

    @given(st.lists(st.integers(-1000, 1000), max_size=30))
    def test_aggregates_match_python_reference(self, values):
        terms = [typed_literal(v) for v in values]

        def result(name):
            acc = make_accumulator(name, distinct=False)
            for t in terms:
                acc.add(t)
            out = acc.result()
            return None if out is None else out.to_python()

        assert result("COUNT") == len(values)
        assert result("SUM") == sum(values)
        assert result("MIN") == (min(values) if values else None)
        assert result("MAX") == (max(values) if values else None)
        if values:
            expected = sum(values) / len(values)
            assert abs(result("AVG") - expected) < 1e-9

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
    def test_distinct_aggregates_match_set_reference(self, values):
        terms = [typed_literal(v) for v in values]
        acc = make_accumulator("SUM", distinct=True)
        for t in terms:
            acc.add(t)
        assert acc.result().to_python() == sum(set(values))


# --------------------------------------------------------------------------
# aggregate results: the batched executor's value → id memo and decode
# --------------------------------------------------------------------------

_AGG_BY_GROUP = """
    PREFIX ex: <http://example.org/>
    SELECT ?g (COUNT(?v) AS ?n) (SUM(?v) AS ?s) (AVG(?v) AS ?a)
    WHERE { ?x ex:in ?g ; ex:val ?v . } GROUP BY ?g ORDER BY ?g"""
_AGG_ALL = """
    PREFIX ex: <http://example.org/>
    SELECT (SUM(?v) AS ?s) (COUNT(?v) AS ?n) (AVG(?v) AS ?a)
    WHERE { ?x ex:val ?v . }"""

# Doubles include both zeros, NaN and the infinities; decimals are exact
# quarters; big ints push a sum past 2**52, past float64's exact integers.
aggregate_operands = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(typed_literal),
    st.integers(2 ** 52, 2 ** 60).map(
        lambda n: typed_literal(n if n % 2 else -n)),
    st.one_of(st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                               float("-inf")]),
              st.floats(width=32)).map(typed_literal),
    st.integers(-10 ** 4, 10 ** 4).map(
        lambda n: Literal(repr(n / 4), XSD.decimal)),
)


class TestAggregateResultParity:
    """COUNT / SUM / AVG out of the batched executor are the reference
    executor's terms, row for row, on both stores — asked twice, so the
    second answer reads every value back out of the executor's memo."""

    @given(st.lists(st.tuples(st.integers(0, 3), aggregate_operands),
                    max_size=24))
    @example([(0, typed_literal(-0.0)), (1, typed_literal(0.0)),
              (1, typed_literal(-0.0)), (2, typed_literal(2 ** 52))])
    @example([(g, typed_literal(2 ** 51)) for g in (0, 0, 1, 1, 1)])
    def test_count_sum_avg_match_the_reference(self, rows):
        for store in ("dict", "columnar"):
            graph = Graph(store=store)
            for i, (group, value) in enumerate(rows):
                graph.add(Triple(EX[f"x{i}"], EX["in"], EX[f"g{group}"]))
                graph.add(Triple(EX[f"x{i}"], EX.val, value))
            engine = QueryEngine(graph)
            for text in (_AGG_BY_GROUP, _AGG_ALL, _AGG_BY_GROUP):
                _assert_rows_match_the_reference(engine, text, store)


def _assert_rows_match_the_reference(engine: QueryEngine, text: str,
                                     store: str) -> None:
    """``text`` answers with the reference executor's rows, in its order."""
    from repro.sparql import ReferenceExecutor, ResultTable
    prepared = engine.prepare(text)
    expected = ResultTable.from_bindings(
        prepared.ast.projected_variables(),
        ReferenceExecutor(engine.graph).run(prepared.plan))
    got = engine.query(prepared)
    assert got.variables == expected.variables
    assert got.rows == expected.rows, (store, text)


# Operands with MIN/MAX ties (1, 1.0 and 01 are equal numbers, different
# terms: the first row's term must win) and a string that poisons SUM/AVG.
_GROUP_OPERANDS = (typed_literal(1), Literal("1.0", datatype=XSD.decimal),
                   Literal("01", datatype=XSD.integer), typed_literal(2),
                   typed_literal(-3), Literal("b"))

# ?g and ?h are IRI keys, unbound where OPTIONAL finds nothing; ?o is a
# computed key the store never saw (an overlay id), unbound with ?h.
# VALUES fixes the input row order, and each OPTIONAL probes a distinct
# ?x, so both executors see the rows in the same order.
_GROUP_BY_TEMPLATE = """
    PREFIX ex: <http://example.org/>
    SELECT {keys} {aggregates} WHERE {{
      VALUES ?x {{ {rows} }}
      OPTIONAL {{ ?x ex:g ?g }}
      OPTIONAL {{ ?x ex:h ?h }}
      OPTIONAL {{ ?x ex:val ?v }}
      BIND(CONCAT("k", STR(?h)) AS ?o)
    }} {group_by} {having}"""
_GROUP_AGGREGATES = (
    "(COUNT(*) AS ?n) (COUNT(?v) AS ?nv) (SUM(?v) AS ?s) (AVG(?v) AS ?a) "
    "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SAMPLE(?v) AS ?any) "
    "(GROUP_CONCAT(STR(?v); SEPARATOR=\"|\") AS ?all) "
    "(COUNT(DISTINCT ?v) AS ?d)")
_GROUP_KEYS = ((), ("?g",), ("?o",), ("?g", "?h"), ("?o", "?g"),
               ("?h", "?o", "?g"))
#: (keys, HAVING) per query: every key set, and HAVING with and without
_GROUP_CASES = tuple((keys, "") for keys in _GROUP_KEYS) + (
    ((), "HAVING (COUNT(*) > 1)"), (("?o", "?g"), "HAVING (COUNT(?v) > 1)"))
_GROUP_ORDER_TEMPLATE = """
    PREFIX ex: <http://example.org/>
    SELECT {keys} (COUNT(*) AS ?n) WHERE {{
      ?x ex:row ?i
      OPTIONAL {{ ?x ex:g ?g }}
      OPTIONAL {{ ?x ex:h ?h }}
      BIND(CONCAT("k", STR(?h)) AS ?o)
    }} GROUP BY {keys}"""

group_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.none(), st.integers(0, 2)),
    st.one_of(st.none(), st.sampled_from(_GROUP_OPERANDS))), max_size=16)


class TestGroupByParity:
    """GROUP BY on 0–3 keys out of the batched executor is the reference
    executor's answer row for row, in output order: groups in first-row
    order, MIN/MAX ties to the first row, on both stores."""

    @given(group_rows)
    @example([])  # empty input: one group without keys, none with
    @example([(2, 1, _GROUP_OPERANDS[1]), (0, None, _GROUP_OPERANDS[0]),
              (2, 1, _GROUP_OPERANDS[0]), (None, 0, None),
              (0, None, _GROUP_OPERANDS[2]), (2, 1, _GROUP_OPERANDS[3])])
    def test_group_by_matches_the_reference_in_order(self, rows):
        for store in ("dict", "columnar"):
            graph = Graph(store=store)
            for k in range(4):  # key ids in an order the rows do not follow
                graph.add(Triple(EX[f"g{k}"], EX.rank, typed_literal(k)))
            for i, (g, h, value) in enumerate(rows):
                if g is not None:
                    graph.add(Triple(EX[f"x{i}"], EX.g, EX[f"g{g}"]))
                if h is not None:
                    graph.add(Triple(EX[f"x{i}"], EX.h, EX[f"h{h}"]))
                if value is not None:
                    graph.add(Triple(EX[f"x{i}"], EX.val, value))
            engine = QueryEngine(graph)
            values = " ".join(f"ex:x{i}" for i in range(len(rows)))
            for keys, having in _GROUP_CASES:
                _assert_rows_match_the_reference(
                    engine, _GROUP_BY_TEMPLATE.format(
                        keys=" ".join(keys), aggregates=_GROUP_AGGREGATES,
                        rows=values, having=having,
                        group_by=f"GROUP BY {' '.join(keys)}" if keys
                        else ""), store)

    @given(group_rows)
    def test_group_table_order_is_the_group_by_order(self, rows):
        """``Executor.group_table`` lists its groups in the order GROUP BY
        emits them — the contract the builder and the patcher rely on."""
        from repro.sparql.algebra import GroupOp
        from repro.sparql.grouptable import KIND_SUM
        for store in ("dict", "columnar"):
            graph = Graph(store=store)
            for i, (g, h, _value) in enumerate(rows):
                graph.add(Triple(EX[f"x{i}"], EX.row, typed_literal(i)))
                if g is not None:
                    graph.add(Triple(EX[f"x{i}"], EX.g, EX[f"g{g}"]))
                if h is not None:
                    graph.add(Triple(EX[f"x{i}"], EX.h, EX[f"h{h}"]))
            engine = QueryEngine(graph)
            executor = engine.executor
            for keys in _GROUP_KEYS[1:]:
                op = engine.prepare(_GROUP_ORDER_TEMPLATE.format(
                    keys=" ".join(keys))).plan
                while not isinstance(op, GroupOp):
                    op = op.child
                table = executor.group_table(op.child, op.keys, None,
                                             KIND_SUM)
                out = executor.run_ids(op)
                assert list(table.groups) == \
                    list(zip(*out.columns[:len(op.keys)])), (store, keys)


# --------------------------------------------------------------------------
# lattice algebra
# --------------------------------------------------------------------------

_facet_3d = AnalyticalFacet.from_query("prop3", """
    PREFIX ex: <http://example.org/>
    SELECT ?a ?b ?c (SUM(?m) AS ?t) WHERE {
      ?s ex:pa ?a ; ex:pb ?b ; ex:pc ?c ; ex:pm ?m .
    } GROUP BY ?a ?b ?c""")


class TestLatticeProperties:
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_covers_is_a_partial_order(self, x, y, z):
        lattice = ViewLattice(_facet_3d)
        vx, vy, vz = lattice[x], lattice[y], lattice[z]
        assert vx.covers(vx)
        if vx.covers(vy) and vy.covers(vx):
            assert x == y
        if vx.covers(vy) and vy.covers(vz):
            assert vx.covers(vz)

    @given(st.integers(0, 7))
    def test_ancestors_descendants_are_inverse(self, x):
        lattice = ViewLattice(_facet_3d)
        view = lattice[x]
        for ancestor in lattice.ancestors(view):
            assert view in lattice.descendants(ancestor)
        for descendant in lattice.descendants(view):
            assert view in lattice.ancestors(descendant)

    @given(st.integers(0, 7))
    def test_parents_children_are_one_step(self, x):
        lattice = ViewLattice(_facet_3d)
        view = lattice[x]
        for parent in lattice.parents(view):
            assert parent.level == view.level + 1
            assert parent.covers(view)
        for child in lattice.children(view):
            assert child.level == view.level - 1
            assert view.covers(child)


# --------------------------------------------------------------------------
# the flagship: materialize → rewrite → equal answers
# --------------------------------------------------------------------------

_LANG_POOL = ["french", "german", "english", "italian"]
_YEAR_POOL = [2017, 2018, 2019]


@st.composite
def population_worlds(draw):
    """A random tiny country/language/population graph + query + view."""
    n_countries = draw(st.integers(1, 5))
    graph = Graph()
    for c in range(n_countries):
        country = EX[f"country{c}"]
        langs = draw(st.lists(st.sampled_from(_LANG_POOL), min_size=1,
                              max_size=3, unique=True))
        for lang in langs:
            graph.add(Triple(country, EX.language, EX[lang]))
        n_obs = draw(st.integers(1, 3))
        for i in range(n_obs):
            obs = EX[f"obs{c}_{i}"]
            graph.add(Triple(obs, EX.ofCountry, country))
            graph.add(Triple(obs, EX.year,
                             typed_literal(draw(st.sampled_from(_YEAR_POOL)))))
            graph.add(Triple(obs, EX.population,
                             typed_literal(draw(st.integers(-100, 1000)))))

    facet = population_facet(
        draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"])))

    # Half the draws are own-grain: the view is the query's grouped
    # subset, so any filter reads a grouped dimension (lang = bit 0,
    # year = bit 1).
    own_grain = draw(st.booleans())
    group_mask = draw(st.integers(1 if own_grain else 0, 3))
    filters = []
    if draw(st.booleans()):
        names = [name for bit, name in enumerate(("lang", "year"))
                 if not own_grain or group_mask >> bit & 1]
        var = draw(st.sampled_from(names))
        if var == "lang":
            value = EX[draw(st.sampled_from(_LANG_POOL))]
            op = "="
        else:
            value = typed_literal(draw(st.sampled_from(_YEAR_POOL)))
            op = draw(st.sampled_from(["=", "!=", "<", ">="]))
        filters.append(FilterCondition(Variable(var), op, value))
    query = AnalyticalQuery(facet, group_mask, tuple(filters))

    covering = [m for m in range(4)
                if (query.required_mask & m) == query.required_mask]
    # The other half rolls up, unless only the finest view covers it.
    rollups = [m for m in covering if m != group_mask or m == 0]
    view_mask = group_mask if own_grain else \
        draw(st.sampled_from(rollups or covering))
    return graph, facet, query, view_mask


def population_facet(agg: str) -> AnalyticalFacet:
    """The two-dimension population facet under aggregate ``agg``."""
    return AnalyticalFacet.from_query("prop", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?lang ?year ({agg}(?pop) AS ?m) WHERE {{
          ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
          ?c ex:language ?lang .
        }} GROUP BY ?lang ?year""")


class TestRewriteEquivalenceProperty:
    @settings(max_examples=40,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_view_rewrite_equivalence(self, world):
        graph, facet, query, view_mask = world
        event("own grain" if view_mask == query.group_mask != 0
              else "rollup")
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        view = ViewLattice(facet)[view_mask]
        catalog.materialize(view)

        base = QueryEngine(dataset.default).query(query.to_select_query())
        rewritten = rewrite_on_view(query, view)
        via_view = QueryEngine(dataset.graph(view.iri)).query(rewritten)
        assert base.same_solutions(via_view), (
            f"query={query.describe()} view={view.label}\n"
            f"base:\n{base.render()}\nview:\n{via_view.render()}")

    @pytest.mark.parametrize("agg", ["SUM", "COUNT", "AVG", "MIN", "MAX"])
    def test_own_grain_projects_and_every_rollup_groups(self, agg):
        """Every (view, query) pair of the lattice, unfiltered: at the
        view's own grain Q' aggregates nothing; below it (the apex
        included) Q' still groups; no Q' reads the ``sofos:view`` link."""
        from repro.rdf.namespace import SOFOS
        facet = population_facet(agg)
        lattice = ViewLattice(facet)
        for view_mask, group_mask in product(range(4), repeat=2):
            if group_mask & view_mask != group_mask:
                continue
            query = AnalyticalQuery(facet, group_mask, ())
            rewritten = rewrite_on_view(query, lattice[view_mask])
            patterns = rewritten.where.elements[0].patterns
            assert all(t.p != SOFOS.view for t in patterns)
            aggregates = [a for item in rewritten.projection
                          if item.expression is not None
                          for a in item.expression.aggregates()]
            if view_mask == group_mask != 0:
                assert rewritten.group_by == ()
                assert not aggregates
            else:
                assert rewritten.group_by == query.group_variables
                assert aggregates

    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_materializer_footprint_matches_profiler(self, world):
        from repro.cost import LatticeProfile
        graph, facet, query, view_mask = world
        lattice = ViewLattice(facet)
        profile = LatticeProfile.profile(lattice, QueryEngine(graph))
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        for view in lattice:
            entry = catalog.materialize(view)
            assert entry.triples == profile.triples(view)
            assert entry.groups == profile.rows(view)
            assert catalog.node_count(view) == profile.nodes(view)


# --------------------------------------------------------------------------
# the BGP planner: the join order is guarded structurally, not by a timer
# --------------------------------------------------------------------------

_PLAN_VARS = [Variable(f"v{i}") for i in range(6)]
_PLAN_PREDICATES = [EX.one_to_one, EX.fans_out, EX.fans_in, EX.rare]


def _planner_graph() -> Graph:
    """Four predicates with different fan-out, so estimates do differ."""
    g = Graph()
    for i in range(12):
        g.add(Triple(EX[f"n{i}"], EX.one_to_one, EX[f"n{(i + 1) % 12}"]))
        for j in range(3):
            g.add(Triple(EX[f"n{i}"], EX.fans_out, EX[f"m{3 * i + j}"]))
        g.add(Triple(EX[f"m{i}"], EX.fans_in, EX[f"n{i % 2}"]))
    g.add(Triple(EX.n0, EX.rare, EX.n1))
    return g


@st.composite
def planner_bgps(draw):
    """``(patterns, seed variables)``: 1–7 patterns on 2–6 variables.

    Half of the draws split the variables into two islands no pattern
    bridges, so a cross product is unavoidable — but only once.
    """
    from repro.rdf.triples import TriplePattern
    variables = _PLAN_VARS[:draw(st.integers(2, 6))]
    islands = [variables]
    if len(variables) >= 4 and draw(st.booleans()):
        cut = draw(st.integers(2, len(variables) - 2))
        islands = [variables[:cut], variables[cut:]]
    constants = st.sampled_from([EX.n0, EX.n1, EX.m0])
    patterns = []
    for _ in range(draw(st.integers(1, 7))):
        end = st.sampled_from(draw(st.sampled_from(islands)))
        patterns.append(TriplePattern(
            draw(st.one_of(end, end, constants)),
            draw(st.sampled_from(_PLAN_PREDICATES)),
            draw(st.one_of(end, end, constants))))
    seed_vars = draw(st.lists(st.sampled_from(variables), unique=True,
                              max_size=2))
    return tuple(patterns), tuple(seed_vars)


def _assert_connected_first(patterns, order, indices, bound):
    """``order`` is a permutation of ``indices`` that never takes a pattern
    sharing no variable with ``bound`` while one that does remains."""
    assert sorted(order) == sorted(indices)
    remaining, bound = set(indices), set(bound)
    for i in order:
        connected = {j for j in remaining
                     if patterns[j].variables() & bound}
        assert not connected or i in connected, (order, i, connected)
        remaining.discard(i)
        bound |= patterns[i].variables()


class TestBgpOrderProperty:
    @settings(max_examples=150)
    @given(planner_bgps())
    def test_order_is_a_connected_first_permutation(self, bgp):
        patterns, seed_vars = bgp
        graph = _planner_graph()
        order = QueryEngine(graph).executor.bgp_order(patterns, seed_vars)
        _assert_connected_first(patterns, order, range(len(patterns)),
                                seed_vars)
        # deterministic: a fresh executor, a fresh plan cache, same order
        assert QueryEngine(graph).executor.bgp_order(
            patterns, seed_vars) == order

    @settings(max_examples=100)
    @given(planner_bgps())
    def test_delta_terms_take_their_order_from_the_same_function(self, bgp):
        from repro.sparql.delta import DeltaEvaluator, DeltaPlan
        from repro.sparql.grouptable import KIND_COUNT
        patterns, _ = bgp
        executor = QueryEngine(_planner_graph()).executor
        evaluator = DeltaEvaluator(
            executor, DeltaPlan(patterns, (), (), None, KIND_COUNT, False))
        for i, seed in enumerate(patterns):
            rest = [j for j in range(len(patterns)) if j != i]
            order = evaluator.term_order(i)
            _assert_connected_first(patterns, order, rest, seed.variables())
            assert order == [rest[k] for k in executor.bgp_order(
                tuple(patterns[j] for j in rest), tuple(seed.variables()))]
            assert evaluator.term_order(i) == order


# --------------------------------------------------------------------------
# FILTER pushdown: a one-variable condition seeds the BGP, same bag
# --------------------------------------------------------------------------

#: Objects of ex:d: value-equal but distinct terms, other numbers, IRIs
#: and a bnode, so ``=`` (value equality) and term identity disagree.
_PUSH_VALUES = (typed_literal(2019), Literal("02019", datatype=XSD.integer),
                Literal("2019.0", datatype=XSD.decimal), Literal("2019"),
                Literal("2019", language="en"), typed_literal(2020),
                typed_literal(2018), EX.a, EX.b, BlankNode("b1"))
#: One-variable conditions on ?v; ``?v > "2019"`` raises a type error on
#: every number and IRI, ``?v = 1999`` accepts nothing.
_PUSH_CONDITIONS = ("?v = 2019", "?v != 2019", "?v < 2020", "?v >= 2019",
                    "isIRI(?v)", 'STR(?v) = "2019"', '?v > "2019"',
                    "?v = 1999")
#: Reads two variables: never pushed.
_TWO_VARIABLE_CONDITION = "STR(?v) != STR(?w)"
_PUSH_TEMPLATE = """
    PREFIX ex: <http://example.org/>
    SELECT {select} WHERE {{
      ?x ex:d ?v ; ex:m ?m ; ex:w ?w ; ex:k ?k .
      {filters}
    }} {group_by}"""
#: (projection, GROUP BY): plain rows, and groups on ?k and on ?v; the
#: aggregated ?m is a distinct integer per row (no MIN/MAX tie to order)
_PUSH_SHAPES = (("?x ?v ?m", ""),
                ("?k (SUM(?m) AS ?s) (MIN(?m) AS ?lo) (COUNT(*) AS ?n)",
                 "GROUP BY ?k"),
                ("?v (MAX(?m) AS ?hi)", "GROUP BY ?v"))

pushdown_worlds = st.tuples(
    # per subject: its ex:d object, whether it has ex:k (3 in 4 do: a
    # domain is read only when smaller than the first probe), its ex:w
    st.lists(st.tuples(st.integers(0, len(_PUSH_VALUES) - 1),
                       st.integers(0, 3).map(bool), st.integers(0, 1)),
             max_size=14),
    # ex:d objects of subjects no solution reaches
    st.lists(st.integers(0, len(_PUSH_VALUES) - 1), max_size=3),
    st.lists(st.sampled_from(_PUSH_CONDITIONS), min_size=1, max_size=3),
    st.booleans())


class TestFilterPushdownParity:
    """Answers are the reference executor's bag whether or not a FILTER
    was run on its variable's domain first, on both stores."""

    @given(pushdown_worlds)
    # the accepted set is empty: ?v = 1999 seeds no row and probes nothing
    @example(([(0, True, 0), (5, True, 1)] * 3, [], ["?v = 1999"], False))
    # two pushable conditions on one predicate, asked in both orders: each
    # is pushed once, with the ids it accepts (2018 passes one, not both)
    @example(([(0, True, 0), (6, True, 1), (5, True, 0)] * 2, [],
              ["?v < 2020", "?v >= 2019"], False))
    def test_pushed_and_kept_filters_match_the_reference(self, world):
        from repro.obs import hub
        from repro.sparql import ReferenceExecutor, ResultTable
        rows, unreached, conditions, two_variable = world
        if two_variable:
            conditions = [*conditions, _TWO_VARIABLE_CONDITION]
        # both stacking orders, asked of one engine: each condition's
        # accepted ids are its own, whichever was read first
        stacks = [" ".join(f"FILTER({c})" for c in order)
                  for order in (conditions, conditions[::-1])]
        for store in ("dict", "columnar"):
            graph = Graph(store=store)
            for i, (value, has_key, w) in enumerate(rows):
                graph.add(Triple(EX[f"x{i}"], EX.d, _PUSH_VALUES[value]))
                graph.add(Triple(EX[f"x{i}"], EX.m, typed_literal(i)))
                graph.add(Triple(EX[f"x{i}"], EX.w, typed_literal(2019 + w)))
                if has_key:
                    graph.add(Triple(EX[f"x{i}"], EX.k, EX[f"k{i % 3}"]))
            for j, value in enumerate(unreached):
                graph.add(Triple(EX[f"y{j}"], EX.d, _PUSH_VALUES[value]))
            engine = QueryEngine(graph)
            for (select, group_by), filters in product(_PUSH_SHAPES, stacks):
                prepared = engine.prepare(_PUSH_TEMPLATE.format(
                    select=select, filters=filters, group_by=group_by))
                h = hub()
                h.reset()
                h.enable(tracing=False)
                try:
                    got = engine.query(prepared)
                    outcomes = h.metrics.get("sparql_filter_pushdown_total")
                    pushed = outcomes.value(("pushed",))
                    kept = outcomes.value(("kept",))
                finally:
                    h.disable()
                    h.reset()
                if pushed:
                    event("a condition was pushed")
                if kept:
                    event("a candidate condition was kept")
                expected = ResultTable.from_bindings(
                    prepared.ast.projected_variables(),
                    ReferenceExecutor(graph).run(prepared.plan))
                assert got.same_solutions(expected), (store, prepared.text)


# --------------------------------------------------------------------------
# EXISTS: one semi-join per condition, the reference's per-row answer
# --------------------------------------------------------------------------

_EXISTS_PREDICATES = ("p", "q", "r", "s", "t")
#: ?x ex:p ?o . ?o ex:s ?k, and (drawn) OPTIONAL { ?x ex:q ?y }: where it
#: finds nothing, ?y is an unbound cell of the EXISTS seed
_EXISTS_OUTER = "?x ex:p ?o . ?o ex:s ?k ."
_EXISTS_OPTIONAL = "OPTIONAL { ?x ex:q ?y }"
#: where the condition sits: {c} is ``[NOT] EXISTS {…}``
_EXISTS_PLACEMENTS = {
    "filter": ("?x ?o ?y", "FILTER({c})", ""),
    "under ||": ("?x ?o ?y", "FILTER(?o = ex:n0 || {c})", ""),
    "bind": ("?x ?o ?y ?b", "BIND({c} AS ?b)", ""),
    "order by": ("?x ?o ?y ?k", "", "ORDER BY DESC({c}) ?x ?o ?y ?k"),
    "aggregate": ("?o (SUM(IF({c}, 1, 0)) AS ?n)", "", "GROUP BY ?o"),
}


@st.composite
def exists_queries(draw):
    """A small graph over five nodes, and a query whose ``[NOT] EXISTS``
    group shares 0–2 variables with the outer pattern, may mention an
    outer one only in a FILTER, may hold an OPTIONAL (binding an outer
    variable the row leaves unbound) and a nested ``[NOT] EXISTS``."""
    nodes = st.integers(0, 4).map(lambda i: EX[f"n{i}"])
    edges = draw(st.lists(st.tuples(
        nodes, st.sampled_from(_EXISTS_PREDICATES), nodes), max_size=30))
    shared = draw(st.sampled_from(
        [(), ("x",), ("o",), ("y",), ("x", "o"), ("o", "y")]))
    if not shared:
        group = ["?w0 ex:r ?w ."]
    elif len(shared) == 1 and draw(st.booleans()):  # only ?a: a domain seed
        group = [f"?{shared[0]} ex:r ex:n1 ."]
    else:
        group = [f"?{shared[0]} ex:r ?w ."]
        if len(shared) == 2:
            group.append(f"?w ex:s ?{shared[1]} .")
    if draw(st.booleans()):
        group.append(f"FILTER(?w != ?{draw(st.sampled_from('oxy'))})")
    if draw(st.booleans()):
        group.append(f"OPTIONAL {{ ?w ex:t ?{draw(st.sampled_from('zy'))} }}")
    if draw(st.booleans()):
        group.append(f"FILTER({'NOT ' * draw(st.booleans())}EXISTS "
                     f"{{ ?w ex:q ?{draw(st.sampled_from('xo'))} }})")
    condition = ("NOT " * draw(st.booleans())
                 + "EXISTS { " + " ".join(group) + " }")
    placement = draw(st.sampled_from(sorted(_EXISTS_PLACEMENTS)))
    select, where, modifier = _EXISTS_PLACEMENTS[placement]
    optional = _EXISTS_OPTIONAL if draw(st.integers(0, 3)) else ""
    text = (f"PREFIX ex: <http://example.org/> SELECT {select} WHERE {{ "
            f"{_EXISTS_OUTER} {optional} {where} }} {modifier}"
            ).replace("{c}", condition)
    return edges, placement, text


class TestExistsSemiJoin:
    """``[NOT] EXISTS`` out of the batched executor — one semi-join per
    condition over the distinct keys of the variables its group mentions —
    is the reference executor's per-row answer, on both stores, wherever
    the condition sits (ORDER BY: in order)."""

    @given(exists_queries())
    # ?y unbound in every row: the group's OPTIONAL binds it freely
    @example(([(EX.n0, "p", EX.n1), (EX.n1, "s", EX.n2),
               (EX.n3, "r", EX.n4), (EX.n4, "t", EX.n2)], "filter",
              "PREFIX ex: <http://example.org/> SELECT ?x ?o ?y WHERE { "
              f"{_EXISTS_OUTER} {_EXISTS_OPTIONAL} FILTER(EXISTS {{ ?y ex:r "
              "?w . OPTIONAL { ?w ex:t ?y } }) }"))
    # NOT EXISTS on ?o alone, over fewer ex:p objects than rows: it runs
    # on that domain, before any probe
    @example(([(EX[f"n{i}"], "p", EX.n0) for i in range(4)]
              + [(EX.n0, "s", EX.n1), (EX.n0, "s", EX.n2),
                 (EX.n1, "p", EX.n3), (EX.n3, "s", EX.n4),
                 (EX.n3, "r", EX.n1)], "filter",
              "PREFIX ex: <http://example.org/> SELECT ?x ?o ?y WHERE { "
              f"{_EXISTS_OUTER} FILTER(NOT EXISTS {{ ?o ex:r ex:n1 . }}) }}"))
    # ?o at the object end of a one-pattern group, 2 objects of ex:r for 3
    # keys: a key-set semi-join
    @example(([(EX.n0, "p", EX[f"n{i}"]) for i in (1, 2, 3)]
              + [(EX[f"n{i}"], "s", EX.n4) for i in (1, 2, 3)]
              + [(EX.n4, "r", EX.n1), (EX.n0, "r", EX.n2)], "bind",
              "PREFIX ex: <http://example.org/> SELECT ?x ?o ?y ?b WHERE { "
              f"{_EXISTS_OUTER} BIND(EXISTS {{ ?w ex:r ?o }} AS ?b) }}"))
    def test_exists_matches_the_reference(self, case):
        from repro.obs import hub
        from repro.sparql import ReferenceExecutor, ResultTable
        edges, placement, text = case
        event(placement)
        for store in ("dict", "columnar"):
            graph = Graph(store=store)
            for s, p, o in edges:
                graph.add(Triple(s, EX[p], o))
            engine = QueryEngine(graph)
            prepared = engine.prepare(text)
            h = hub()
            h.reset()
            h.enable(tracing=False)
            try:
                got = engine.query(prepared)
                pushed = h.metrics.get(
                    "sparql_filter_pushdown_total").value(("pushed",))
            finally:
                h.disable()
                h.reset()
            if pushed:
                event("an EXISTS condition seeded the BGP")
            if any(" keys ∩ " in node.detail
                   for node in engine.explain(prepared).root.walk()):
                event("a group was a key-set semi-join")
            expected = ResultTable.from_bindings(
                prepared.ast.projected_variables(),
                ReferenceExecutor(graph).run(prepared.plan))
            if placement == "order by":
                assert got.rows == expected.rows, (store, text)
            else:
                assert got.same_solutions(expected), (store, text)


# --------------------------------------------------------------------------
# the Δ algebra: a maintenance window is the difference of two scans
# --------------------------------------------------------------------------

_COUNTRIES = ["france", "germany", "canada", "italy", "spain"]
_WINDOW_PREDICATES = (EX.ofCountry, EX.year, EX.population, EX.language)


def _population_facet(agg: str) -> AnalyticalFacet:
    return AnalyticalFacet.from_query("delta", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?lang ?year ({agg}(?pop) AS ?m) WHERE {{
          ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
          ?c ex:language ?lang .
        }} GROUP BY ?lang ?year""")


@st.composite
def population_windows(draw):
    """An aggregate plus an insert/delete window over the population
    graph: whole and partial new observations, second values on existing
    ones, new language edges; deletions of any pattern-relevant triple."""
    from tests.conftest import build_population_graph
    agg = draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    graph = build_population_graph()
    relevant = sorted((t for t in graph if t.p in _WINDOW_PREDICATES),
                      key=lambda t: t.n3())
    countries = st.sampled_from(_COUNTRIES).map(lambda name: EX[name])
    years = st.sampled_from([2018, 2019, 2021]).map(typed_literal)
    pops = st.integers(-50, 1000).map(typed_literal)
    inserts = []
    for i in range(draw(st.integers(0, 3))):
        obs = EX[f"new{i}"]
        parts = [Triple(obs, EX.ofCountry, draw(countries)),
                 Triple(obs, EX.year, draw(years)),
                 Triple(obs, EX.population, draw(pops))]
        inserts += [t for t in parts if draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(0, 2))):
        obs = EX[f"obs{draw(st.integers(1, 7))}"]
        inserts.append(draw(st.sampled_from([
            Triple(obs, EX.year, draw(years)),
            Triple(obs, EX.population, draw(pops))])))
    for _ in range(draw(st.integers(0, 2))):
        inserts.append(Triple(draw(countries), EX.language,
                              EX[draw(st.sampled_from(_LANG_POOL))]))
    if draw(st.booleans()):
        # rows whose triples are all new: every term but the one of the
        # last inserted pattern has to cancel them
        country = draw(st.sampled_from(_COUNTRIES + ["atlantis"]))
        inserts += [Triple(EX.whole, EX.ofCountry, EX[country]),
                    Triple(EX.whole, EX.year, draw(years)),
                    Triple(EX.whole, EX.population, draw(pops)),
                    Triple(EX[country], EX.language, EX.atlantean)]
    deletes = draw(st.lists(st.sampled_from(relevant), unique=True,
                            max_size=4))
    return agg, graph, inserts, deletes


def _knows_facet(agg: str) -> AnalyticalFacet:
    return AnalyticalFacet.from_query("knows", f"""
        PREFIX ex: <http://example.org/>
        SELECT ?a ?c ({agg}(?w) AS ?m) WHERE {{
          ?a ex:knows ?b . ?b ex:knows ?c . ?c ex:weight ?w
          FILTER(?w > 1)
        }} GROUP BY ?a ?c""")


@st.composite
def knows_windows(draw):
    """An aggregate plus a window over a random small ``knows`` graph.

    The facet joins ``ex:knows`` with itself, so one delta triple matches
    two patterns (a self-loop is both hops of one row), and it carries a
    group-wide FILTER; the window inserts and deletes ``knows`` and
    ``weight`` triples at once."""
    agg = draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    nodes = st.sampled_from([EX[f"n{i}"] for i in range(5)])
    edges = st.builds(Triple, nodes, st.just(EX.knows), nodes)
    weights = st.builds(Triple, nodes, st.just(EX.weight),
                        st.integers(0, 4).map(typed_literal))
    graph = Graph()
    graph.update(draw(st.lists(edges, max_size=10)))
    graph.update(draw(st.lists(weights, max_size=6)))
    inserts = draw(st.lists(st.one_of(edges, weights), max_size=5))
    present = sorted(graph, key=lambda t: t.n3())
    deletes = draw(st.lists(st.sampled_from(present), unique=True,
                            max_size=4)) if present else []
    return agg, graph, inserts, deletes


class _Group(NamedTuple):
    """One group of a table, as the delta-algebra assertions read it; a
    key the table lacks reads as the all-zero group."""

    rows: int = 0
    bound: int = 0
    value: int | float | None = 0
    best_id: Optional[int] = None
    best_key: Optional[tuple] = None
    empty: bool = True

    @classmethod
    def of(cls, table, key: tuple) -> "_Group":
        g = table.groups.get(key)
        if g is None:
            return cls()
        return cls(table.rows[g], table.bound[g], table.value[g],
                   table.best[g], table.best_key[g], table.empty(g))


class TestDeltaAlgebraProperty:
    @staticmethod
    def _window(graph, facet, inserts, deletes, plan=None):
        """``(before, Δ, after)``: the facet's scans around the window and
        the delta evaluator's signed table for it, one executor's ids."""
        from repro.cube.rollup import facet_scan
        from repro.sparql.delta import DeltaEvaluator, compile_delta_plan
        engine = QueryEngine(graph)
        before = facet_scan(engine, facet).table
        log = graph.subscribe()
        graph.update(inserts)
        graph.remove(deletes)
        delta = log.drain()
        evaluator = DeltaEvaluator(engine.executor,
                                   plan or compile_delta_plan(facet))
        change = evaluator.adjustments(delta.inserted, delta.deleted)
        return before, change, facet_scan(engine, facet).table

    def _assert_difference(self, agg, facet, graph, inserts, deletes):
        """``adjustments(Δ) == GroupTable(after) − GroupTable(before)``
        entry by entry — at the finest grain and, projected, at every
        lattice mask (so rolling Δ up commutes with rolling the scans
        up).  MIN/MAX: Δ's extremum is one of the after-table's rows, and
        over an insert-only window merging it into the before-table's
        gives the after-table's."""
        before, change, after = self._window(graph, facet, inserts, deletes)
        assert change is not None
        assert None not in change.value  # no group is poisoned
        pick = max if agg == "MAX" else min
        for mask in range(facet.lattice_size):
            variables = facet.mask_variables(mask)
            b, d, a = (table.project_variables(variables)
                       for table in (before, change, after))
            for key in set(b.groups) | set(d.groups) | set(a.groups):
                eb, ed, ea = (_Group.of(t, key) for t in (b, d, a))
                assert (ed.rows, ed.bound, ed.value) == (
                    ea.rows - eb.rows, ea.bound - eb.bound,
                    ea.value - eb.value), (agg, mask, key)
                if ed.best_key is not None:
                    assert ea.best_key == pick(ea.best_key, ed.best_key)
                if not deletes:
                    offered = [k for k in (eb.best_key, ed.best_key)
                               if k is not None]
                    assert ea.best_key == \
                        (pick(offered) if offered else None)
                assert ed.empty == (
                    (ea.rows, ea.bound, ea.value) ==
                    (eb.rows, eb.bound, eb.value) and ed.best_id is None)

    @settings(max_examples=80,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_windows())
    def test_window_table_is_the_difference_of_two_scans(self, window):
        agg, graph, inserts, deletes = window
        self._assert_difference(agg, _population_facet(agg), graph,
                                inserts, deletes)

    @settings(max_examples=120,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(knows_windows())
    def test_self_join_under_a_filter(self, window):
        """The same identity where telescoping can go wrong: one delta
        triple seeds two terms, rows mix inserted and deleted triples,
        and the group-wide FILTER runs on each term's final batch."""
        agg, graph, inserts, deletes = window
        self._assert_difference(agg, _knows_facet(agg), graph,
                                inserts, deletes)

    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_windows(), st.sampled_from(["non-numeric", "unbound"]))
    def test_unusable_operand_declines_the_window(self, window, how):
        """A row whose operand is unbound (SUM/AVG/MIN/MAX) or not a
        number (SUM/AVG) would leave its group without a measure: no Δ."""
        from repro.sparql.delta import compile_delta_plan
        agg, graph, inserts, deletes = window
        facet = _population_facet(agg)
        plan = compile_delta_plan(facet)
        # one whole new row no deletion of the window can take apart
        inserts = inserts + [
            Triple(EX.bad, EX.ofCountry, EX.badland),
            Triple(EX.badland, EX.language, EX.french),
            Triple(EX.bad, EX.year, typed_literal(2019)),
            Triple(EX.bad, EX.population,
                   Literal("n/a") if how == "non-numeric"
                   else typed_literal(1))]
        if how == "unbound":
            plan.measure_variable = Variable("never_bound")
        declines = agg in ("SUM", "AVG") or (
            how == "unbound" and agg in ("MIN", "MAX"))
        _, change, _ = self._window(graph, facet, inserts, deletes, plan)
        assert (change is None) == declines


def _population_graph() -> Graph:
    from tests.conftest import build_population_graph
    return build_population_graph()


def _stored_groups(view, graph):
    """``(key, state)`` of every group node a view graph stores, read
    from the graph itself — a group without a measure triple too."""
    from repro.views.materializer import GroupCodec, GroupState
    codec = GroupCodec(view, graph.dictionary)

    def one(node: int, pred: int) -> Optional[int]:
        leaf = graph.adjacent_ids(node, pred, None)
        return min(leaf) if leaf else None

    for node in sorted(graph.adjacent_ids(None, codec.view_pred,
                                          codec.view_iri)):
        yield (tuple(one(node, pred) for pred in codec.dim_preds),
               GroupState(node, 0, None, one(node, codec.value_pred),
                          one(node, codec.count_pred)))


def _star_signatures(graph: Graph) -> Counter:
    """Each node's (p, o) ids: a view graph up to blank-node ids."""
    stars: dict = {}
    for s, p, o in graph.match_ids(None, None, None):
        stars.setdefault(s, set()).add((p, o))
    return Counter(frozenset(star) for star in stars.values())


class TestGroupDeathProperty:
    """A dying group's triples come from the codec, not from the view
    graph: after any window, on either store, ``GroupCodec.death`` lists
    exactly what each group stores."""

    @staticmethod
    def _assert_death_is_the_star(catalog: ViewCatalog) -> None:
        from repro.errors import ViewError
        from repro.views.materializer import GroupCodec
        for entry in catalog:
            view = entry.definition
            graph = catalog.graph_of(view)
            codec = GroupCodec(view, graph.dictionary)
            try:
                groups = list(catalog.group_index(view).groups.items())
            except ViewError:           # a poisoned group: no index
                event("poisoned view")
                groups = list(_stored_groups(view, graph))
            for key, state in groups:
                died: list = []
                codec.death(died, key, state)
                assert len(died) == len(set(died))
                assert set(died) == set(graph.match_ids(
                    state.node_id, None, None)), (view.label, key)

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_windows(), st.sampled_from(["dict", "columnar"]),
           st.booleans())
    @example(("AVG", _population_graph(), [],
              [Triple(EX.obs7, EX.ofCountry, EX.italy)]), "columnar", True)
    @example(("MAX", _population_graph(),
              [Triple(EX.obs1, EX.population, typed_literal(99))], []),
             "dict", False)
    def test_death_equals_the_stored_star(self, window, store, poison):
        from repro.views import ViewMaintainer
        from tests.conftest import on_store
        agg, graph, inserts, deletes = window
        graph = on_store(graph, store)
        if poison:      # SUM/AVG: obs1's group stores no measure
            graph.add(Triple(EX.obs1, EX.population, Literal("n/a")))
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize_all(list(ViewLattice(_population_facet(agg))))
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        self._assert_death_is_the_star(catalog)
        log = graph.subscribe()
        graph.update(inserts)
        graph.remove(deletes)
        maintainer.synchronize()
        self._assert_death_is_the_star(catalog)
        # the window undone: groups it gave birth to die
        delta = log.drain()
        graph.remove_ids_bulk(delta.inserted)
        graph.add_ids_bulk(delta.deleted)
        maintainer.synchronize()
        self._assert_death_is_the_star(catalog)

    @pytest.mark.parametrize("store", ["dict", "columnar"])
    def test_a_lost_count_triple_declines_the_dying_group(self, store):
        """A window kills a group whose count triple was removed behind
        the catalog's back: the removal comes up short, the view is
        declined and rebuilt as a scratch build would be."""
        from repro.views import ViewMaintainer
        from repro.views.materializer import GroupCodec
        from tests.conftest import build_population_graph, on_store
        graph = on_store(build_population_graph(), store)
        lattice = ViewLattice(_population_facet("SUM"))
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize_all(list(lattice))
        finest = lattice[0b11]
        vgraph = catalog.graph_of(finest)
        codec = GroupCodec(finest, vgraph.dictionary)
        terms = {"lang": EX.italian, "year": typed_literal(2019)}
        key = tuple(graph.dictionary.lookup(terms[v.name])
                    for v in finest.variables)
        state = catalog.group_index(finest).groups[key]
        assert vgraph.discard_ids(state.node_id, codec.count_pred,
                                  state.count_id)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        graph.remove([Triple(EX.obs7, EX.ofCountry, EX.italy)])
        report = maintainer.synchronize()
        outcome = {v.label: (v.action, v.reason) for v in report.views}
        assert outcome[finest.label] == (
            "rebuilt", "group index inconsistent with delta")
        assert len(report.patched) == len(lattice) - 1
        scratch = ViewCatalog(Dataset.wrap(graph.copy()))
        scratch.materialize(finest)
        assert _star_signatures(vgraph) == \
            _star_signatures(scratch.graph_of(finest))
        self._assert_death_is_the_star(catalog)


# --------------------------------------------------------------------------
# more round-trip properties
# --------------------------------------------------------------------------

class TestMoreRoundTrips:
    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(population_worlds())
    def test_analyzer_round_trips_rendered_queries(self, world):
        """render(AnalyticalQuery) --parse--> analyze == original query."""
        from repro.views.analyzer import analyze_query
        from repro.workload.templates import render_analytical_query
        graph, facet, query, view_mask = world
        text = render_analytical_query(query)
        recovered = analyze_query(text, facet)
        assert recovered is not None, text
        assert recovered.group_mask == query.group_mask
        assert recovered.filters == query.filters

    @given(triple_lists, st.integers(0, 6))
    def test_bgp_pattern_order_is_irrelevant(self, items, seed):
        """Shuffling a BGP's triple patterns never changes the solutions."""
        import random as _random
        from repro.sparql import QueryEngine
        g = Graph()
        for t in items:
            g.add(t)
        engine = QueryEngine(g)
        base_query = ("SELECT ?s ?o ?o2 WHERE { "
                      "?s <http://example.org/p> ?o . "
                      "?o <http://example.org/q> ?o2 . "
                      "?s <http://example.org/r> ?o2 . }")
        shuffled = ("SELECT ?s ?o ?o2 WHERE { "
                    "?o <http://example.org/q> ?o2 . "
                    "?s <http://example.org/r> ?o2 . "
                    "?s <http://example.org/p> ?o . }")
        del _random, seed
        a = engine.query(base_query)
        b = engine.query(shuffled)
        assert a.same_solutions(b)

    @given(st.lists(st.builds(Triple, iris, iris,
                              st.one_of(iris, int_literals, plain_literals)),
                    max_size=25))
    def test_turtle_round_trip(self, items):
        from repro.rdf import parse_turtle, serialize_turtle
        g = Graph()
        for t in items:
            g.add(t)
        assert set(parse_turtle(serialize_turtle(g))) == set(g)


# --------------------------------------------------------------------------
# view selection: invariants of the priced problem and its searches
# --------------------------------------------------------------------------

def _star_facet(dimensions: int) -> AnalyticalFacet:
    names = "abcde"[:dimensions]
    return AnalyticalFacet.from_query(f"star{dimensions}", f"""
        PREFIX ex: <http://example.org/>
        SELECT {" ".join(f"?{n}" for n in names)} (SUM(?m) AS ?total) WHERE {{
          ?s ex:pm ?m . {" ".join(f"?s ex:p{n} ?{n} ." for n in names)}
        }} GROUP BY {" ".join(f"?{n}" for n in names)}""")


_STAR_FACETS = {n: _star_facet(n) for n in (3, 4, 5)}


@st.composite
def priced_lattices(draw):
    """A lattice with a made-up profile (random positive prices and sizes —
    no graph is scanned), a query set, a count k and a triple budget."""
    facet = _STAR_FACETS[draw(st.integers(3, 5))]
    lattice = ViewLattice(facet)
    price, size = st.integers(1, 500), st.integers(1, 300)
    profile = LatticeProfile(
        facet, BaseProfile(triples=draw(size), rows=draw(price), nodes=1,
                           eval_seconds=0.0), graph_stats=None,
        views={view.mask: ViewProfile(view.mask, view.label, view.level,
                                      rows=draw(price), triples=draw(size),
                                      nodes=1, eval_seconds=0.0)
               for view in lattice})
    workload = [AnalyticalQuery(facet, mask) for mask in draw(st.lists(
        st.integers(0, facet.lattice_size - 1), max_size=12))]
    return (lattice, profile, workload or None, draw(st.integers(0, 3)),
            draw(st.integers(0, 2000)))


class TestSelectionProperties:
    """Over generated problems priced by ``agg_values`` (a view's price is
    its made-up ``rows``, its size its made-up ``triples``)."""

    @staticmethod
    def _searches(seed=0):
        model = AggregatedValuesCost()
        return {"greedy": GreedySelector(model, seed=seed),
                "exhaustive": ExhaustiveSelector(model),
                "annealing": AnnealingSelector(model, seed=seed,
                                               iterations=150)}

    @given(priced_lattices(), st.data())
    def test_cost_never_increases_when_a_view_is_added(self, drawn, data):
        lattice, profile, workload, _k, _budget = drawn
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload)
        views = data.draw(st.lists(st.sampled_from(problem.views),
                                   min_size=1, unique_by=lambda v: v.mask))
        for size in range(len(views)):
            assert problem.cost_of(views[:size + 1]) <= \
                problem.cost_of(views[:size])

    @settings(max_examples=40)
    @given(priced_lattices(), st.integers(0, 3))
    def test_strategies_agree_with_the_objective(self, drawn, seed):
        lattice, profile, workload, k, _budget = drawn
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload)
        results = {name: selector.select(lattice, profile, k, workload)
                   for name, selector in self._searches(seed).items()}
        again = {name: selector.select(lattice, profile, k, workload)
                 for name, selector in self._searches(seed).items()}
        for name, result in results.items():
            assert len(result.masks) == len(result.views) == k
            # result() prices what was picked with the one objective
            assert result.estimated_workload_cost == \
                problem.cost_of(result.views)
            # deterministic under its seed
            assert result.labels == again[name].labels
        # exhaustive is the optimum of the same objective
        optimum = results["exhaustive"].estimated_workload_cost
        assert optimum <= results["greedy"].estimated_workload_cost
        assert optimum <= results["annealing"].estimated_workload_cost
        # each view's benefit only shrinks as views are added, so greedy's
        # picks come in non-increasing benefit
        benefits = [step.benefit for step in results["greedy"].steps]
        assert benefits == sorted(benefits, reverse=True)

    @given(priced_lattices(), st.booleans(), st.integers(0, 3))
    def test_budgeted_selection_fits_its_budget_and_its_k(self, drawn,
                                                          capped, seed):
        lattice, profile, workload, k, budget = drawn
        k = k if capped else None
        selector = GreedySelector(AggregatedValuesCost(), seed=seed,
                                  triple_budget=budget)
        result = selector.select(lattice, profile, k, workload)
        assert sum(profile.triples(v) for v in result.views) <= budget
        assert k is None or len(result.views) <= k
        assert all(step.benefit > 0 for step in result.steps)
        assert result.labels == selector.select(lattice, profile, k,
                                                workload).labels
