"""A FILTER on one variable seeds the BGP with the values it accepts.

When a condition reads only ``?v`` and ``?v`` is the object of a pattern
with a constant predicate, the executor may evaluate the condition once
per distinct object of that predicate and start the probes from the
accepted ids (``Executor._pushdown``).  These tests pin the rules that
decide it — read a domain only when it is smaller than the first probe,
push only when that wins — and that the accepted ids never outlive the
graph version they were read at (a condition judges an id once, unless it
holds ``[NOT] EXISTS`` and so reads the graph).
"""

from __future__ import annotations

import pytest

from repro.core import Sofos
from repro.cube import AnalyticalQuery, FilterCondition
from repro.datasets import DBPediaConfig, dataset_spec, generate_dbpedia
from repro.obs import hub
from repro.rdf import Graph, Namespace, Triple, Variable, typed_literal
from repro.selection.user import UserSelection
from repro.sparql import QueryEngine
from repro.sparql.algebra import FilterOp

from tests.conftest import build_population_graph, on_store
from tests.test_executor_parity import assert_parity

EX = Namespace("http://example.org/")
V = Namespace("http://example.org/view/")
STORES = ("dict", "columnar")

#: 30 countries x 20 years: the shape of a finest view, one node per group
COUNTRIES, YEARS = 30, tuple(range(2000, 2020))

VIEW_QUERY = """
PREFIX v: <http://example.org/view/>
SELECT ?country (SUM(?m) AS ?t) WHERE {{
  ?g v:country ?country ; v:year ?year ; v:lang ?lang ; v:m ?m .
  FILTER({condition})
}} GROUP BY ?country"""


def _view_shaped(store: str) -> Graph:
    graph = Graph(store=store)
    for c in range(COUNTRIES):
        for year in YEARS:
            g = V[f"g{c}_{year}"]
            graph.add(Triple(g, V.country, EX[f"country{c}"]))
            graph.add(Triple(g, V.year, typed_literal(year)))
            graph.add(Triple(g, V.lang, EX[f"lang{c % 7}"]))
            graph.add(Triple(g, V.m, typed_literal(c * 100 + year)))
    return graph


def _explain_nodes(engine: QueryEngine, query: str):
    ex = engine.explain(query)
    nodes = list(ex.root.walk())
    bgp, = (n for n in nodes if n.operator == "BGP")
    return ex, bgp, [n for n in nodes if n.operator == "Filter"]


def _first_step(bgp) -> str:
    return bgp.detail.partition(": ")[2].split()[0]


class TestDecisionRules:
    @pytest.mark.parametrize("store", STORES)
    def test_the_probes_start_at_the_accepted_rows(self, store):
        """The year condition runs on the 20 years before any probe; the
        first probe extends its 4 accepted ids to their 120 group nodes,
        where the unpushed plan read all 600."""
        engine = QueryEngine(_view_shaped(store))
        query = VIEW_QUERY.format(condition="?year >= 2016")
        ex, bgp, (node,) = _explain_nodes(engine, query)
        assert node.detail == "filter before pattern 1: 20→4 values"
        assert _first_step(bgp) == "1→120"
        assert bgp.rows_out == 120 and ex.rows == COUNTRIES
        assert_parity(engine, query)

    @pytest.mark.parametrize("store", STORES)
    def test_a_condition_that_rejects_little_is_kept(self, store):
        """A condition accepting all 20 years would seed all 600 rows: it
        is not pushed and runs where the planner puts it."""
        engine = QueryEngine(_view_shaped(store))
        query = VIEW_QUERY.format(condition="?year > 1999")
        _, bgp, (node,) = _explain_nodes(engine, query)
        assert node.detail == "filter after pattern 1: 600→600 rows"
        assert bgp.detail.split(": ")[1].startswith("1→600")
        assert_parity(engine, query)

    @pytest.mark.parametrize("store", STORES)
    def test_the_smallest_estimate_is_pushed_and_the_rest_stay(self, store):
        engine = QueryEngine(_view_shaped(store))
        query = """
            PREFIX v: <http://example.org/view/>
            PREFIX ex: <http://example.org/>
            SELECT ?g WHERE {
              ?g v:country ?country ; v:year ?year ; v:lang ?lang .
              FILTER(?year >= 2010)
              FILTER(?lang = ex:lang3)
            }"""
        _, bgp, filters = _explain_nodes(engine, query)
        details = sorted(f.detail for f in filters)
        # lang: 1 of 7 accepted x 600/7 rows (86) beats year: 10 of 20 x 30
        assert details == ["filter after pattern 1: 80→40 rows",
                           "filter before pattern 2: 7→1 values"]
        assert _first_step(bgp) == "2→80"
        assert_parity(engine, query)

    def test_the_base_cube_shape_reads_no_domain(self, monkeypatch):
        """On the population cube's base graph the plan starts from the 6
        continents, fewer than any filtered dimension has values: no
        condition reads its domain, each runs where the planner puts it."""
        graph = generate_dbpedia(DBPediaConfig(
            countries=30, years=tuple(range(2010, 2020)), seed=7))
        facet = {f.name: f for f in dataset_spec("dbpedia").facets}[
            "population_cube_4d"].build()
        read = []
        object_domain = Graph.object_domain
        monkeypatch.setattr(Graph, "object_domain", lambda self, pid: (
            read.append(pid) or object_domain(self, pid)))
        sofos, engine = Sofos(graph, facet, seed=1), QueryEngine(graph)
        filtered = [q for q in sofos.generate_workload(40) if q.filters]
        assert {c.var.name for q in filtered for c in q.filters} == {
            "country", "lang", "year", "continent"}
        for query in filtered:
            sofos.answer_from_base(query)
            assert_parity(engine, query.to_select_query())
        assert read == []

    @pytest.mark.parametrize("store", STORES)
    def test_an_empty_accepted_set_probes_nothing(self, store):
        engine = QueryEngine(_view_shaped(store))
        query = VIEW_QUERY.format(condition="?year = 1999")
        engine.query(query)      # compiled and read: the memo answers below
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            assert len(engine.query(query)) == 0
            probed = h.metrics.counter_total("engine_probe_keys_total")
            pushed = h.metrics.get("sparql_filter_pushdown_total")
            outcomes = (pushed.value(("pushed",)), pushed.value(("kept",)))
        finally:
            h.disable()
            h.reset()
        assert probed == 0 and outcomes == (1, 0)
        _, bgp, (node,) = _explain_nodes(engine, query)
        assert node.detail == "filter before pattern 1: 20→0 values"
        assert bgp.detail == "4 pattern(s)" and bgp.rows_out == 0

    def test_a_seeded_variable_is_not_pushed(self, monkeypatch):
        """Under a seed binding ?year the condition is an ordinary filter
        over the seeded rows: no domain is read."""
        read = []
        object_domain = Graph.object_domain
        monkeypatch.setattr(Graph, "object_domain", lambda self, pid: (
            read.append(pid) or object_domain(self, pid)))
        engine = QueryEngine(_view_shaped("dict"))
        stack = engine.prepare(
            VIEW_QUERY.format(condition="?year >= 2016")).plan
        while not isinstance(stack, FilterOp):
            stack = stack.child
        rows = list(engine.executor.run(
            stack, {Variable("year"): typed_literal(2017)}))
        assert len(rows) == COUNTRIES and read == []
        assert len(list(engine.executor.run(stack))) == 4 * COUNTRIES
        assert read != []


class TestFreshness:
    """The accepted ids are read per graph version: a value a write adds
    is seen by the next answer."""

    @pytest.mark.parametrize("store", STORES)
    def test_a_new_dimension_value_minted_by_maintenance_is_seen(
            self, store, population_facet):
        graph = on_store(build_population_graph(), store)
        sofos = Sofos(graph, population_facet, seed=0,
                      maintenance="incremental")
        sofos.materialize(sofos.select(
            selector=UserSelection(("lang+year",)), k=None))
        year = Variable("year")
        query = AnalyticalQuery(
            population_facet, population_facet.subset_mask((year,)),
            (FilterCondition(year, "=", typed_literal(2021)),))
        before = sofos.answer(query)
        assert before.used_view == "lang+year" and len(before.table) == 0
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2021)),
                      Triple(EX.obs8, EX.population, typed_literal(70))])
        assert [v.action for v in sofos.maintain().views] == ["patched"]
        after = sofos.answer(query)
        assert after.used_view == "lang+year" and not after.stale
        assert len(after.table) == 1
        assert after.table.same_solutions(
            sofos.answer_from_base(query).table)

    @pytest.mark.parametrize("store", STORES)
    def test_a_base_insert_of_a_new_object_is_seen(self, store):
        graph = on_store(build_population_graph(), store)
        engine = QueryEngine(graph)
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?obs ?pop WHERE {
              ?obs ex:year ?year ; ex:population ?pop .
              FILTER(?year = 2021)
            }"""
        _, _, (node,) = _explain_nodes(engine, query)
        assert node.detail == "filter before pattern 0: 2→0 values"
        assert len(engine.query(query)) == 0
        graph.update([Triple(EX.obs8, EX.year, typed_literal(2021)),
                      Triple(EX.obs8, EX.population, typed_literal(70))])
        assert len(assert_parity(engine, query)) == 1

    @pytest.mark.parametrize("store", STORES)
    def test_an_exists_domain_seed_is_judged_again_after_a_write(self, store):
        """An EXISTS condition's verdict on an object reads the graph, so
        it is not kept across a write: after ``ex:o1 ex:r ex:n1`` lands,
        ex:o1 passes and the answer doubles (the write leaves the plan
        kept, so only the verdicts can go stale)."""
        graph = Graph(store=store)
        graph.update([Triple(EX[f"x{i}"], EX.p, EX[f"o{i % 2}"])
                      for i in range(20)])
        graph.add(Triple(EX.o0, EX.r, EX.n1))
        engine = QueryEngine(graph)
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?x ?o WHERE {
              ?x ex:p ?o . FILTER EXISTS { ?o ex:r ex:n1 }
            }"""
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            assert len(engine.query(query)) == 10
            pushed = h.metrics.get(
                "sparql_filter_pushdown_total").value(("pushed",))
        finally:
            h.disable()
            h.reset()
        assert pushed == 1
        graph.add(Triple(EX.o1, EX.r, EX.n1))
        assert len(assert_parity(engine, query)) == 20

        # Kept, not pushed: ex:q's 20 objects outnumber the 4 rows the
        # first probe (ex:tag) starts from, so the condition runs after
        # the probe binding ?v, on every answer — a write must reach it
        # there too (a mutant keeping its verdicts answers 1 row here).
        graph = Graph(store=store)
        graph.update([Triple(EX[f"y{i}"], EX.q, EX[f"v{i}"])
                      for i in range(20)])
        graph.update([Triple(EX[f"y{i}"], EX.tag, EX.t) for i in range(4)])
        graph.add(Triple(EX.v0, EX.r, EX.n1))
        engine = QueryEngine(graph)
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?y WHERE {
              ?y ex:tag ex:t ; ex:q ?v . FILTER EXISTS { ?v ex:r ex:n1 }
            }"""
        h.reset()
        h.enable(tracing=False)
        try:
            assert len(engine.query(query)) == 1
            seeded = h.metrics.counter_total("sparql_filter_pushdown_total")
        finally:
            h.disable()
            h.reset()
        assert seeded == 0
        graph.add(Triple(EX.v1, EX.r, EX.n1))
        assert len(assert_parity(engine, query)) == 2

    @pytest.mark.parametrize("store", STORES)
    def test_a_domain_is_read_again_only_after_its_predicate_changes(
            self, store, monkeypatch):
        """The accepted ids key on the version ``ex:p`` was last written
        at (``Graph.predicate_version``): a write to another predicate
        leaves them, and the domain unread; a write to ``ex:p`` reads it
        once more, and judges only the object it adds."""
        reads = []
        domain = Graph.object_domain
        monkeypatch.setattr(Graph, "object_domain", lambda graph, pid: (
            reads.append(pid), domain(graph, pid))[1])
        graph = Graph(store=store)
        graph.update([Triple(EX[f"x{i}"], EX.p, EX[f"o{i % 2}"])
                      for i in range(20)])
        engine = QueryEngine(graph)
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { ?x ex:p ?o . FILTER(?o != ex:o1) }"""
        assert len(engine.query(query)) == 10
        assert len(engine.query(query)) == 10
        assert len(reads) == 1
        graph.add(Triple(EX.x0, EX.s, EX.o1))        # another predicate
        assert len(engine.query(query)) == 10
        assert len(reads) == 1
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            graph.add(Triple(EX.x99, EX.p, EX.o2))   # ex:p itself
            assert len(assert_parity(engine, query)) == 11
            verdicts = h.metrics.get("engine_filter_verdicts_total")
            judged = verdicts.value(("judged",))
        finally:
            h.disable()
            h.reset()
        assert len(reads) == 2
        assert judged == 1     # ex:o2; ex:o0 and ex:o1 kept their verdicts
