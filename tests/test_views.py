"""Tests for materialization, catalogs, routing, and rewriting equivalence."""

import pytest

from repro.errors import RewriteError, ViewError
from repro.cube import AnalyticalFacet, AnalyticalQuery, FilterCondition, \
    ViewLattice
from repro.rdf import Dataset, Graph, Namespace, Triple, Variable, \
    typed_literal
from repro.rdf.namespace import SOFOS
from repro.sparql import QueryEngine
from repro.views import ViewCatalog, ViewRouter, can_answer, \
    dimension_predicate, materialize_view_from_table, rewrite_on_view

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")
LANG = Variable("lang")
YEAR = Variable("year")


@pytest.fixture()
def setup(population_facet):
    graph = build_population_graph()
    dataset = Dataset.wrap(graph)
    catalog = ViewCatalog(dataset)
    lattice = ViewLattice(population_facet)
    return dataset, catalog, lattice


class TestMaterializer:
    def test_encoding_shape(self, setup, population_facet):
        dataset, catalog, lattice = setup
        view = lattice.finest
        entry = catalog.materialize(view)
        graph = catalog.graph_of(view)
        # every group: 1 view link + |X'| dims + measure + count
        assert entry.triples == entry.groups * view.triples_per_group()
        assert len(graph) == entry.triples
        assert graph.count(p=SOFOS.view) == entry.groups
        assert graph.count(p=SOFOS.measure) == entry.groups
        assert graph.count(p=SOFOS.groupCount) == entry.groups
        assert graph.count(p=dimension_predicate(LANG)) == entry.groups

    def test_group_nodes_are_blank(self, setup):
        dataset, catalog, lattice = setup
        view = lattice[1]
        catalog.materialize(view)
        graph = catalog.graph_of(view)
        from repro.rdf import BlankNode
        assert all(isinstance(t.s, BlankNode) for t in graph)

    def test_avg_view_stores_sum_and_count(self, population_avg_facet):
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        view = ViewLattice(population_avg_facet)[1]
        catalog.materialize(view)
        vg = catalog.graph_of(view)
        assert vg.count(p=SOFOS.sum) > 0
        assert vg.count(p=SOFOS.measure) == 0
        assert vg.count(p=SOFOS.groupCount) == vg.count(p=SOFOS.sum)

    def test_refuses_dirty_target(self, setup, population_facet):
        from repro.cube.rollup import facet_scan
        dataset, catalog, lattice = setup
        view = lattice.apex
        engine = QueryEngine(dataset.default)
        target = dataset.graph(view.iri)
        table = facet_scan(engine, population_facet).table
        materialize_view_from_table(view, engine, target, table)
        with pytest.raises(ViewError):
            materialize_view_from_table(view, engine, target, table)

    def test_stats_match_profiler_prediction(self, setup, population_facet):
        from repro.cost import LatticeProfile
        dataset, catalog, lattice = setup
        engine = QueryEngine(dataset.default)
        profile = LatticeProfile.profile(lattice, engine)
        for view in lattice:
            entry = catalog.materialize(view)
            assert entry.triples == profile.triples(view), view.label
            assert entry.groups == profile.rows(view), view.label
            assert catalog.node_count(view) == profile.nodes(view), \
                view.label


class TestCatalog:
    def test_double_materialize_rejected(self, setup):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice.apex)
        with pytest.raises(ViewError):
            catalog.materialize(lattice.apex)

    def test_drop_removes_graph_and_entry(self, setup):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice.apex)
        assert catalog.drop(lattice.apex) is True
        assert lattice.apex not in catalog
        assert dataset.get_graph(lattice.apex.iri) is None
        with pytest.raises(ViewError):
            catalog.graph_of(lattice.apex)

    def test_covering(self, setup):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice[1])      # lang
        catalog.materialize(lattice[3])      # lang+year
        covering = catalog.covering(0b01)
        assert [e.mask for e in covering] == [1, 3]
        assert [e.mask for e in catalog.covering(0b10)] == [3]

    def test_storage_accounting(self, setup):
        dataset, catalog, lattice = setup
        base = len(dataset.default)
        catalog.materialize(lattice.finest)
        amplification = catalog.storage_amplification()
        assert amplification == pytest.approx(
            (base + catalog.total_triples) / base)
        assert amplification > 1.0

    def test_drop_all(self, setup):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice.apex)
        catalog.materialize(lattice.finest)
        catalog.drop_all()
        assert len(catalog) == 0
        assert catalog.total_triples == 0

    def test_iteration_sorted_by_mask(self, setup):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice.finest)
        catalog.materialize(lattice.apex)
        assert [e.mask for e in catalog] == [0, 3]


class TestRouterAndCanAnswer:
    def test_can_answer_subset_rule(self, setup, population_facet):
        dataset, catalog, lattice = setup
        q = AnalyticalQuery(population_facet, 0b01,
                            (FilterCondition(YEAR, "=",
                                             typed_literal(2019)),))
        assert can_answer(lattice.finest, q)
        assert not can_answer(lattice[1], q)     # lang only: year missing
        assert not can_answer(lattice.apex, q)

    def test_can_answer_rejects_other_facet(self, setup, population_facet,
                                            population_avg_facet):
        dataset, catalog, lattice = setup
        other = ViewLattice(population_avg_facet).finest
        q = AnalyticalQuery(population_facet, 0)
        assert not can_answer(other, q)

    def test_route_prefers_fewest_groups(self, setup, population_facet):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice[1])      # lang: fewer groups
        catalog.materialize(lattice[3])      # lang+year
        q = AnalyticalQuery(population_facet, 0b01)
        router = ViewRouter(catalog)
        assert router.route(q).mask == 1

    def test_route_returns_none_when_uncovered(self, setup,
                                               population_facet):
        dataset, catalog, lattice = setup
        catalog.materialize(lattice[1])
        q = AnalyticalQuery(population_facet, 0b10)   # needs year
        assert ViewRouter(catalog).route(q) is None


class TestRewriteEquivalence:
    """The core correctness property: views answer exactly like the graph."""

    def _check(self, facet, query, view_mask):
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        lattice = ViewLattice(facet)
        view = lattice[view_mask]
        catalog.materialize(view)
        base = QueryEngine(dataset.default).query(query.to_select_query())
        rewritten = rewrite_on_view(query, view)
        via_view = QueryEngine(dataset.graph(view.iri)).query(rewritten)
        assert base.same_solutions(via_view), (
            f"view {view.label} disagrees with base:\n"
            f"base:\n{base.render()}\nview:\n{via_view.render()}")

    def test_exact_granularity(self, population_facet):
        q = AnalyticalQuery(population_facet, 0b11)
        self._check(population_facet, q, 0b11)

    def test_rollup_one_dim(self, population_facet):
        q = AnalyticalQuery(population_facet, 0b01)
        self._check(population_facet, q, 0b11)

    def test_rollup_to_total(self, population_facet):
        q = AnalyticalQuery(population_facet, 0)
        self._check(population_facet, q, 0b11)
        self._check(population_facet, q, 0b01)

    def test_with_equality_filter(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b01,
            (FilterCondition(YEAR, "=", typed_literal(2019)),))
        self._check(population_facet, q, 0b11)

    def test_with_range_filter(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b01,
            (FilterCondition(YEAR, ">=", typed_literal(2019)),))
        self._check(population_facet, q, 0b11)

    def test_filter_on_grouped_dim(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b11,
            (FilterCondition(LANG, "=", EX.french),))
        self._check(population_facet, q, 0b11)

    def test_empty_filter_result(self, population_facet):
        q = AnalyticalQuery(
            population_facet, 0b01,
            (FilterCondition(YEAR, "=", typed_literal(1900)),))
        self._check(population_facet, q, 0b11)

    def test_avg_facet_rollup_is_exact(self, population_avg_facet):
        # weighted average across groups, not average-of-averages
        q = AnalyticalQuery(population_avg_facet, 0b01)
        self._check(population_avg_facet, q, 0b11)

    def test_avg_facet_total(self, population_avg_facet):
        q = AnalyticalQuery(population_avg_facet, 0)
        self._check(population_avg_facet, q, 0b11)

    def test_min_max_facets(self):
        for agg in ("MIN", "MAX"):
            facet = AnalyticalFacet.from_query("mm", f"""
                PREFIX ex: <http://example.org/>
                SELECT ?lang ?year ({agg}(?pop) AS ?m) WHERE {{
                  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
                  ?c ex:language ?lang .
                }} GROUP BY ?lang ?year""")
            q = AnalyticalQuery(facet, 0b01)
            self._check(facet, q, 0b11)

    def test_count_facet(self):
        facet = AnalyticalFacet.from_query("cnt", """
            PREFIX ex: <http://example.org/>
            SELECT ?lang ?year (COUNT(?obs) AS ?n) WHERE {
              ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
              ?c ex:language ?lang .
            } GROUP BY ?lang ?year""")
        for mask in (0, 0b01, 0b10, 0b11):
            q = AnalyticalQuery(facet, mask)
            self._check(facet, q, 0b11)

    def test_rewrite_uncoverable_raises(self, population_facet):
        lattice = ViewLattice(population_facet)
        q = AnalyticalQuery(population_facet, 0b10)
        with pytest.raises(RewriteError):
            rewrite_on_view(q, lattice[1])


class TestGroupIndexFromGraph:
    """The scan of a view graph into its group index refuses a graph
    that breaks the §3.1 encoding, naming what is wrong."""

    @staticmethod
    def _finest(setup):
        from repro.views.materializer import GroupIndex
        dataset, catalog, lattice = setup
        view = lattice.finest
        catalog.materialize(view)
        graph = catalog.graph_of(view)
        node = min(graph.subjects(SOFOS.view, view.iri),
                   key=lambda n: n.label)
        return view, graph, node, GroupIndex.from_graph

    def test_true_graph_reads_back_every_group(self, setup):
        view, graph, _node, from_graph = self._finest(setup)
        index = from_graph(view, graph)
        assert len(index) == graph.count(p=SOFOS.view)
        assert {state.value for state in index.groups.values()} == {
            lit.to_python() for lit in graph.objects(None, SOFOS.measure)}

    @pytest.mark.parametrize("pred, what", [
        (SOFOS.measure, "0 measure"), (SOFOS.groupCount, "0 groupCount")])
    def test_missing_measure_or_count(self, setup, pred, what):
        view, graph, node, from_graph = self._finest(setup)
        graph.discard(Triple(node, pred, graph.value(node, pred)))
        with pytest.raises(ViewError, match=what):
            from_graph(view, graph)

    @pytest.mark.parametrize("pred, what", [
        (SOFOS.measure, "2 measure"), (SOFOS.groupCount, "2 groupCount"),
        (dimension_predicate(YEAR), "2 dimension")])
    def test_ambiguous_value(self, setup, pred, what):
        view, graph, node, from_graph = self._finest(setup)
        graph.add(Triple(node, pred, typed_literal(123456)))
        with pytest.raises(ViewError, match=what):
            from_graph(view, graph)

    def test_duplicate_group_key(self, setup):
        view, graph, node, from_graph = self._finest(setup)
        other = next(n for n in graph.subjects(SOFOS.view, view.iri)
                     if n != node)
        for var in view.variables:
            pred = dimension_predicate(var)
            graph.discard(Triple(other, pred, graph.value(other, pred)))
            graph.add(Triple(other, pred, graph.value(node, pred)))
        with pytest.raises(ViewError, match="duplicate group key"):
            from_graph(view, graph)
