"""Tests for view maintenance (staleness/refresh) and memory accounting."""

import pytest

from repro.core import OfflineModule, OnlineModule, Sofos
from repro.cube import AnalyticalQuery, ViewLattice
from repro.errors import ViewError
from repro.rdf import Dataset, Graph, Namespace, Triple, \
    dataset_memory_report, dictionary_memory_bytes, graph_memory_bytes, \
    typed_literal
from repro.selection import UserSelection
from repro.sparql import QueryEngine
from repro.views import ViewCatalog, rewrite_on_view

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")


def add_observation(graph, n=99, country="france", year=2019, pop=1):
    obs = EX[f"obs{n}"]
    graph.add(Triple(obs, EX.ofCountry, EX[country]))
    graph.add(Triple(obs, EX.year, typed_literal(year)))
    graph.add(Triple(obs, EX.population, typed_literal(pop)))


class TestGraphVersion:
    def test_add_bumps_version_once(self):
        g = Graph()
        v0 = g.version
        t = Triple(EX.a, EX.p, EX.b)
        assert g.add(t)
        assert g.version == v0 + 1
        assert not g.add(t)          # duplicate insert
        assert g.version == v0 + 1   # no bump

    def test_discard_and_clear_bump(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        v = g.version
        assert g.discard(Triple(EX.a, EX.p, EX.b))
        assert g.version == v + 1
        assert not g.discard(Triple(EX.a, EX.p, EX.b))
        assert g.version == v + 1
        g.clear()
        assert g.version == v + 2


class TestCatalogMaintenance:
    @pytest.fixture()
    def world(self, population_facet):
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        catalog = ViewCatalog(dataset)
        lattice = ViewLattice(population_facet)
        catalog.materialize(lattice.finest)
        catalog.materialize(lattice.apex)
        return graph, dataset, catalog, lattice

    def test_fresh_after_materialize(self, world):
        graph, dataset, catalog, lattice = world
        assert not catalog.is_stale(lattice.finest)
        assert catalog.stale_views() == []

    def test_mutation_marks_all_views_stale(self, world):
        graph, dataset, catalog, lattice = world
        add_observation(graph)
        assert catalog.is_stale(lattice.finest)
        assert catalog.is_stale(lattice.apex)
        assert len(catalog.stale_views()) == 2

    def test_stale_view_answers_old_snapshot(self, world, population_facet):
        graph, dataset, catalog, lattice = world
        query = AnalyticalQuery(population_facet, 0)
        before = QueryEngine(dataset.graph(lattice.finest.iri)).query(
            rewrite_on_view(query, lattice.finest))
        add_observation(graph, pop=1000)
        stale = QueryEngine(dataset.graph(lattice.finest.iri)).query(
            rewrite_on_view(query, lattice.finest))
        assert before.same_solutions(stale)  # frozen snapshot
        base = QueryEngine(dataset.default).query(query.to_select_query())
        assert not base.same_solutions(stale)

    def test_refresh_restores_equivalence(self, world, population_facet):
        graph, dataset, catalog, lattice = world
        add_observation(graph, pop=1000)
        refreshed = catalog.refresh_stale()
        assert len(refreshed) == 2
        assert catalog.stale_views() == []
        query = AnalyticalQuery(population_facet, 0)
        base = QueryEngine(dataset.default).query(query.to_select_query())
        fresh = QueryEngine(dataset.graph(lattice.finest.iri)).query(
            rewrite_on_view(query, lattice.finest))
        assert base.same_solutions(fresh)

    def test_refresh_updates_footprint(self, world):
        graph, dataset, catalog, lattice = world
        before = catalog.get(lattice.finest).groups
        add_observation(graph, country="italy", year=2018, pop=5)
        entry = catalog.refresh(lattice.finest)
        assert entry.groups >= before
        assert entry.base_version == graph.version

    def test_is_stale_on_unmaterialized_raises(self, world,
                                               population_facet):
        graph, dataset, catalog, lattice = world
        catalog.drop(lattice.apex)
        with pytest.raises(ViewError):
            catalog.is_stale(lattice.apex)
        with pytest.raises(ViewError):
            catalog.refresh(lattice.apex)


class TestOnlineStaleViews:
    def test_rebuild_policy_keeps_answers_current(self, population_facet):
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        offline = OfflineModule(dataset, population_facet)
        selection = offline.select(UserSelection(["lang+year"]), 1)
        catalog = offline.materialize(selection)
        online = OnlineModule(catalog, policy="rebuild")
        query = AnalyticalQuery(population_facet, 0)

        first = online.answer(query)
        add_observation(graph, pop=1_000_000)
        second = online.answer(query)
        assert second.used_view == "lang+year"
        base = online.answer_from_base(query)
        assert second.table.same_solutions(base.table)
        assert not first.table.same_solutions(second.table)

    def test_deferred_policy_snapshot_persists(self, population_facet):
        """Explicit snapshot serving: under ``deferred`` the view keeps
        answering from its frozen state."""
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        offline = OfflineModule(dataset, population_facet)
        selection = offline.select(UserSelection(["lang+year"]), 1)
        catalog = offline.materialize(selection)
        online = OnlineModule(catalog, policy="deferred")
        assert not online.router.skip_stale
        query = AnalyticalQuery(population_facet, 0)
        first = online.answer(query)
        add_observation(graph, pop=1_000_000)
        second = online.answer(query)
        assert first.table.same_solutions(second.table)
        assert second.stale and second.outcome.stale

    def test_stale_views_skipped_by_default(self, population_facet):
        """Without any refresher wired, a stale view must not answer —
        routing falls back to the always-current base graph."""
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        offline = OfflineModule(dataset, population_facet)
        selection = offline.select(UserSelection(["lang+year"]), 1)
        catalog = offline.materialize(selection)
        online = OnlineModule(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert online.router.skip_stale
        assert online.answer(query).used_view == "lang+year"
        add_observation(graph, pop=1_000_000)
        answer = online.answer(query)
        assert answer.used_view is None and not answer.stale
        assert answer.table.same_solutions(
            online.answer_from_base(query).table)
        # once refreshed, routing returns to the view
        catalog.refresh_stale()
        assert online.answer(query).used_view == "lang+year"

    def test_refresh_is_visible_through_cached_engines(self,
                                                       population_facet):
        """Regression: refresh() must rebuild the named graph *in place* so
        online modules that cached an engine over it see fresh data."""
        graph = build_population_graph()
        dataset = Dataset.wrap(graph)
        offline = OfflineModule(dataset, population_facet)
        selection = offline.select(UserSelection(["lang+year"]), 1)
        catalog = offline.materialize(selection)
        online = OnlineModule(catalog)  # no auto-refresh
        query = AnalyticalQuery(population_facet, 0)
        online.answer(query)            # populate the engine cache
        add_observation(graph, pop=500)
        catalog.refresh_stale()         # external refresh
        via_view = online.answer(query)
        base = online.answer_from_base(query)
        assert via_view.used_view == "lang+year"
        assert via_view.table.same_solutions(base.table)

    def test_sofos_refresh_views(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        assert sofos.refresh_views() == []  # nothing materialized
        sofos.select_and_materialize("agg_values", k=2)
        add_observation(sofos.dataset.default)
        refreshed = sofos.refresh_views()
        assert len(refreshed) == 2


class TestMemoryAccounting:
    def test_graph_memory_grows_with_data(self):
        empty = Graph()
        small = build_population_graph()
        assert graph_memory_bytes(small) > graph_memory_bytes(empty)

    def test_dictionary_memory_positive(self):
        g = build_population_graph()
        assert dictionary_memory_bytes(g.dictionary) > 0

    def test_include_dictionary_flag(self):
        g = build_population_graph()
        assert graph_memory_bytes(g, include_dictionary=True) > \
            graph_memory_bytes(g)

    def test_dataset_report_structure(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        sofos.select_and_materialize("agg_values", k=2)
        report = sofos.memory_report()
        assert "" in report and "(dictionary)" in report and \
            "(total)" in report
        view_keys = [k for k in report
                     if k.startswith("http://sofos.ics.forth.gr")]
        assert len(view_keys) == 2
        assert report["(total)"] == sum(v for k, v in report.items()
                                        if k != "(total)")

    def test_views_add_memory(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        before = sofos.memory_report()["(total)"]
        sofos.select_and_materialize("agg_values", k=2)
        after = sofos.memory_report()["(total)"]
        assert after > before
