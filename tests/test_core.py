"""Tests for the SOFOS core: offline module, online module, facade, reports."""

import pytest

from repro.errors import ReproError
from repro.core import OfflineModule, OnlineModule, Sofos, Timer, format_table
from repro.cost import create_model
from repro.cube import AnalyticalQuery, FilterCondition
from repro.rdf import Dataset, Triple, Variable, typed_literal
from repro.selection import GreedySelector, UserSelection
from repro.views import ViewCatalog

from tests.conftest import EX, build_population_graph

LANG = Variable("lang")
YEAR = Variable("year")


@pytest.fixture()
def sofos(population_facet) -> Sofos:
    return Sofos(build_population_graph(), population_facet, seed=0)


class TestOfflineModule:
    def test_profile_cached(self, population_facet):
        offline = OfflineModule(Dataset.wrap(build_population_graph()),
                                population_facet)
        first = offline.profile()
        second = offline.profile()
        assert first is second

    def test_profile_follows_the_graph_version(self, population_facet):
        graph = build_population_graph()
        offline = OfflineModule(Dataset.wrap(graph), population_facet)
        first = offline.profile()
        graph.add(Triple(EX.obs8, EX.ofCountry, EX.italy))
        graph.add(Triple(EX.obs8, EX.year, typed_literal(2018)))
        graph.add(Triple(EX.obs8, EX.population, typed_literal(59)))
        second = offline.profile()
        assert second is not first
        assert second.base.rows == first.base.rows + 1
        assert second.base.triples == len(graph)

    def test_select_and_materialize(self, population_facet):
        offline = OfflineModule(Dataset.wrap(build_population_graph()),
                                population_facet)
        selection = offline.select(
            GreedySelector(create_model("agg_values")), 2)
        catalog = offline.materialize(selection)
        assert len(catalog) == 2
        assert {e.mask for e in catalog} == selection.masks

    def test_materialize_into_existing_catalog_skips_duplicates(
            self, population_facet):
        offline = OfflineModule(Dataset.wrap(build_population_graph()),
                                population_facet)
        selection = offline.select(UserSelection(["apex"]), 1)
        catalog = offline.materialize(selection)
        again = offline.materialize(selection, catalog)
        assert again is catalog
        assert len(catalog) == 1

    def test_materialize_full_lattice(self, population_facet):
        offline = OfflineModule(Dataset.wrap(build_population_graph()),
                                population_facet)
        catalog, seconds = offline.materialize_full_lattice()
        assert len(catalog) == len(offline.lattice)
        assert seconds >= 0


class TestOnlineModule:
    def _module(self, facet, labels):
        dataset = Dataset.wrap(build_population_graph())
        offline = OfflineModule(dataset, facet)
        selection = offline.select(UserSelection(labels), len(labels))
        catalog = offline.materialize(selection)
        return OnlineModule(catalog)

    def test_routes_to_view(self, population_facet):
        online = self._module(population_facet, ["lang+year"])
        q = AnalyticalQuery(population_facet, 0b01)
        answer = online.answer(q)
        assert answer.used_view == "lang+year"
        assert answer.outcome.rewrite_seconds >= 0

    def test_falls_back_to_base(self, population_facet):
        online = self._module(population_facet, ["lang"])
        q = AnalyticalQuery(population_facet, 0b10)  # year not covered
        answer = online.answer(q)
        assert answer.used_view is None

    def test_view_answer_equals_base_answer(self, population_facet):
        online = self._module(population_facet, ["lang+year", "apex"])
        for mask in (0, 0b01, 0b10, 0b11):
            q = AnalyticalQuery(population_facet, mask)
            via_view = online.answer(q)
            via_base = online.answer_from_base(q)
            assert via_view.table.same_solutions(via_base.table), mask

    def test_run_workload_stats(self, population_facet):
        online = self._module(population_facet, ["lang+year"])
        queries = [AnalyticalQuery(population_facet, 0b01),
                   AnalyticalQuery(population_facet, 0b11)]
        run = online.run_workload(queries)
        assert len(run) == 2
        assert run.hit_rate == 1.0
        assert run.total_seconds > 0
        assert run.by_view() == {"lang+year": 2}

    def test_force_base_bypasses_views(self, population_facet):
        online = self._module(population_facet, ["lang+year"])
        queries = [AnalyticalQuery(population_facet, 0b01)]
        run = online.run_workload(queries, force_base=True)
        assert run.hit_rate == 0.0


class TestSofosFacade:
    def test_answer_requires_materialization(self, sofos, population_facet):
        with pytest.raises(ReproError):
            sofos.answer(AnalyticalQuery(population_facet, 0))

    def test_answer_from_base_works_without_views(self, sofos,
                                                  population_facet):
        answer = sofos.answer_from_base(AnalyticalQuery(population_facet, 0))
        assert answer.used_view is None
        assert len(answer.table) == 1

    def test_select_and_materialize_round_trip(self, sofos,
                                               population_facet):
        selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        assert sofos.catalog is catalog
        q = AnalyticalQuery(population_facet, 0b01,
                            (FilterCondition(YEAR, "=",
                                             typed_literal(2019)),))
        answer = sofos.answer(q)
        base = sofos.answer_from_base(q)
        assert answer.table.same_solutions(base.table)

    def test_drop_views_resets(self, sofos):
        sofos.select_and_materialize("agg_values", k=1)
        sofos.drop_views()
        assert sofos.catalog is None
        assert len(sofos.dataset) == len(sofos.dataset.default)

    def test_rematerialize_replaces_previous(self, sofos):
        sofos.select_and_materialize("agg_values", k=2)
        first_total = len(sofos.dataset)
        sofos.select_and_materialize("random", k=1)
        assert len(sofos.catalog) == 1
        assert len(sofos.dataset) <= first_total

    def test_generate_workload_deterministic(self, sofos, population_facet):
        other = Sofos(build_population_graph(), population_facet, seed=0)
        a = sofos.generate_workload(10)
        b = other.generate_workload(10)
        assert [(q.group_mask, q.filters) for q in a] == \
            [(q.group_mask, q.filters) for q in b]

    def test_accepts_dataset_input(self, population_facet):
        dataset = Dataset.wrap(build_population_graph())
        sofos = Sofos(dataset, population_facet)
        assert sofos.dataset is dataset


class TestCompareCostModels:
    def test_report_structure(self, sofos):
        workload = sofos.generate_workload(8)
        report = sofos.compare_cost_models(
            ("random", "agg_values"), k=2, workload=workload,
            dataset_name="fixture")
        assert report.k == 2
        assert report.workload_size == 8
        assert [row.model for row in report.rows] == ["random", "agg_values"]
        for row in report.rows:
            assert len(row.selected_views) == 2
            assert row.storage_amplification > 1.0
            assert 0.0 <= row.hit_rate <= 1.0
            assert row.workload_seconds > 0

    def test_views_dropped_after_compare(self, sofos):
        sofos.compare_cost_models(("random",), k=1,
                                  workload=sofos.generate_workload(3))
        assert sofos.catalog is None

    def test_report_render_and_lookup(self, sofos):
        report = sofos.compare_cost_models(
            ("random", "agg_values"), k=1,
            workload=sofos.generate_workload(5), dataset_name="fixture")
        text = report.render()
        assert "agg_values" in text and "hit rate" in text
        assert report.row("random") is not None
        assert report.row("missing") is None
        assert report.best_by_time() in report.rows
        assert report.best_by_space() in report.rows


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(("name", "n"), [["a", "10"], ["bb", "5"]],
                            align_right=[False, True])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].endswith("10")
        assert lines[3].endswith(" 5")

    def test_timer(self):
        with Timer() as t:
            sum(range(1000))
        assert t.seconds >= 0


class TestWorkloadRunMetrics:
    def test_aggregations(self, population_facet):
        from repro.core.metrics import QueryOutcome, WorkloadRun
        q = AnalyticalQuery(population_facet, 0)
        run = WorkloadRun()
        run.add(QueryOutcome(q, rows=1, seconds=0.2, view_label="apex",
                             rewrite_seconds=0.01))
        run.add(QueryOutcome(q, rows=2, seconds=0.3, view_label=None))
        assert run.total_seconds == pytest.approx(0.5)
        assert run.mean_seconds == pytest.approx(0.25)
        assert run.view_hits == 1
        assert run.hit_rate == 0.5
        assert run.total_rows == 3
        assert run.total_rewrite_seconds == pytest.approx(0.01)
        assert run.summary()["queries"] == 2.0

    def test_empty_run(self):
        from repro.core.metrics import WorkloadRun
        run = WorkloadRun()
        assert run.mean_seconds == 0.0
        assert run.hit_rate == 0.0


class TestQueryCharacteristics:
    def test_characteristics_records(self, sofos, population_facet):
        sofos.select_and_materialize("agg_values", k=2)
        run = sofos.run_workload(sofos.generate_workload(6))
        records = run.characteristics()
        assert len(records) == 6
        for record in records:
            assert set(record) == {"query", "group_level", "filters",
                                   "answered_by", "rows", "ms",
                                   "stale", "degraded"}
            assert record["group_level"] is not None
            assert record["ms"] >= 0
            assert record["stale"] is False
            assert record["degraded"] is False

    def test_characteristics_panel_renders(self, sofos):
        from repro.console.panels import panel_query_characteristics
        sofos.select_and_materialize("agg_values", k=1)
        run = sofos.run_workload(sofos.generate_workload(3))
        text = panel_query_characteristics(run)
        assert "answered by" in text
        assert "Query characteristics" in text


class TestCompareWithUserSelection:
    def test_user_row_joins_the_table(self, sofos):
        report = sofos.compare_cost_models(
            ("random",), k=2, workload=sofos.generate_workload(5),
            dataset_name="fixture",
            extra_selectors=[("user[finest+apex]",
                              UserSelection(["lang+year", "apex"]))])
        labels = [row.model for row in report.rows]
        assert labels == ["random", "user[finest+apex]"]
        user_row = report.row("user[finest+apex]")
        assert set(user_row.selected_views) == {"lang+year", "apex"}
        assert sofos.catalog is None  # cleaned up afterwards
