"""End-to-end wiring: the hub sees what the serving stack actually does."""

from __future__ import annotations

import json

import pytest

from repro.core import Sofos
from repro.cube import AnalyticalQuery, FilterCondition
from repro.errors import FailpointError
from repro.obs import hub
from repro.rdf import Namespace, Triple, Variable, typed_literal
from repro.resilience import failpoints
from repro.sparql import QueryEngine
from repro.views import load_expanded, save_expanded
from repro.workload import render_analytical_query

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")

POP_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
} GROUP BY ?year
"""


@pytest.fixture(autouse=True)
def clean_hub():
    h = hub()
    h.disable()
    h.reset()
    failpoints.reset()
    yield h
    failpoints.reset()
    h.disable()
    h.reset()


@pytest.fixture
def incremental_sofos(population_facet) -> Sofos:
    return Sofos(build_population_graph(), population_facet, seed=0,
                 maintenance="incremental")


def _one_engine_query(_facet, _directory):
    QueryEngine(build_population_graph()).query(POP_QUERY)


def _whole_loop(facet, directory):
    """Every layer of the SOFOS loop once, offline phase to save + load."""
    sofos = Sofos(build_population_graph(), facet, seed=0,
                  maintenance="incremental")
    sofos.profile()
    catalog = sofos.materialize(sofos.select("agg_values", k=2))
    graph = sofos.dataset.default
    graph.add(Triple(EX.obs_new, EX.ofCountry, EX.greece))
    graph.add(Triple(EX.obs_new, EX.year, typed_literal(2021)))
    graph.add(Triple(EX.obs_new, EX.population, typed_literal(123)))
    assert sofos.maintain().views
    query = AnalyticalQuery(facet, next(iter(catalog)).mask)
    assert sofos.answer(query).used_view is not None
    assert sofos.answer_from_base(query).used_view is None
    # a one-variable FILTER on the base graph runs on ex:year's 3 values
    # before the probes (the counted pushdown path, here uncounted)
    in_2021 = AnalyticalQuery(facet, 0, (FilterCondition(
        Variable("year"), "=", typed_literal(2021)),))
    assert len(sofos.answer_from_base(in_2021).table) == 1
    for _ in range(2):      # a serving-plan memo miss, then a hit
        assert sofos.answer_sparql(
            render_analytical_query(query)).used_view is not None
    assert sofos.answer_sparql(POP_QUERY).used_view is None
    assert sofos.explain(query).route == "view"     # traced, hub untouched
    assert sofos.audit().clean
    save_expanded(catalog, directory)
    load_expanded(directory, facet)


class TestEngineWiring:
    def test_cache_counters_move_on_repeat_queries(self, clean_hub):
        clean_hub.enable(tracing=False)
        engine = QueryEngine(build_population_graph())
        engine.query(POP_QUERY)
        engine.query(POP_QUERY)
        m = clean_hub.metrics
        assert m.counter_total("engine_prepared_cache_misses_total") == 1
        assert m.counter_total("engine_prepared_cache_hits_total") >= 1
        assert m.counter_total("engine_bgp_plan_cache_hits_total") >= 1

    def test_filter_pushdown_is_counted_by_outcome(self, clean_hub):
        """Both conditions read one variable with fewer values than the
        first probe's 5 rows; ?lang = french (1 of 4 languages, ~1 row)
        beats ?year = 2019 (1 of 2 years, ~3.5 rows) and is pushed."""
        clean_hub.enable(tracing=False)
        engine = QueryEngine(build_population_graph())
        query = POP_QUERY.replace(
            "ex:population ?pop .", "ex:population ?pop . "
            "?c ex:language ?lang . FILTER(?lang = ex:french) "
            "FILTER(?year = 2019)")
        assert len(engine.query(query)) == 1
        outcomes = clean_hub.metrics.get("sparql_filter_pushdown_total")
        assert (outcomes.value(("pushed",)), outcomes.value(("kept",))) \
            == (1, 1)

    def test_aggregate_ids_are_counted_reused_or_minted(self, clean_hub):
        """SUM by year answers 183 and 246, which no triple holds: both
        are built once, then reused.  A window adds a 2018 observation
        (2018 → 184, built) and a triple holding 246, whose id the
        dictionary's integer index now gives without a literal."""
        clean_hub.enable(tracing=False)
        graph = build_population_graph()
        engine = QueryEngine(graph)
        ids = clean_hub.metrics.get("engine_aggregate_ids_total")

        def counts() -> tuple[int, int]:
            return ids.value(("reused",)), ids.value(("minted",))

        engine.query(POP_QUERY)
        assert counts() == (0, 2)
        engine.query(POP_QUERY)
        assert counts() == (2, 2)
        graph.add(Triple(EX.obs8, EX.ofCountry, EX.greece))
        graph.add(Triple(EX.obs8, EX.year, typed_literal(2018)))
        graph.add(Triple(EX.obs8, EX.population, typed_literal(1)))
        graph.add(Triple(EX.census, EX.recorded, typed_literal(246)))
        totals = {row[0].to_python(): row[1].to_python()
                  for row in engine.query(POP_QUERY)}
        assert totals == {2018: 184, 2019: 246}
        assert counts() == (3, 3)

    def test_spans_cover_execution(self, clean_hub):
        clean_hub.enable()
        engine = QueryEngine(build_population_graph())
        engine.query(POP_QUERY)
        names = {s.name for s in clean_hub.tracer.recent()}
        assert "executor.run" in names

    @pytest.mark.parametrize("drive", [_one_engine_query, _whole_loop],
                             ids=["engine-query", "whole-loop"])
    def test_disabled_by_default_records_nothing(self, clean_hub, drive,
                                                 population_facet, tmp_path):
        drive(population_facet, str(tmp_path))
        snap = clean_hub.metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert clean_hub.tracer.recent() == []


class TestServingWiring:
    def test_online_latency_histogram_counts_queries(self, clean_hub,
                                                     incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=2)
        workload = incremental_sofos.generate_workload(5)
        incremental_sofos.run_workload(workload)
        m = clean_hub.metrics
        hist = m.get("online_query_seconds")
        assert hist.total_count() == 5
        assert m.counter_total("online_answers_total") == 5

    def test_raw_sparql_off_the_facet_is_counted_as_a_base_answer(
            self, clean_hub, incremental_sofos):
        clean_hub.enable()
        incremental_sofos.select_and_materialize("agg_values", k=2)
        answer = incremental_sofos.answer_sparql(POP_QUERY)
        assert answer.used_view is None and answer.outcome.query is None
        m = clean_hub.metrics
        assert m.value("online_answers_total", ("base",)) == 1
        assert m.get("online_query_seconds").total_count() == 1
        span = next(s for s in clean_hub.tracer.recent()
                    if s.name == "online.answer")
        assert span.tags["route"] == "base"

    def test_serving_plan_memo_is_countable_by_level(self, clean_hub,
                                                     incremental_sofos):
        clean_hub.enable(tracing=False)
        _, catalog = incremental_sofos.select_and_materialize(
            "agg_values", k=2)
        query = AnalyticalQuery(incremental_sofos.facet,
                                next(iter(catalog)).mask)
        text = render_analytical_query(query)
        incremental_sofos.answer_sparql(text)
        incremental_sofos.answer_sparql(text)
        incremental_sofos.answer(query)     # object path: plan level only
        m = clean_hub.metrics
        assert m.value("serving_plan_cache_misses_total", ("text",)) == 1
        assert m.value("serving_plan_cache_hits_total", ("text",)) == 1
        assert m.value("serving_plan_cache_misses_total", ("plan",)) == 1
        assert m.value("serving_plan_cache_hits_total", ("plan",)) == 2

    def test_maintenance_window_counters(self, clean_hub, incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=2)
        graph = incremental_sofos.dataset.default
        graph.add(Triple(EX.obs_new, EX.ofCountry, EX.greece))
        graph.add(Triple(EX.obs_new, EX.year, typed_literal(2021)))
        graph.add(Triple(EX.obs_new, EX.population, typed_literal(123)))
        report = incremental_sofos.maintain()
        m = clean_hub.metrics
        assert m.counter_total("maintenance_windows_total") == 1
        assert m.counter_total("maintenance_decisions_total") \
            == len(report.patched) + len(report.rebuilt)
        assert m.get("maintenance_changelog_window_size").total_count() >= 1
        # the window touches three of the facet's four patterns; Greece
        # has no language, so none of the terms reaches a row
        assert m.counter_total("maintenance_delta_terms_total") == 3
        assert m.counter_total("maintenance_delta_rows_total") == 0

    def test_rebuild_policy_windows_are_counted(self, clean_hub,
                                                population_facet):
        sofos = Sofos(build_population_graph(), population_facet,
                      maintenance="rebuild")
        catalog = sofos.materialize(sofos.select("agg_values", k=2))
        clean_hub.enable(tracing=False)
        sofos.dataset.default.add(Triple(EX.obs_new, EX.ofCountry, EX.greece))
        report = sofos.maintain()
        assert [(v.action, v.reason) for v in report.views] == \
            [("rebuilt", "rebuild policy")] * len(catalog)
        m = clean_hub.metrics
        assert m.counter_total("maintenance_windows_total") == 1
        assert m.value("maintenance_decisions_total",
                       ("rebuilt", "policy")) == len(catalog)
        assert m.value("facet_scan_total", ("scan",)) == 1

    def test_quarantine_counter(self, clean_hub, incremental_sofos):
        clean_hub.enable(tracing=False)
        incremental_sofos.select_and_materialize("agg_values", k=1)
        catalog = incremental_sofos.catalog
        entry = next(iter(catalog))
        catalog.quarantine(entry.definition, "wiring test")
        assert clean_hub.metrics.counter_total(
            "views_quarantine_events_total") == 1

    def test_failpoint_counter_labels(self, clean_hub):
        clean_hub.enable(tracing=False)
        failpoints.arm("unit.wiring", mode="error")
        with pytest.raises(FailpointError):
            failpoints.fail_at("unit.wiring")
        assert clean_hub.metrics.value(
            "resilience_failpoints_fired_total", ("unit.wiring", "error")) == 1

    def test_workload_summary_percentiles(self, incremental_sofos):
        incremental_sofos.select_and_materialize("agg_values", k=2)
        run = incremental_sofos.run_workload(
            incremental_sofos.generate_workload(6))
        summary = run.summary()
        assert 0.0 <= summary["p50_seconds"] <= summary["p95_seconds"] \
            <= summary["p99_seconds"]
        assert summary["p99_seconds"] <= summary["total_seconds"]
        for record in run.characteristics():
            assert record["stale"] is False
            assert record["degraded"] is False


class TestHubExports:
    def _populated_hub(self, clean_hub, sofos):
        clean_hub.enable()
        sofos.select_and_materialize("agg_values", k=2)
        sofos.run_workload(sofos.generate_workload(3))
        return clean_hub

    def test_snapshot_shape(self, clean_hub, incremental_sofos):
        h = self._populated_hub(clean_hub, incremental_sofos)
        snap = h.snapshot()
        assert snap["enabled"] == {"metrics": True, "tracing": True}
        assert "online_answers_total" in snap["metrics"]["counters"]
        assert snap["spans"], "enabled tracer should have finished spans"

    def test_dump_writes_json(self, clean_hub, incremental_sofos, tmp_path):
        h = self._populated_hub(clean_hub, incremental_sofos)
        path = h.dump(str(tmp_path / "obs.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["metrics"]["counters"]
        assert isinstance(payload["spans"], list)

    def test_prometheus_export_includes_serving_counters(
            self, clean_hub, incremental_sofos):
        h = self._populated_hub(clean_hub, incremental_sofos)
        text = h.to_prometheus()
        assert "# TYPE online_answers_total counter" in text
        assert "online_query_seconds_bucket" in text
