"""Tests for the console panels and the sofos-demo CLI."""

import pytest

from repro.console import build_parser, main, render_lattice
from repro.console.panels import panel_configuration, panel_cost_functions, \
    panel_full_lattice, panel_materialized_lattice, panel_performance, \
    panel_view_data, panel_workload_detail
from repro.core import OfflineModule, OnlineModule, Sofos
from repro.cost import create_model
from repro.cube import AnalyticalQuery, ViewLattice
from repro.rdf import Dataset
from repro.selection import UserSelection

from tests.conftest import build_population_graph


@pytest.fixture(scope="module")
def prepared(population_facet):
    sofos = Sofos(build_population_graph(), population_facet)
    profile = sofos.profile()
    selection = sofos.select(selector=UserSelection(["lang+year", "apex"]),
                             k=2)
    catalog = sofos.materialize(selection)
    return sofos, profile, selection, catalog


class TestLatticeRendering:
    def test_contains_all_labels(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = render_lattice(sofos.lattice, profile)
        for view in sofos.lattice:
            assert view.label in text

    def test_marks_selected(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = render_lattice(sofos.lattice, profile,
                              selected_masks=[3])
        assert "[*lang+year" in text
        assert "[ apex" in text

    def test_group_annotations(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = render_lattice(sofos.lattice, profile)
        assert f"{profile.rows(sofos.lattice.finest)}g" in text


class TestPanels:
    def test_configuration_catalog_listing(self):
        text = panel_configuration()
        for name in ("dbpedia", "lubm", "swdf"):
            assert name in text

    def test_configuration_loaded(self, tiny_dbpedia):
        text = panel_configuration(tiny_dbpedia)
        assert "population_cube" in text
        assert str(len(tiny_dbpedia.graph)) in text

    def test_full_lattice_panel(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = panel_full_lattice(sofos.lattice, profile)
        assert "storage amplification" in text
        assert "level" in text

    def test_cost_functions_panel(self, prepared):
        sofos, profile, selection, catalog = prepared
        models = [create_model(n) for n in ("random", "triples")]
        text = panel_cost_functions(sofos.lattice, profile, models)
        assert "(base graph)" in text
        assert "random" in text and "triples" in text

    def test_materialized_panel(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = panel_materialized_lattice(sofos.lattice, profile, selection,
                                          catalog)
        assert "[*lang+year" in text
        assert "user" in text

    def test_performance_panel(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        report = sofos.compare_cost_models(
            ("random",), k=1, workload=sofos.generate_workload(3),
            dataset_name="fixture")
        text = panel_performance(report)
        assert "hit rate" in text

    def test_workload_detail_panel(self, prepared, population_facet):
        sofos, profile, selection, catalog = prepared
        run = OnlineModule(catalog).run_workload(
            [AnalyticalQuery(population_facet, 0b01)])
        text = panel_workload_detail(run)
        assert "lang+year" in text

    def test_view_data_panel(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = panel_view_data(catalog, "apex")
        assert "sofos:measure" in text
        assert "sofos:groupCount" in text

    def test_view_data_panel_unknown_label(self, prepared):
        sofos, profile, selection, catalog = prepared
        text = panel_view_data(catalog, "nope")
        assert "not materialized" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "--dataset", "swdf", "--k", "3"])
        assert args.command == "compare"
        assert args.k == 3

    def test_configuration_command(self, capsys):
        assert main(["configuration"]) == 0
        out = capsys.readouterr().out
        assert "dbpedia" in out

    def test_lattice_command(self, capsys):
        assert main(["lattice", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year"]) == 0
        out = capsys.readouterr().out
        assert "Full lattice view" in out
        assert "Cost function selection" in out

    def test_views_command(self, capsys):
        assert main(["views", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--select", "lang+year", "--queries", "5",
                     "--inspect", "lang+year"]) == 0
        out = capsys.readouterr().out
        assert "Materialized lattice view" in out
        assert "View data" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--queries", "5", "--models", "random",
                     "agg_values"]) == 0
        out = capsys.readouterr().out
        assert "Query performance analyzer" in out

    def test_observe_command(self, capsys):
        assert main(["observe", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--queries", "4", "--batches", "1",
                     "--operations", "5", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "Observability" in out
        assert "maintenance windows" in out
        from repro.obs import hub
        assert hub().enabled is False

    def test_observe_times_store_compactions(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "columnar")
        assert main(["observe", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--queries", "4", "--batches", "1",
                     "--operations", "5", "--k", "1"]) == 0
        storage = capsys.readouterr().out.split("Storage engine:")[1]
        row = next(line for line in storage.splitlines()
                   if "store compaction ms" in line)
        assert float(row.split()[-1]) > 0

    def test_challenge_command(self, capsys):
        assert main(["challenge", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--queries", "5", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal (exhaustive)" in out


class TestPersistCommand:
    def test_persist_round_trips(self, tmp_path, capsys):
        assert main(["persist", "--dataset", "dbpedia", "--scale", "tiny",
                     "--facet", "population_by_language_year",
                     "--k", "2", "--out", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "saved 2 views" in out
        assert "reloaded and verified" in out
