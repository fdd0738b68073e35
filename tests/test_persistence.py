"""Tests for N-Quads I/O and expanded-dataset persistence."""

import hashlib
import json

import pytest

from repro.core import OnlineModule, Sofos
from repro.cube import AnalyticalQuery
from repro.errors import CatalogCorruptError, ParseError, SimulatedCrash, \
    ViewError
from repro.rdf import Dataset, Namespace, Quad, Triple, typed_literal
from repro.rdf.nquads import parse_nquads, serialize_nquads
from repro.resilience import failpoints
from repro.views.persistence import load_expanded, save_expanded

from tests.conftest import build_population_graph

EX = Namespace("http://example.org/")


@pytest.fixture(autouse=True)
def clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


class TestNQuads:
    def test_round_trip_with_named_graphs(self):
        ds = Dataset()
        ds.add_quad(Quad(EX.a, EX.p, EX.b, None))
        ds.add_quad(Quad(EX.a, EX.p, typed_literal(5), EX.g1))
        ds.add_quad(Quad(EX.b, EX.q, EX.c, EX.g2))
        back = parse_nquads(serialize_nquads(ds))
        assert set(back.quads()) == set(ds.quads())
        assert len(back.default) == 1
        assert len(back.graph(EX.g1)) == 1

    def test_default_graph_lines_have_three_terms(self):
        ds = Dataset()
        ds.add_quad(Quad(EX.a, EX.p, EX.b, None))
        text = serialize_nquads(ds)
        assert text.strip().count(" ") == 3  # s p o .

    def test_comments_and_blanks_skipped(self):
        ds = parse_nquads("# header\n\n<http://x/a> <http://x/p> "
                          "<http://x/b> <http://x/g> .\n")
        assert len(ds) == 1

    def test_literal_graph_label_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads('<http://x/a> <http://x/p> <http://x/b> "g" .')

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads("<http://x/a> <http://x/p> <http://x/b>")

    def test_deterministic_serialization(self):
        ds = Dataset()
        ds.add_quad(Quad(EX.b, EX.p, EX.c, EX.g1))
        ds.add_quad(Quad(EX.a, EX.p, EX.b, None))
        assert serialize_nquads(ds) == serialize_nquads(
            parse_nquads(serialize_nquads(ds)))


class TestExpandedPersistence:
    @pytest.fixture()
    def saved(self, tmp_path, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        return tmp_path, population_facet, selection, catalog

    def test_files_written(self, saved):
        tmp_path, facet, selection, catalog = saved
        assert (tmp_path / "expanded.nq").exists()
        assert (tmp_path / "catalog.json").exists()

    def test_round_trip_preserves_catalog(self, saved):
        tmp_path, facet, selection, catalog = saved
        dataset, loaded = load_expanded(str(tmp_path), facet)
        assert len(loaded) == len(catalog)
        assert {e.mask for e in loaded} == {e.mask for e in catalog}
        for original, restored in zip(catalog, loaded):
            assert restored.groups == original.groups
            assert restored.triples == original.triples

    def test_round_trip_preserves_data(self, saved, population_facet):
        tmp_path, facet, selection, catalog = saved
        dataset, loaded = load_expanded(str(tmp_path), facet)
        assert len(dataset.default) == len(catalog.dataset.default)
        assert len(dataset) == len(catalog.dataset)

    def test_loaded_catalog_answers_queries(self, saved, population_facet):
        tmp_path, facet, selection, catalog = saved
        dataset, loaded = load_expanded(str(tmp_path), facet)
        online = OnlineModule(loaded)
        query = AnalyticalQuery(facet, 0)
        answer = online.answer(query)
        base = online.answer_from_base(query)
        assert answer.used_view is not None
        assert answer.table.same_solutions(base.table)

    def test_loaded_views_are_fresh(self, saved):
        tmp_path, facet, selection, catalog = saved
        dataset, loaded = load_expanded(str(tmp_path), facet)
        assert loaded.stale_views() == []

    def test_wrong_facet_rejected(self, saved, population_avg_facet):
        tmp_path, facet, selection, catalog = saved
        with pytest.raises(ViewError):
            load_expanded(str(tmp_path), population_avg_facet)

    def test_missing_directory_rejected(self, tmp_path, population_facet):
        with pytest.raises(ViewError):
            load_expanded(str(tmp_path / "nowhere"), population_facet)

    def test_manifest_graph_mismatch_rejected(self, saved):
        import json
        tmp_path, facet, selection, catalog = saved
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["views"].append({
            "mask": 2, "label": "year", "groups": 1, "triples": 1,
            "nodes": 1, "build_seconds": 0.0, "base_version": 0})
        manifest_path.write_text(json.dumps(manifest))
        if any(e.mask == 2 for e in catalog):
            pytest.skip("selection already contains mask 2")
        with pytest.raises(ViewError):
            load_expanded(str(tmp_path), facet)


class TestManifestV2:
    """Format 2: true staleness + the per-view group index round trip."""

    def test_manifest_records_format_and_group_index(self, tmp_path,
                                                     population_facet):
        import json
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        assert manifest["format"] == 3
        for item in manifest["views"]:
            assert item["stale"] is False
            index = item["group_index"]
            assert index is not None
            assert len(index["groups"]) == item["groups"]
            for group in index["groups"]:
                assert group["node"].startswith("_:")
                assert isinstance(group["count"], int)

    def test_stale_at_save_restored_stale(self, tmp_path, population_facet):
        from repro.rdf import Triple, typed_literal
        from tests.conftest import EX
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        sofos.dataset.default.add(
            Triple(EX.obs99, EX.population, typed_literal(1)))
        assert len(catalog.stale_views()) == 2
        save_expanded(catalog, str(tmp_path))
        _dataset, loaded = load_expanded(str(tmp_path), population_facet)
        assert len(loaded.stale_views()) == 2
        refreshed = loaded.refresh_stale()
        assert len(refreshed) == 2
        assert loaded.stale_views() == []

    def test_restored_index_patches_without_rescan(self, tmp_path,
                                                   population_facet,
                                                   monkeypatch):
        """Save → load hands the catalog its indexes back: a loaded
        catalog answers ``group_index`` and survives a real patch without
        scanning a view graph."""
        from repro.core import OnlineModule
        from repro.cube import AnalyticalQuery
        from repro.rdf import Triple, typed_literal
        from repro.views import GroupIndex, ViewMaintainer
        from tests.conftest import EX
        from tests.test_incremental_maintenance import assert_index_true
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        dataset, loaded = load_expanded(str(tmp_path), population_facet)
        views = [entry.definition for entry in loaded]
        with monkeypatch.context() as patched:
            patched.setattr(GroupIndex, "from_graph", classmethod(
                lambda cls, view, g: pytest.fail("scanned " + view.label)))
            for entry in loaded:
                assert len(loaded.group_index(entry.definition)) \
                    == entry.groups
            maintainer = ViewMaintainer(loaded, max_delta_fraction=1.0)
            dataset.default.update([
                Triple(EX.obs99, EX.ofCountry, EX.france),
                Triple(EX.obs99, EX.year, typed_literal(2019)),
                Triple(EX.obs99, EX.population, typed_literal(3)),
            ])
            report = maintainer.synchronize()
        assert len(report.patched) == len(views)
        assert_index_true(loaded, views)
        online = OnlineModule(loaded)
        query = AnalyticalQuery(population_facet, 0)
        answer = online.answer(query)
        assert answer.used_view is not None
        assert answer.table.same_solutions(
            online.answer_from_base(query).table)

    def test_manifest_without_index_payload_scans_once(self, tmp_path,
                                                       population_facet):
        """The one case the catalog scans a view graph: a manifest whose
        index payload is missing or does not resolve."""
        import json
        from tests.test_incremental_maintenance import assert_index_true
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["views"][0]["group_index"] = None
        manifest["views"][1]["group_index"]["groups"][0]["node"] = "_:gone"
        manifest_path.write_text(json.dumps(manifest))
        _dataset, loaded = load_expanded(str(tmp_path), population_facet)
        views = [entry.definition for entry in loaded]
        assert_index_true(loaded, views)
        for view in views:
            assert loaded.group_index(view) is loaded.group_index(view)

    def test_refresh_invalidates_restored_index(self, tmp_path,
                                                population_facet):
        """Regression: a rebuild mints fresh group nodes, so a restored
        index must never be adopted past it — patches through the orphaned
        node ids would corrupt the view silently."""
        from repro.core import OnlineModule
        from repro.cube import AnalyticalQuery
        from repro.rdf import Triple, typed_literal
        from repro.views import ViewMaintainer
        from tests.conftest import EX
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        sofos.dataset.default.add(
            Triple(EX.obs98, EX.population, typed_literal(1)))
        save_expanded(catalog, str(tmp_path))
        dataset, loaded = load_expanded(str(tmp_path), population_facet)
        loaded.refresh_stale()            # fresh blank nodes everywhere
        # The persisted indexes (orphaned node ids) must be gone: the
        # rebuild rewrote them to describe the rebuilt graphs exactly.
        from tests.test_incremental_maintenance import assert_index_true
        assert_index_true(loaded, [entry.definition for entry in loaded])
        maintainer = ViewMaintainer(loaded, max_delta_fraction=1.0)
        dataset.default.update([
            Triple(EX.obs99, EX.ofCountry, EX.france),
            Triple(EX.obs99, EX.year, typed_literal(2019)),
            Triple(EX.obs99, EX.population, typed_literal(3)),
        ])
        maintainer.synchronize()
        online = OnlineModule(loaded)
        query = AnalyticalQuery(population_facet, 0)
        answer = online.answer(query)
        assert answer.used_view is not None
        assert answer.table.same_solutions(
            online.answer_from_base(query).table)

    def test_maintain_seconds_round_trip(self, tmp_path, population_facet):
        import json
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        entry = next(iter(catalog))
        catalog.note_maintained(
            entry.definition, groups=entry.groups, triples=entry.triples,
            nodes=entry.nodes, seconds=1.5)
        save_expanded(catalog, str(tmp_path))
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        saved = {item["mask"]: item for item in manifest["views"]}
        assert saved[entry.mask]["maintain_seconds"] == 1.5
        _dataset, loaded = load_expanded(str(tmp_path), population_facet)
        assert loaded.get(entry.definition).maintain_seconds == 1.5

    @pytest.mark.parametrize("recover", [False, True])
    def test_format_1_manifest_rejected(self, tmp_path, population_facet,
                                        recover):
        import json
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        # rewrite to the legacy shape: no stale/group_index fields
        manifest["format"] = 1
        for item in manifest["views"]:
            for key in ("stale", "group_index", "maintain_seconds"):
                item.pop(key, None)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ViewError, match="unsupported catalog format"):
            load_expanded(str(tmp_path), population_facet, recover=recover)

    def test_unknown_format_rejected(self, tmp_path, population_facet):
        import json
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ViewError):
            load_expanded(str(tmp_path), population_facet)


class TestChecksumsAndRecovery:
    """Format 3: crash-safe writes, per-graph checksums, salvage paths."""

    @pytest.fixture()
    def saved(self, tmp_path, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        return tmp_path, population_facet, catalog

    def _corrupt_graph(self, tmp_path, iri_value) -> None:
        """Drop one line of the named graph ``iri_value`` from the dataset."""
        path = tmp_path / "expanded.nq"
        lines = path.read_text().splitlines()
        marker = f"<{iri_value}> ."
        victim = next(i for i, line in enumerate(lines)
                      if line.rstrip().endswith(marker))
        del lines[victim]
        path.write_text("\n".join(lines) + "\n")

    def test_manifest_records_per_graph_checksums(self, saved):
        tmp_path, facet, catalog = saved
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        sums = manifest["checksums"]
        file_hash = hashlib.sha256(
            (tmp_path / "expanded.nq").read_bytes()).hexdigest()
        assert sums["dataset"] == file_hash
        # one checksum per component graph: the base ("") plus every view
        expected_keys = {""} | {e.definition.iri.value for e in catalog}
        assert set(sums["graphs"]) == expected_keys

    @pytest.mark.parametrize("recover", [False, True])
    def test_v2_manifest_without_checksums_rejected(self, saved, recover):
        """Editing ``format`` must not switch checksum verification off."""
        tmp_path, facet, _catalog = saved
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 2
        del manifest["checksums"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ViewError, match="unsupported catalog format"):
            load_expanded(str(tmp_path), facet, recover=recover)

    def test_malformed_manifest_raises_typed_error(self, saved):
        tmp_path, facet, _catalog = saved
        (tmp_path / "catalog.json").write_text("{ this is not json")
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert "catalog.json" in str(exc.value)
        assert exc.value.path == str(tmp_path / "catalog.json")
        assert isinstance(exc.value, ViewError)  # still a catalog error

    def test_non_object_manifest_rejected(self, saved):
        tmp_path, facet, _catalog = saved
        (tmp_path / "catalog.json").write_text('["not", "an", "object"]')
        with pytest.raises(CatalogCorruptError):
            load_expanded(str(tmp_path), facet)

    def test_truncated_manifest_without_views_rejected(self, saved):
        tmp_path, facet, _catalog = saved
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["views"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert "no view table" in str(exc.value)

    def test_v3_manifest_without_checksum_table_rejected(self, saved):
        tmp_path, facet, _catalog = saved
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["checksums"]          # format stays 3: table required
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert "no checksum table" in str(exc.value)

    def test_bad_view_entry_raises_typed_error(self, saved):
        tmp_path, facet, _catalog = saved
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["views"][0]["groups"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert "bad view entry" in str(exc.value)

    def test_torn_view_graph_names_salvageable_views(self, saved):
        tmp_path, facet, catalog = saved
        entries = list(catalog)
        victim, survivor = entries[0].definition, entries[1].definition
        self._corrupt_graph(tmp_path, victim.iri.value)
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.salvageable == (survivor.label,)
        assert survivor.label in str(exc.value)
        assert exc.value.path == str(tmp_path / "expanded.nq")

    def test_recover_loads_intact_and_rebuilds_the_rest(self, saved):
        tmp_path, facet, catalog = saved
        entries = list(catalog)
        victim, survivor = entries[0].definition, entries[1].definition
        self._corrupt_graph(tmp_path, victim.iri.value)
        dataset, loaded = load_expanded(str(tmp_path), facet, recover=True)
        assert loaded.recovery.intact == (survivor.label,)
        assert loaded.recovery.rebuilding == (victim.label,)
        assert loaded.recovery.base_verified
        # untrusted content is dropped, not served
        assert len(loaded.graph_of(victim)) == 0
        assert [e.definition.mask for e in loaded.stale_views()] \
            == [victim.mask]
        loaded.refresh_stale()
        online = OnlineModule(loaded)
        for definition in (victim, survivor):
            query = AnalyticalQuery(facet, definition.mask)
            answer = online.answer(query)
            assert answer.used_view is not None
            assert answer.table.same_solutions(
                online.answer_from_base(query).table)

    def test_corrupt_base_graph_trusts_no_view(self, saved):
        tmp_path, facet, catalog = saved
        path = tmp_path / "expanded.nq"
        lines = path.read_text().splitlines()
        # base-graph lines are triples: exactly three terms before the dot
        victim = next(i for i, line in enumerate(lines)
                      if "sofos" not in line)
        del lines[victim]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.salvageable == ()
        dataset, loaded = load_expanded(str(tmp_path), facet, recover=True)
        assert not loaded.recovery.base_verified
        assert loaded.recovery.intact == ()
        assert set(loaded.recovery.rebuilding) == \
            {e.definition.label for e in catalog}
        assert len(loaded.stale_views()) == len(catalog)

    def test_crash_before_dataset_rename_keeps_old_generation(self, saved):
        tmp_path, facet, catalog = saved
        before = {name: (tmp_path / name).read_text()
                  for name in ("expanded.nq", "catalog.json")}
        catalog.refresh(next(iter(catalog)).definition)
        failpoints.arm("persistence.save.dataset_tmp", mode="crash")
        with pytest.raises(SimulatedCrash):
            save_expanded(catalog, str(tmp_path))
        for name, text in before.items():
            assert (tmp_path / name).read_text() == text
        _dataset, loaded = load_expanded(str(tmp_path), facet)
        assert loaded.stale_views() == []

    def test_kill_between_files_marks_only_unsaved_views_stale(self, saved):
        """The crash window the checksums exist for: new dataset file, old
        manifest.  A view rebuilt between the saves mints fresh blank
        nodes, so its recorded checksum no longer matches — recovery must
        rebuild exactly that view and trust the rest."""
        tmp_path, facet, catalog = saved
        entries = list(catalog)
        refreshed, untouched = entries[0].definition, entries[1].definition
        catalog.refresh(refreshed)         # base unchanged: stays fresh
        failpoints.arm("persistence.save.between_files", mode="crash")
        with pytest.raises(SimulatedCrash):
            save_expanded(catalog, str(tmp_path))

        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.salvageable == (untouched.label,)

        dataset, loaded = load_expanded(str(tmp_path), facet, recover=True)
        assert loaded.recovery.rebuilding == (refreshed.label,)
        assert loaded.recovery.intact == (untouched.label,)
        assert loaded.recovery.base_verified
        loaded.refresh_stale()
        online = OnlineModule(loaded)
        for definition in (refreshed, untouched):
            query = AnalyticalQuery(facet, definition.mask)
            answer = online.answer(query)
            assert answer.used_view is not None
            assert answer.table.same_solutions(
                online.answer_from_base(query).table)

    def test_crash_before_manifest_rename_is_detected(self, saved):
        tmp_path, facet, catalog = saved
        catalog.refresh(next(iter(catalog)).definition)
        failpoints.arm("persistence.save.manifest_tmp", mode="crash")
        with pytest.raises(SimulatedCrash):
            save_expanded(catalog, str(tmp_path))
        # dataset renamed, manifest not: the generations are mixed and the
        # checksums say so
        with pytest.raises(CatalogCorruptError):
            load_expanded(str(tmp_path), facet)
        _dataset, loaded = load_expanded(str(tmp_path), facet, recover=True)
        assert len(loaded.recovery.rebuilding) == 1
