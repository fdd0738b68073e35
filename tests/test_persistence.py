"""Tests for N-Quads I/O and expanded-dataset persistence."""

import hashlib
import json

import pytest

from repro.core import OnlineModule, Sofos
from repro.cube import AnalyticalQuery
from repro.errors import CatalogCorruptError, ParseError, SimulatedCrash, \
    TermError, ViewError
from repro.rdf import Dataset, Literal, Namespace, Quad, Triple, \
    typed_literal
from repro.rdf.nquads import iter_nquads, parse_nquads, serialize_nquads
from repro.resilience import failpoints
from repro.views import GroupIndex, ViewMaintainer
from repro.views.persistence import load_expanded, save_expanded

from tests.conftest import build_population_graph
from tests.test_incremental_maintenance import assert_index_true

EX = Namespace("http://example.org/")
EX_X = Namespace("http://x/")


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

    def test_interleaved_graphs_load_as_per_quad_adds(self):
        # one bulk load per run of quads in one graph; ids in line order
        quads = [Quad(EX.a, EX.p, EX.b, None), Quad(EX.a, EX.p, EX.c, EX.g1),
                 Quad(EX.d, EX.q, EX.b, EX.g1), Quad(EX.e, EX.p, EX.a, None),
                 Quad(EX.a, EX.p, EX.b, None), Quad(EX.f, EX.q, EX.g, EX.g2),
                 Quad(EX.h, EX.p, EX.f, EX.g1)]
        text = "".join(
            " ".join(t.n3() for t in q if t is not None) + " .\n"
            for q in quads)
        want = Dataset()
        for quad in quads:
            want.add_quad(quad)
        got = parse_nquads(text)
        assert list(got.dictionary.terms()) == list(want.dictionary.terms())
        assert list(got.names()) == list(want.names()) == [EX.g1, EX.g2]
        for name in (None, EX.g1, EX.g2):
            assert got.graph(name).snapshot_ids() == \
                want.graph(name).snapshot_ids()

    @pytest.mark.parametrize("raw", ["\u2028", "\x85", "\x0b"])
    def test_text_and_per_line_parses_agree(self, raw):
        # a line ends at "\r", "\n" or "\r\n"; ``raw`` stands in a literal
        lines = [f'<http://x/a> <http://x/p> "a{raw}b" <http://x/g> .',
                 '<http://x/a> <http://x/q> "c" .',
                 '<http://x/a> <http://x/r> "d" <http://x/g> .']
        got = parse_nquads(f"{lines[0]}\r{lines[1]}\r\n{lines[2]}\n")
        want = Dataset()
        for line in lines:
            for quad in iter_nquads([line]):
                want.add_quad(quad)
        assert len(got) == 3
        assert set(got.quads()) == set(want.quads())
        assert list(got.dictionary.terms()) == list(want.dictionary.terms())
        assert got.graph(EX_X.g).value(s=EX_X.a, p=EX_X.p) \
            == Literal(f"a{raw}b")

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
            "build_seconds": 0.0, "base_version": 0})
        manifest_path.write_text(json.dumps(manifest))
        if any(e.mask == 2 for e in catalog):
            pytest.skip("selection already contains mask 2")
        with pytest.raises(ViewError):
            load_expanded(str(tmp_path), facet)


class TestManifestV2:
    """True staleness; a view is stored once, as its checksummed graph."""

    def test_manifest_records_no_index_copy(self, tmp_path,
                                            population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest = json.loads((tmp_path / "catalog.json").read_text())
        assert manifest["format"] == 3
        assert "base_triples" not in manifest
        assert len(manifest["views"]) == len(catalog)
        for item in manifest["views"]:
            assert item["stale"] is False
            for key in ("group_index", "nodes", "base_version"):
                assert key not in item

    def test_manifest_with_base_triples_still_loads(self, tmp_path,
                                                    population_facet):
        """Older saves wrote a ``base_triples`` field; no load reads it."""
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["base_triples"] = 1
        manifest_path.write_text(json.dumps(manifest))
        _dataset, loaded = load_expanded(str(tmp_path), population_facet)
        assert sorted(e.label for e in loaded) == \
            sorted(e.label for e in catalog)
        assert loaded.stale_views() == []

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

    @staticmethod
    def _apply_window(dataset, loaded):
        """One obs99 France/2019 window through a maintainer."""
        maintainer = ViewMaintainer(loaded, max_delta_fraction=1.0)
        dataset.default.update([
            Triple(EX.obs99, EX.ofCountry, EX.france),
            Triple(EX.obs99, EX.year, typed_literal(2019)),
            Triple(EX.obs99, EX.population, typed_literal(3)),
        ])
        return maintainer.synchronize()

    @staticmethod
    def _assert_views_true(loaded, facet):
        """Every view answers as the base graph does, and its index says
        what its graph stores."""
        online = OnlineModule(loaded)
        for entry in loaded:
            query = AnalyticalQuery(facet, entry.mask)
            answer = online.answer(query)
            base = online.answer_from_base(query).table
            assert answer.used_view is not None
            assert len(answer.table) == len(base), entry.label
            assert answer.table.same_solutions(base), entry.label
        assert_index_true(loaded, [entry.definition for entry in loaded])

    def test_loaded_catalog_scans_each_view_once_then_patches(
            self, tmp_path, population_facet, monkeypatch):
        """A loaded catalog reads each group index from its verified view
        graph: one scan per view, at first use, and then patches."""
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        save_expanded(catalog, str(tmp_path))
        dataset, loaded = load_expanded(str(tmp_path), population_facet)
        labels = sorted(entry.label for entry in loaded)
        scanned = []
        scan = GroupIndex.from_graph.__func__
        with monkeypatch.context() as patched:
            patched.setattr(GroupIndex, "from_graph", classmethod(
                lambda cls, view, g: scanned.append(view.label)
                or scan(cls, view, g)))
            for entry in loaded:
                index = loaded.group_index(entry.definition)
                assert len(index) == entry.groups
                assert loaded.group_index(entry.definition) is index
            report = self._apply_window(dataset, loaded)
        assert sorted(scanned) == labels
        assert len(report.patched) == len(labels)
        self._assert_views_true(loaded, population_facet)

    def test_edited_index_payload_cannot_corrupt_a_patch(
            self, tmp_path, population_facet):
        """A ``group_index`` entry in the manifest is ignored: what an
        edited (or older) manifest carries there never reaches a patch."""
        sofos = Sofos(build_population_graph(), population_facet)
        _selection, catalog = sofos.select_and_materialize("agg_values", k=2)
        kinds = {entry.mask: catalog.group_index(entry.definition).kind
                 for entry in catalog}
        save_expanded(catalog, str(tmp_path))
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        for item in manifest["views"]:
            item["group_index"] = {"kind": kinds[item["mask"]], "groups": []}
        manifest_path.write_text(json.dumps(manifest))
        dataset, loaded = load_expanded(str(tmp_path), population_facet)
        self._apply_window(dataset, loaded)
        self._assert_views_true(loaded, population_facet)

    def test_refresh_invalidates_restored_index(self, tmp_path,
                                                population_facet):
        """Regression: a rebuild mints fresh group nodes, so an index of
        the loaded graphs must never be used past it — patches through the
        orphaned node ids would corrupt the view silently."""
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
        # The rebuild wrote indexes that describe the rebuilt graphs.
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
            seconds=1.5)
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

    def _corrupt_graph(self, tmp_path, iri_value, tear=False) -> None:
        """Drop one line of the named graph ``iri_value`` from the dataset
        (with ``tear``, cut it in half instead)."""
        path = tmp_path / "expanded.nq"
        lines = path.read_text().splitlines()
        marker = f"<{iri_value}> ."
        victim = next(i for i, line in enumerate(lines)
                      if line.rstrip().endswith(marker))
        if tear:
            lines[victim] = lines[victim][:len(lines[victim]) // 2]
        else:
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

    def test_torn_view_line_names_salvageable_views(self, saved):
        """A line cut in half loses its quad, so its view's checksum names
        the damage and the other view stays salvageable."""
        tmp_path, facet, catalog = saved
        entries = list(catalog)
        victim, survivor = entries[0].definition, entries[1].definition
        self._corrupt_graph(tmp_path, victim.iri.value, tear=True)
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.salvageable == (survivor.label,)
        assert exc.value.path == str(tmp_path / "expanded.nq")

    def test_one_pass_load_is_a_line_by_line_load(self, saved):
        """The lenient parse interns terms in file order and fills each
        graph in one bulk insert: the same ids and graphs as adding the
        surviving quads one line at a time, torn and junk lines dropped
        alike, and the same salvage verdict."""
        from repro.views.persistence import _parse_dataset_lenient
        tmp_path, facet, catalog = saved
        entries = list(catalog)
        victim, survivor = entries[0].definition, entries[1].definition
        self._corrupt_graph(tmp_path, victim.iri.value, tear=True)
        path = tmp_path / "expanded.nq"
        path.write_text("# saved\n\nnot a quad .\n"
                        '"a" <http://x/p> <http://x/b> .\n' + path.read_text())
        text = path.read_text()

        expected = Dataset()
        for line in text.split("\n"):
            try:
                for quad in iter_nquads([line]):
                    expected.add_quad(quad)
            except (ParseError, TermError):
                continue
        got = _parse_dataset_lenient(text)
        assert got.dictionary.id_terms() == expected.dictionary.id_terms()
        assert list(got.names()) == list(expected.names())
        for name in (None, *expected.names()):
            assert sorted(got.graph(name).snapshot_ids()) \
                == sorted(expected.graph(name).snapshot_ids())
        with pytest.raises(CatalogCorruptError) as exc:
            load_expanded(str(tmp_path), facet)
        assert exc.value.salvageable == (survivor.label,)

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
