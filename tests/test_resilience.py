"""Fault-injected upkeep: transactional windows, quarantine, auditing.

Every maintenance primitive is driven into injected failures via the
:mod:`repro.resilience.failpoints` registry and must come out whole:
a patch that dies mid-window rolls the view graph back to its pre-patch
state, a refresh that dies restores its snapshot, and after recovery the
views are triple-for-triple equal (modulo blank-node labels) to a twin
world maintained by clean rebuilds.  The quarantine path is exercised
end to end — corrupt view → auditor detection → degraded base-graph
serving → rebuild on the next maintenance cycle — and the reasoned
rebuild fallbacks are pinned to their exact report strings.
"""

import pytest

from repro.core import OnlineModule, Sofos
from repro.cube import AnalyticalFacet, AnalyticalQuery, ViewDefinition
from repro.errors import FailpointError, ReproError, SimulatedCrash, \
    ViewError
from repro.rdf import Dataset, Literal, Triple, typed_literal
from repro.rdf.changelog import ChangeLog
from repro.rdf.namespace import SOFOS
from repro.resilience import ConsistencyAuditor, failpoints
from repro.views import ViewCatalog, ViewMaintainer
from repro.views import maintenance as maintenance_module

from tests.conftest import EX, build_population_graph, \
    build_population_facet
from tests.test_incremental_maintenance import OPTIONAL_FACET_QUERY, \
    PEAK_FACET_QUERY, assert_index_true, assert_view_parity, \
    group_signatures, standard_mutation, twin_worlds


@pytest.fixture(autouse=True)
def clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture
def population_facet():
    return build_population_facet()


class TestTransactionalPatch:
    """A patch window is all-or-nothing under injected faults."""

    @pytest.mark.parametrize("point", [
        "maintenance.patch.before_apply",
        "maintenance.patch.between_bulk_ops",
        "graph.add_ids_bulk",
    ])
    def test_transient_fault_rolls_back_then_retries(self, point,
                                                     population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        failpoints.arm(point)              # count=1: one window dies
        report = maintainer.synchronize()
        assert report.rollbacks == 1
        assert len(report.patched) == len(views)
        assert report.rebuilt == []
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        assert_index_true(cat1, views)

    def test_persistent_fault_falls_back_to_rebuild(self, population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11, 0b01])
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        failpoints.arm("maintenance.patch.between_bulk_ops", count=None)
        report = maintainer.synchronize()
        # two attempts per view, both views exhausted their retries
        assert report.rollbacks == 4
        assert report.patched == []
        assert [v.action for v in report.views] == ["rebuilt", "rebuilt"]
        for v in report.views:
            assert v.reason == (
                "patch window rolled back after 2 attempts (injected fault "
                "at failpoint 'maintenance.patch.between_bulk_ops')")
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        assert cat1.stale_views() == []

    def test_crash_mid_patch_leaves_view_graph_intact(self,
                                                      population_facet,
                                                      monkeypatch):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        view = views[0]
        monkeypatch.setattr(maintenance_module, "PATCH_RETRIES", 0)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        before = group_signatures(cat1.graph_of(view))
        standard_mutation(g1)
        standard_mutation(g2)
        failpoints.arm("maintenance.patch.between_bulk_ops", mode="crash")
        with pytest.raises(SimulatedCrash):
            maintainer.synchronize()
        # the half-applied window was undone and the view is still stale
        assert group_signatures(cat1.graph_of(view)) == before
        assert [e.definition.mask for e in cat1.stale_views()] == [view.mask]
        assert_index_true(cat1, views)
        # after the "restart", plain maintenance converges to the twin
        failpoints.reset()
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"]
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)


class TestTransactionalRefresh:
    """refresh / refresh_stale / materialize_all restore on failure."""

    def test_refresh_failure_restores_snapshot_and_entry(self,
                                                         population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        view = views[0]
        standard_mutation(g1)
        standard_mutation(g2)
        before = group_signatures(cat1.graph_of(view))
        version_before = cat1.get(view).base_version
        failpoints.arm("graph.add_ids_bulk")   # dies while repopulating
        with pytest.raises(FailpointError):
            cat1.refresh(view)
        assert group_signatures(cat1.graph_of(view)) == before
        assert cat1.get(view).base_version == version_before
        assert [e.definition.mask for e in cat1.stale_views()] == [view.mask]
        assert_index_true(cat1, views)
        cat1.refresh(view)                     # failpoint auto-disarmed
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)

    def test_refresh_stale_failure_restores_every_view(self,
                                                       population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11, 0b01])
        standard_mutation(g1)
        standard_mutation(g2)
        before = {v.mask: group_signatures(cat1.graph_of(v)) for v in views}
        failpoints.arm("graph.add_ids_bulk", skip=1)  # second bulk add dies
        with pytest.raises(FailpointError):
            cat1.refresh_stale()
        for view in views:
            assert group_signatures(cat1.graph_of(view)) == before[view.mask]
        assert {e.definition.mask for e in cat1.stale_views()} \
            == {v.mask for v in views}
        assert_index_true(cat1, views)
        cat1.refresh_stale()
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        assert_index_true(cat1, views)

    def test_materialize_all_failure_leaves_no_partial_views(self,
                                                             population_facet):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        views = [ViewDefinition(population_facet, 0b11),
                 ViewDefinition(population_facet, 0b01)]
        failpoints.arm("catalog.materialize.view", skip=1)
        with pytest.raises(FailpointError):
            catalog.materialize_all(views)
        assert list(catalog) == []
        assert all(catalog.dataset.get_graph(v.iri) is None for v in views)
        # a clean retry starts from scratch and succeeds
        catalog.materialize_all(views)
        assert len(list(catalog)) == 2
        assert catalog.stale_views() == []


class TestQuarantineAndDegradedServing:
    def _world(self, facet):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        view = ViewDefinition(facet, 0b11)
        catalog.materialize(view)
        return graph, catalog, view

    def test_quarantined_view_is_not_routed(self, population_facet):
        graph, catalog, view = self._world(population_facet)
        online = OnlineModule(catalog)
        query = AnalyticalQuery(population_facet, 0b11)
        served = online.answer(query)
        assert served.used_view == view.label and not served.degraded

        catalog.quarantine(view, "test says so")
        assert catalog.is_quarantined(view)
        assert catalog.quarantine_reason(view) == "test says so"
        degraded = online.answer(query)
        assert degraded.used_view is None
        assert degraded.degraded
        assert degraded.table.same_solutions(served.table)

        assert catalog.clear_quarantine(view)
        again = online.answer(query)
        assert again.used_view == view.label and not again.degraded

    def test_maintenance_rebuilds_quarantined_views(self, population_facet):
        graph, catalog, view = self._world(population_facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        catalog.quarantine(view, "audit found drift")
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"]
        assert report.views[0].reason == "quarantined: audit found drift"
        assert not catalog.is_quarantined(view)
        assert catalog.stale_views() == []

    def test_failed_rebuild_quarantines_until_next_cycle(self,
                                                         population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        view = views[0]
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        online = OnlineModule(cat1, policy="deferred")
        # a truncated log forces the rebuild path ...
        snapshot = list(g1)
        g1.clear()
        g1.update(snapshot)
        standard_mutation(g1)
        standard_mutation(g2)
        # ... and the rebuild itself keeps dying
        failpoints.arm("catalog.refresh_stale", count=None)
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["quarantined"]
        assert report.views[0].reason == "change log truncated"
        assert cat1.quarantine_reason(view) == (
            "rebuild failed: injected fault at failpoint "
            "'catalog.refresh_stale'")
        # degraded-but-correct serving while quarantined
        query = AnalyticalQuery(population_facet, 0b11)
        answer = online.answer(query)
        assert answer.used_view is None and answer.degraded
        assert answer.table.same_solutions(
            online.answer_from_base(query).table)
        # the fault clears; the next cycle rebuilds and serving recovers
        failpoints.reset()
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"]
        assert report.views[0].reason.startswith("quarantined: rebuild "
                                                 "failed:")
        assert not cat1.is_quarantined(view)
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        healed = online.answer(query)
        assert healed.used_view == view.label and not healed.degraded


class TestConsistencyAuditor:
    def _sofos(self):
        sofos = Sofos(build_population_graph(), build_population_facet(),
                      maintenance="incremental")
        sofos.select_and_materialize("agg_values", k=2)
        return sofos

    def test_audit_requires_views(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        with pytest.raises(ReproError):
            sofos.audit()

    def test_clean_catalog_audits_clean(self):
        sofos = self._sofos()
        report = sofos.audit()
        assert report.clean
        assert len(report.ok) == 2
        assert report.quarantined == []
        assert all(r.groups_checked > 0 for r in report.ok)

    def test_stale_views_are_skipped_not_audited(self):
        sofos = self._sofos()
        sofos.dataset.default.add(
            Triple(EX.obs8, EX.ofCountry, EX.france))
        report = sofos.audit()
        assert [r.status for r in report.results] == ["skipped", "skipped"]
        assert all(r.issues == ("stale (pending maintenance)",)
                   for r in report.results)

    def test_tampered_view_is_detected_quarantined_and_healed(self):
        sofos = self._sofos()
        catalog = sofos.catalog
        view = next(iter(catalog)).definition
        vgraph = catalog.graph_of(view)
        victim = next(iter(vgraph.triples(p=SOFOS.groupCount)))
        assert vgraph.discard(victim)

        report = sofos.audit()
        assert not report.clean
        assert report.quarantined == [view.label]
        issues = "; ".join(report.corrupt[0].issues)
        assert "sofos:groupCount" in issues
        assert catalog.quarantine_reason(view) == issues

        # serving degrades to a correct base-graph answer
        query = AnalyticalQuery(sofos.facet, view.mask)
        answer = sofos.answer(query)
        assert answer.degraded
        assert answer.table.same_solutions(
            sofos.answer_from_base(query).table)

        # the next maintenance cycle rebuilds it; the audit comes back clean
        maintained = sofos.maintainer.synchronize()
        assert [v.action for v in maintained.views] == ["rebuilt"]
        healed = sofos.answer(query)
        assert healed.used_view == view.label and not healed.degraded
        assert sofos.audit().clean

    def test_wrong_aggregate_value_is_reported(self):
        sofos = self._sofos()
        catalog = sofos.catalog
        view = next(iter(catalog)).definition
        vgraph = catalog.graph_of(view)
        victim = next(iter(vgraph.triples(p=SOFOS.measure)))
        vgraph.discard(victim)
        vgraph.add(Triple(victim.s, victim.p, typed_literal(999_999)))
        report = sofos.audit(quarantine=False)
        issues = "; ".join(report.corrupt[0].issues)
        assert "stored aggregate" in issues
        assert "999999" in issues
        assert catalog.quarantined_views() == []   # quarantine=False

    def test_missing_group_detected_even_when_sampling(self):
        sofos = self._sofos()
        catalog = sofos.catalog
        view = next(iter(catalog)).definition
        vgraph = catalog.graph_of(view)
        node = next(iter(vgraph.triples(p=SOFOS.view))).s
        vgraph.remove(list(vgraph.triples(s=node)))
        report = sofos.audit(sample_groups=1)
        corrupt = report.corrupt[0]
        assert corrupt.groups_checked <= 1
        # the group-count leg always runs in full, so a vanished group
        # cannot hide from a sampled audit
        assert any("group count mismatch" in issue
                   for issue in corrupt.issues)

    def test_drifted_group_index_is_detected(self, population_facet):
        (g1, cat1, views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        report = maintainer.synchronize()
        assert len(report.patched) == 1
        auditor = ConsistencyAuditor(cat1)
        assert auditor.audit_view(cat1.get(views[0])).ok
        assert_index_true(cat1, views)     # an audit leaves it alone
        state = next(iter(cat1.group_index(views[0]).groups.values()))
        state.count_id = state.node_id     # an id that is not the count
        result = auditor.audit_view(cat1.get(views[0]))
        assert result.status == "corrupt"
        assert result.issues == (
            "cached group index drifted from the view graph",)


class TestMaintainerClose:
    def test_close_is_idempotent_and_unsubscribes(self, population_facet):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize(ViewDefinition(population_facet, 0b11))
        baseline = len(graph._live_logs())
        for _ in range(3):
            maintainer = ViewMaintainer(catalog)
            assert len(graph._live_logs()) == baseline + 1
            maintainer.close()
            maintainer.close()             # second close is a no-op
            assert len(graph._live_logs()) == baseline
        with pytest.raises(ViewError):
            maintainer.synchronize()

    def test_close_unsubscribes_even_when_log_close_fails(
            self, population_facet, monkeypatch):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize(ViewDefinition(population_facet, 0b11))
        baseline = len(graph._live_logs())
        maintainer = ViewMaintainer(catalog)

        def explode(self):
            raise RuntimeError("log refused to close")

        monkeypatch.setattr(ChangeLog, "close", explode)
        with pytest.raises(RuntimeError):
            maintainer.close()
        assert len(graph._live_logs()) == baseline
        maintainer.close()                 # already closed: no second raise


class TestVerbatimRebuildReasons:
    """Every reasoned fallback is pinned to its exact report string."""

    def _world(self, facet, views=(0b11,)):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        for mask in views:
            catalog.materialize(ViewDefinition(facet, mask))
        return graph, catalog

    def test_rebuild_forced(self, population_facet):
        graph, catalog = self._world(population_facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        standard_mutation(graph)
        report = maintainer.synchronize(force_rebuild=True)
        assert [v.reason for v in report.views] == ["rebuild forced"]

    def test_change_log_truncated(self, population_facet):
        graph, catalog = self._world(population_facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        snapshot = list(graph)
        graph.clear()
        graph.update(snapshot[:-2])
        report = maintainer.synchronize()
        assert report.truncated
        assert [v.reason for v in report.views] == ["change log truncated"]

    def test_delta_exceeds_fraction_threshold(self, population_facet):
        graph, catalog = self._world(population_facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=0.05)
        standard_mutation(graph)
        report = maintainer.synchronize()
        size = report.inserted + report.deleted
        assert [v.reason for v in report.views] == [
            f"delta of {size} triples exceeds 5% of the base graph"]

    def test_view_out_of_sync_with_window(self, population_facet):
        graph, catalog = self._world(population_facet)
        standard_mutation(graph)           # stale before any subscription
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        report = maintainer.synchronize()
        assert [v.reason for v in report.views] == [
            "view out of sync with the change window"]

    def test_facet_shape_not_delta_evaluable(self):
        facet = AnalyticalFacet.from_query("opt", OPTIONAL_FACET_QUERY)
        graph, catalog = self._world(facet, views=(0b1,))
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        graph.add(Triple(EX.obs1, EX.population, typed_literal(1000)))
        report = maintainer.synchronize()
        assert [v.reason for v in report.views] == [
            "facet shape is not delta-evaluable"]

    def test_minmax_under_deletions(self):
        facet = AnalyticalFacet.from_query("peak", PEAK_FACET_QUERY)
        graph, catalog = self._world(facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        graph.remove([Triple(EX.obs2, EX.ofCountry, EX.france)])
        report = maintainer.synchronize()
        assert [v.reason for v in report.views] == [
            "MIN/MAX cannot be patched under deletions"]

    def test_delta_not_incrementally_evaluable(self, population_facet):
        # a new row whose SUM operand is not a number poisons its group's
        # Δ entry: the stored measure would be unbound, so no patch
        graph, catalog = self._world(population_facet)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        graph.add(Triple(EX.obs1, EX.population, Literal("n/a")))
        report = maintainer.synchronize()
        assert [v.reason for v in report.views] == [
            "delta not incrementally evaluable"]

    def test_group_index_inconsistent_with_delta(self, population_facet):
        # the apex: one group, which any window changes
        graph, catalog = self._world(population_facet, views=(0,))
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        view = next(iter(catalog)).definition
        catalog.group_index(view)          # held, and true so far
        vgraph = catalog.graph_of(view)    # ... until the graph is tampered
        assert vgraph.discard(next(iter(vgraph.triples(p=SOFOS.groupCount))))
        standard_mutation(graph)
        report = maintainer.synchronize()
        assert [v.reason for v in report.views] == [
            "group index inconsistent with delta"]
        assert catalog.stale_views() == []
        assert_index_true(catalog, [view])
