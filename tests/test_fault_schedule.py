"""Maintenance under a seeded fault schedule, and a torn save.

For each demo dataset the stream test builds a catalog (three lattice
views) plus a :class:`ViewMaintainer`, then drives the deterministic
insert/delete update stream while a seeded schedule arms failpoints from
:data:`FAULT_POOL` — injected errors and simulated crashes landing
mid-patch, mid-rebuild-batch, and mid-bulk-op.  After every window the
harness clears the faults, runs one recovery synchronize, and asserts the
views are triple-for-triple equal (up to blank-node labels) to a twin
world maintained by clean rebuilds and the catalog's group indexes equal
to a scan of the view graphs; at the end of the stream the routed answers
are checked against the seed :class:`ReferenceExecutor` on the base
graph, and the hub's counters against what the harness saw.

The persistence scenario saves, rebuilds a view, kills the second save
between its two file renames, then recovers from the checksummed
manifest — only the unsaved view may come back stale.
"""

from __future__ import annotations

import random

import pytest

from repro.core import OnlineModule
from repro.cube import AnalyticalQuery, ViewLattice
from repro.datasets import load_dataset
from repro.errors import CatalogCorruptError, FailpointError, SimulatedCrash
from repro.obs import hub
from repro.rdf import Dataset
from repro.resilience import failpoints
from repro.sparql import QueryEngine, ReferenceExecutor, ResultTable
from repro.views import ViewCatalog, ViewMaintainer, load_expanded, \
    save_expanded
from repro.workload import UpdateStreamConfig, UpdateStreamGenerator

from tests.test_incremental_maintenance import assert_index_true, \
    assert_view_parity

#: Failpoints the schedule draws from — every point that can fire while a
#: maintenance window reconciles views (persistence points run in their
#: own scenario).
FAULT_POOL = (
    "maintenance.synchronize.window",
    "maintenance.patch.before_apply",
    "maintenance.patch.between_bulk_ops",
    "graph.add_ids_bulk",
    "graph.remove_ids_bulk",
    "catalog.refresh_stale",
    "catalog.materialize.view",
)

#: One in ``CLEAN_WINDOW_RATIO`` windows runs fault-free, so the stream
#: also covers the un-instrumented fast path.
CLEAN_WINDOW_RATIO = 4

WINDOWS = 12
SEED = 17


@pytest.fixture
def metrics_hub():
    """Metrics on for the whole test: counters must equal harness counts."""
    h = hub()
    h.reset()
    h.enable(tracing=False)
    failpoints.reset()
    yield h
    failpoints.reset()
    h.disable()
    h.reset()


def build_world(graph, facet, view_count: int = 3):
    catalog = ViewCatalog(Dataset.wrap(graph))
    lattice = ViewLattice(facet)
    views = [lattice.finest, lattice.apex]
    views += [v for v in lattice if v not in (lattice.finest, lattice.apex)]
    views = views[:view_count]
    for view in views:
        catalog.materialize(view)
    return catalog, views


def assert_reference_parity(catalog, base, facet, views) -> None:
    """Routed answers must match the seed reference executor on G."""
    online = OnlineModule(catalog)
    reference = ReferenceExecutor(base)
    engine = QueryEngine(base)
    for view in views:
        query = AnalyticalQuery(facet, view.mask)
        answer = online.answer(query)
        prepared = engine.prepare(query.to_select_query())
        want = ResultTable.from_bindings(
            prepared.ast.projected_variables(),
            reference.run(prepared.plan))
        assert answer.table.same_solutions(want), view.label


@pytest.mark.parametrize("name", ["dbpedia", "lubm", "swdf"])
def test_faulted_stream_recovers_to_parity(name, metrics_hub):
    loaded = load_dataset(name, "tiny")
    facet = loaded.facet()
    base = loaded.graph
    shadow = base.copy()

    catalog, views = build_world(base, facet)
    shadow_catalog, _ = build_world(shadow, facet)
    maintainer = ViewMaintainer(catalog)

    generator = UpdateStreamGenerator(base, UpdateStreamConfig(
        batches=WINDOWS, operations_per_batch=5, seed=SEED))
    rng = random.Random(SEED)

    crashes = 0
    reports = []
    for batch in generator.stream(apply=False):
        batch.apply_to(base)
        batch.apply_to(shadow)

        if rng.randrange(CLEAN_WINDOW_RATIO):
            failpoints.arm(rng.choice(FAULT_POOL),
                           rng.choice(("error", "error", "crash")))
        try:
            reports.append(maintainer.synchronize())
        except SimulatedCrash:
            crashes += 1
        except FailpointError:
            pass

        # "restart": clear the faults, reconcile whatever the failure
        # left stale or quarantined, and verify against the clean twin
        failpoints.reset()
        reports.append(maintainer.synchronize())
        assert not catalog.stale_views(), batch.index
        assert not catalog.quarantined_views(), batch.index

        shadow_catalog.refresh_stale()
        assert_view_parity(catalog, shadow_catalog, views)
        assert_index_true(catalog, views)

    assert_reference_parity(catalog, base, facet, views)
    maintainer.close()

    rollbacks = sum(report.rollbacks for report in reports)
    quarantines = sum(len(report.quarantined) for report in reports)
    # Lower bounds, not the seed's exact counts: the schedule must have
    # exercised each recovery path, whatever a maintenance rewrite does
    # to which window a given fault lands in.
    assert crashes >= 1
    assert rollbacks >= 1
    assert sum(len(report.rebuilt) for report in reports) >= 1
    # Increments sit on the same lines as the report fields, so the
    # registry must agree exactly with what the harness accumulated.
    counted = metrics_hub.metrics.counter_total
    assert counted("maintenance_rollbacks_total") == rollbacks
    assert counted("views_quarantine_events_total") == quarantines


def test_kill_between_renames_rebuilds_only_the_unsaved_view(tmp_path):
    """Kill-after-save: recover from a mixed-generation save directory."""
    loaded = load_dataset("dbpedia", "tiny")
    facet = loaded.facet()
    catalog, views = build_world(loaded.graph, facet)
    outdir = str(tmp_path)

    save_expanded(catalog, outdir)
    # one view rebuilds between the saves: fresh blank nodes mean the old
    # manifest's checksum no longer covers it
    refreshed = random.Random(SEED).choice(views)
    catalog.refresh(refreshed)
    failpoints.arm("persistence.save.between_files", mode="crash")
    try:
        with pytest.raises(SimulatedCrash):
            save_expanded(catalog, outdir)
    finally:
        failpoints.reset()

    with pytest.raises(CatalogCorruptError) as strict:
        load_expanded(outdir, facet)
    assert set(strict.value.salvageable) \
        == {v.label for v in views} - {refreshed.label}

    dataset, recovered = load_expanded(outdir, facet, recover=True)
    recovered.refresh_stale()
    recovery = recovered.recovery
    assert recovery.base_verified
    assert set(recovery.rebuilding) == {refreshed.label}
    assert len(recovery.intact) == len(views) - 1
    assert_reference_parity(recovered, dataset.default, facet, views)
