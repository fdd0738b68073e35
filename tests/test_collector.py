"""The collector pause: one allocation burst, CPython's cyclic GC off.

:mod:`repro.collector` pauses the collector for an answer, a maintenance
window, a profile, a view build, a load and a dataset generator.  These tests hold its entry/exit rules (nesting, a host that
already switched the collector off, exits by exception and by a
simulated crash), check that the library's hot loops really run paused,
and pin the invariant that makes the pause safe: a burst leaves no
cyclic garbage behind, so skipping the collector's walk loses nothing.
"""

from __future__ import annotations

import gc
import hashlib
import tempfile

import pytest

from repro.collector import collecting, pause, resume
from repro.core import Sofos
from repro.datasets import (DBPediaConfig, LUBMConfig, SWDFConfig,
                            generate_dbpedia, generate_lubm, generate_swdf,
                            load_dataset)
from repro.errors import FailpointError, SimulatedCrash, ViewError
from repro.rdf import Graph
from repro.resilience import failpoints
from repro.sparql.executor import Executor
from repro.sparql.grouptable import GroupTable
from repro.views.persistence import load_expanded, save_expanded
from repro.workload import (UpdateStreamConfig, UpdateStreamGenerator,
                            render_analytical_query)

from tests.conftest import on_store


@pytest.fixture(autouse=True)
def clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


def _window(graph: Graph, seed: int) -> None:
    UpdateStreamGenerator(graph, UpdateStreamConfig(
        operations_per_batch=5, seed=seed)).next_batch().apply_to(graph)


def _sofos(store: str = "dict", name: str = "lubm") -> Sofos:
    dataset = load_dataset(name, "tiny")
    sofos = Sofos(on_store(dataset.graph, store), dataset.facet(),
                  maintenance="incremental")
    sofos.select_and_materialize("agg_values", k=3)
    return sofos


def _burst(body):
    """``body()`` as one burst, in the statements the library uses."""
    owner = collecting() and pause()
    try:
        return body()
    finally:
        if owner:
            resume()


class TestEntryAndExit:
    def test_a_burst_pauses_and_restores(self):
        assert gc.isenabled()
        assert _burst(gc.isenabled) is False
        assert gc.isenabled()

    def test_nested_bursts_restore_the_collector_once(self, monkeypatch):
        calls = []
        real_enable, real_disable = gc.enable, gc.disable
        monkeypatch.setattr(gc, "enable",
                            lambda: (calls.append("enable"), real_enable()))
        monkeypatch.setattr(gc, "disable",
                            lambda: (calls.append("disable"),
                                     real_disable()))
        inner = _burst(lambda: _burst(
            lambda: (_burst(gc.isenabled), gc.isenabled())))
        assert inner == (False, False)
        assert gc.isenabled()
        assert calls == ["disable", "enable"]

    def test_a_host_pause_is_left_alone(self, monkeypatch):
        gc.disable()
        try:
            monkeypatch.setattr(gc, "enable", pytest.fail)
            monkeypatch.setattr(gc, "disable", pytest.fail)
            assert _burst(lambda: _burst(gc.isenabled)) is False
            assert not gc.isenabled()
        finally:
            monkeypatch.undo()
            gc.enable()

    def test_an_exception_restores_the_collector(self):
        def fail():
            raise KeyError("x")
        with pytest.raises(KeyError):
            _burst(lambda: _burst(fail))
        assert gc.isenabled()

    def test_the_outermost_exit_collects_a_full_young_generation(
            self, monkeypatch):
        collected = []
        monkeypatch.setattr(gc, "collect",
                            lambda generation=2: collected.append(generation))
        threshold = gc.get_threshold()[0]
        held = []

        def allocate():
            held.extend([] for _ in range(2 * threshold))
            return list(collected)      # an inner exit never collects
        assert _burst(lambda: _burst(allocate)) == []
        assert collected == [0]

    def test_a_small_burst_leaves_the_young_generation_alone(
            self, monkeypatch):
        gc.collect()
        collected = []
        monkeypatch.setattr(gc, "collect",
                            lambda generation=2: collected.append(generation))
        _burst(lambda: [[] for _ in range(10)])
        assert collected == []


class TestSynchronizeRestores:
    def test_an_error_inside_a_window(self):
        sofos = _sofos()
        _window(sofos.dataset.default, 1)
        failpoints.arm("maintenance.synchronize.window")
        with pytest.raises(FailpointError):
            sofos.maintain()
        assert gc.isenabled()

    def test_a_simulated_crash_inside_a_window(self):
        sofos = _sofos()
        _window(sofos.dataset.default, 1)
        failpoints.arm("maintenance.patch.before_apply", mode="crash")
        with pytest.raises(SimulatedCrash):
            sofos.maintain()
        assert gc.isenabled()

    def test_a_closed_maintainer(self):
        sofos = _sofos()
        maintainer = sofos.maintainer
        maintainer.close()
        with pytest.raises(ViewError):
            maintainer.synchronize()
        assert gc.isenabled()


class TestHotLoopsRunPaused:
    """A spy in the executor's entry, the group fold and the graph's
    writes records whether the collector was on at each call."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen: list[bool] = []
        for cls, name in ((Executor, "run_ids"), (GroupTable, "fold"),
                          (Graph, "add"), (Graph, "add_ids_bulk")):
            real = getattr(cls, name)

            def spy(*args, _real=real, **kwargs):
                seen.append(gc.isenabled())
                return _real(*args, **kwargs)
            monkeypatch.setattr(cls, name, spy)
        return seen

    def _paused(self, seen: list[bool], run) -> None:
        seen.clear()
        run()
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_answers_windows_profiles_and_generators(self, seen):
        dataset = load_dataset("lubm", "tiny")
        graph = dataset.graph.copy()
        sofos = Sofos(graph, dataset.facet(), maintenance="incremental")
        self._paused(seen, sofos.profile)
        selection = sofos.select("agg_values", k=3)
        self._paused(seen, lambda: sofos.materialize(selection))
        query = sofos.generate_workload(1)[0]
        self._paused(seen, lambda: sofos.answer(query))
        self._paused(seen, lambda: sofos.answer_from_base(query))
        self._paused(seen, lambda: sofos.answer_sparql(
            render_analytical_query(query)))
        _window(graph, 1)
        self._paused(seen, sofos.maintain)
        _window(graph, 2)
        self._paused(seen, sofos.refresh_views)
        self._paused(seen, lambda: generate_dbpedia(DBPediaConfig(
            countries=3, seed=1)))
        self._paused(seen, lambda: generate_lubm(LUBMConfig(
            universities=1, departments_min=1, departments_max=1, seed=1)))
        self._paused(seen, lambda: generate_swdf(SWDFConfig(
            authors_pool=5, organizations=2, seed=1)))


class TestGeneratorsAreUnchanged:
    """A generator runs paused now; its graph must not move.  The
    digests are of the dictionary's terms in id order and the sorted id
    triples, as the per-triple ``add`` without the pause produced them."""

    @pytest.mark.parametrize("name, triples, digest", [
        ("dbpedia", 1248, "c2d30a92bb155963"),
        ("lubm", 11659, "a741b43d919f4573"),
        ("swdf", 2432, "9d42afbcfe1ef12c"),
    ])
    def test_small_scale_digest(self, name, triples, digest):
        graph = load_dataset(name, "small").graph
        h = hashlib.sha256()
        h.update("\n".join(t.n3() for t in graph.dictionary.terms())
                 .encode())
        h.update(repr(sorted(graph.snapshot_ids())).encode())
        assert (len(graph), h.hexdigest()[:16]) == (triples, digest)


@pytest.mark.parametrize("store", ["dict", "columnar"])
class TestBurstsLeaveNoCycles:
    """The invariant the pause rests on: with the collector off, every
    burst frees what it drops by reference counting alone."""

    @pytest.fixture
    def paused(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["lubm", "dbpedia"])
    def test_answers_and_windows(self, store, name, paused):
        sofos = _sofos(store, name)
        queries = sofos.generate_workload(12)
        texts = [render_analytical_query(q) for q in queries]
        graph = sofos.dataset.default
        assert gc.collect() == 0
        for query in queries:
            sofos.answer(query)
        assert gc.collect() == 0
        for query in queries:
            sofos.answer_from_base(query)
        assert gc.collect() == 0
        for text in texts:
            sofos.answer_sparql(text)
        assert gc.collect() == 0
        _window(graph, 1)
        report = sofos.maintain()
        assert {v.action for v in report.views} == {"patched"}
        assert gc.collect() == 0
        _window(graph, 2)
        assert sofos.refresh_views()
        assert gc.collect() == 0

    def test_a_load(self, store, paused):
        sofos = _sofos(store)
        with tempfile.TemporaryDirectory() as directory:
            save_expanded(sofos.catalog, directory)
            gc.collect()
            loaded = load_expanded(directory, sofos.facet)
            assert gc.collect() == 0
        del loaded

    def test_explain_and_a_dropped_sofos(self, store, paused):
        # An explain's span tree, and a whole Sofos with its engines and
        # graphs, are freed by reference counting too: a span holds no
        # link to its parent, and an Executor's id memos close over its
        # dictionary, not over the executor.
        sofos = _sofos(store)
        graph = sofos.dataset.default
        query = sofos.generate_workload(1)[0]
        gc.collect()
        sofos.explain(query)
        assert gc.collect() == 0
        sofos.explain(render_analytical_query(query))
        assert gc.collect() == 0
        sofos.answer(query)
        sofos.answer_from_base(query)
        del sofos
        assert gc.collect() == 0
        del graph
        assert gc.collect() == 0

    def test_dropped_views_and_a_model_comparison(self, store, paused):
        # drop_views, and compare_cost_models (which drops every model's
        # views in turn), free the view engines, their plan caches and
        # their graphs by reference counting.
        sofos = _sofos(store)
        queries = sofos.generate_workload(5)
        for query in queries:
            sofos.answer(query)
        assert gc.collect() == 0
        sofos.drop_views()
        assert gc.collect() == 0
        sofos.compare_cost_models(["agg_values", "triples"], k=2,
                                  workload=queries)
        assert gc.collect() == 0
