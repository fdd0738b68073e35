"""Incremental view maintenance: delta evaluation, patching, and parity.

The backbone is a *twin-world* discipline: two identical graphs receive
the same update streams, one catalog is maintained incrementally through
a :class:`ViewMaintainer`, the other by full ``refresh_stale()`` rebuilds
— and after every window the view graphs must be triple-for-triple equal
up to blank-node labels (group birth, death, and AVG's (sum, count)
roll-up exactness included), with routed answers matching the seed
:class:`ReferenceExecutor` on the base graph.
"""

from collections import Counter

import pytest

from repro.core import OnlineModule, ServingPlans, Sofos
from repro.cube import AnalyticalFacet, AnalyticalQuery, ViewDefinition, \
    ViewLattice
from repro.errors import ReproError
from repro.rdf import Dataset, Graph, Namespace, Triple, typed_literal
from repro.sparql import QueryEngine, ReferenceExecutor, ResultTable
from repro.sparql.delta import DeltaEvaluator, compile_delta_plan
from repro.views import GroupIndex, ViewCatalog, ViewMaintainer
from repro.workload import UpdateStreamConfig, UpdateStreamGenerator, \
    render_analytical_query

from tests.conftest import POPULATION_AVG_FACET_QUERY, \
    POPULATION_FACET_QUERY, build_population_graph

EX = Namespace("http://example.org/")

PEAK_FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?lang ?year (MAX(?pop) AS ?peak) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?lang ?year
"""

FILTERED_FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?lang ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang FILTER(?pop > 10)
} GROUP BY ?lang ?year
"""

OPTIONAL_FACET_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?lang (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:population ?pop .
  ?c ex:language ?lang .
  OPTIONAL { ?c ex:name ?name }
} GROUP BY ?lang
"""


def group_signatures(graph: Graph) -> Counter:
    """Multiset of per-group (p, o) signatures: equality modulo bnode labels."""
    by_node: dict = {}
    for t in graph:
        by_node.setdefault(t.s, []).append((t.p, t.o))
    return Counter(frozenset(po) for po in by_node.values())


def assert_view_parity(catalog_a: ViewCatalog, catalog_b: ViewCatalog,
                       views) -> None:
    for view in views:
        got = group_signatures(catalog_a.graph_of(view))
        want = group_signatures(catalog_b.graph_of(view))
        assert got == want, (view.label, got - want, want - got)


def assert_index_true(catalog: ViewCatalog, views) -> None:
    """The catalog's group index says exactly what the view graph stores."""
    def states(index):
        return {key: (s.node_id, s.count, s.value, s.value_id, s.count_id)
                for key, s in index.groups.items()}

    for view in views:
        scanned = GroupIndex.from_graph(view, catalog.graph_of(view))
        assert states(catalog.group_index(view)) == states(scanned), \
            view.label


def twin_worlds(facet: AnalyticalFacet, graph_builder, views=None):
    """Two identical worlds over ``facet``: (incremental, rebuild) sides."""
    worlds = []
    for _ in range(2):
        graph = graph_builder()
        catalog = ViewCatalog(Dataset.wrap(graph))
        lattice = ViewLattice(facet)
        selected = list(lattice) if views is None else [
            ViewDefinition(facet, mask) for mask in views]
        for view in selected:
            catalog.materialize(view)
        worlds.append((graph, catalog, selected))
    return worlds


def standard_mutation(graph: Graph) -> None:
    """Insert into existing + brand-new groups, delete a group's last row."""
    graph.update([
        Triple(EX.obs8, EX.ofCountry, EX.france),
        Triple(EX.obs8, EX.year, typed_literal(2019)),
        Triple(EX.obs8, EX.population, typed_literal(5)),
        # a new country + language + observation: a row whose triples
        # are all new (every term but the one of its last inserted
        # pattern has to cancel it)
        Triple(EX.obs9, EX.ofCountry, EX.spain),
        Triple(EX.obs9, EX.year, typed_literal(2021)),
        Triple(EX.obs9, EX.population, typed_literal(47)),
        Triple(EX.spain, EX.language, EX.spanish),
    ])
    graph.remove([
        Triple(EX.obs5, EX.ofCountry, EX.canada),
        Triple(EX.obs5, EX.year, typed_literal(2018)),
        Triple(EX.obs5, EX.population, typed_literal(36)),
        # kills the (italian, 2019) group outright
        Triple(EX.obs7, EX.ofCountry, EX.italy),
    ])


class TestDeltaEvaluator:
    def brute_force(self, facet, graph, mutate):
        """Per-group (Δcount, Δmeasure) by recomputing before/after."""
        def state():
            engine = QueryEngine(graph)
            table = engine.query(facet.binding_query())
            columns = {v: i for i, v in enumerate(table.variables)}
            counts: Counter = Counter()
            sums: Counter = Counter()
            measure = facet.aggregate.operand.var
            for row in table.rows:
                key = tuple(row[columns[v]]
                            for v in facet.grouping_variables)
                counts[key] += 1
                sums[key] += row[columns[measure]].to_python()
            return counts, sums

        counts_before, sums_before = state()
        mutate(graph)
        counts_after, sums_after = state()
        expected = {}
        for key in set(counts_before) | set(counts_after):
            dcount = counts_after[key] - counts_before[key]
            dsum = sums_after[key] - sums_before[key]
            if dcount or dsum:
                expected[key] = (dcount, dsum)
        return expected

    def test_adjustments_match_brute_force(self, population_facet):
        graph = build_population_graph()
        engine = QueryEngine(graph)
        log = graph.subscribe()
        expected = self.brute_force(population_facet, graph,
                                    standard_mutation)
        delta = log.drain()
        evaluator = DeltaEvaluator(engine.executor,
                                   compile_delta_plan(population_facet))
        table = evaluator.adjustments(delta.inserted, delta.deleted)
        decode = engine.executor.decode_id
        got = {tuple(decode(i) for i in key): (entry.rows, entry.value)
               for key, entry in table.groups.items() if not entry.empty}
        assert got == expected

    def test_empty_delta_empty_adjustments(self, population_facet):
        graph = build_population_graph()
        engine = QueryEngine(graph)
        evaluator = DeltaEvaluator(engine.executor,
                                   compile_delta_plan(population_facet))
        assert evaluator.adjustments((), ()).groups == {}

    def test_irrelevant_delta_ignored(self, population_facet):
        graph = build_population_graph()
        engine = QueryEngine(graph)
        log = graph.subscribe()
        graph.add(Triple(EX.meta, EX.comment, typed_literal("noise")))
        delta = log.drain()
        evaluator = DeltaEvaluator(engine.executor,
                                   compile_delta_plan(population_facet))
        assert evaluator.adjustments(delta.inserted,
                                     delta.deleted).groups == {}

    def test_optional_facet_not_plannable(self):
        facet = AnalyticalFacet.from_query("opt", OPTIONAL_FACET_QUERY)
        assert compile_delta_plan(facet) is None

    @pytest.mark.parametrize("facet_query,mutate,touched,new_rows", [
        # all four patterns touched, inserts and deletes mixed
        (POPULATION_FACET_QUERY, standard_mutation, 4, None),
        # one pattern touched: a second value on an existing observation
        (POPULATION_FACET_QUERY, lambda g: g.add(
            Triple(EX.obs1, EX.population, typed_literal(1))), 1, 1),
        # insert-only, under a group-wide FILTER: five new rows (obs8 ×
        # French and Breton, obs9 × Spanish, obs1 and obs2 × Breton), of
        # which obs8's two fail it; the other three are folded once each
        (FILTERED_FACET_QUERY, lambda g: g.update([
            Triple(EX.obs8, EX.ofCountry, EX.france),
            Triple(EX.obs8, EX.year, typed_literal(2019)),
            Triple(EX.obs8, EX.population, typed_literal(5)),
            Triple(EX.obs9, EX.ofCountry, EX.spain),
            Triple(EX.obs9, EX.year, typed_literal(2021)),
            Triple(EX.obs9, EX.population, typed_literal(47)),
            Triple(EX.spain, EX.language, EX.spanish),
            Triple(EX.france, EX.language, EX.breton)]), 4, 3),
    ], ids=["mixed", "one-pattern", "filtered-inserts"])
    def test_work_is_linear_in_the_touched_patterns(
            self, facet_query, mutate, touched, new_rows, monkeypatch):
        """A window touching k of the facet's n patterns evaluates k
        terms and probes at most k·(n−1) single patterns (plus one
        FILTER pass per term) — counts, so the 2ⁿ−1 subset passes of
        inclusion–exclusion cannot come back unnoticed.  An insert-only
        window folds exactly the new rows that pass the FILTER."""
        from repro.obs import hub
        from repro.sparql.algebra import BGPOp
        from repro.sparql.executor import Executor
        facet = AnalyticalFacet.from_query("counted", facet_query)
        graph = build_population_graph()
        engine = QueryEngine(graph)
        log = graph.subscribe()
        mutate(graph)
        delta = log.drain()
        plan = compile_delta_plan(facet)
        probes, filters = [], []
        run_batch = Executor.run_batch

        def counting(self, op, seed):
            (probes if isinstance(op, BGPOp) else filters).append(op)
            return run_batch(self, op, seed)

        monkeypatch.setattr(Executor, "run_batch", counting)
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            table = DeltaEvaluator(engine.executor, plan).adjustments(
                delta.inserted, delta.deleted)
            terms = h.metrics.counter_total("maintenance_delta_terms_total")
            rows = h.metrics.counter_total("maintenance_delta_rows_total")
        finally:
            h.disable()
            h.reset()
        n = len(plan.patterns)
        assert table is not None and len(table)
        assert terms == touched
        assert all(len(op.patterns) == 1 for op in probes)
        assert len(probes) <= touched * (n - 1)
        assert len(filters) <= (touched if plan.filters else 0)
        if new_rows is not None:
            assert rows == new_rows
            assert sum(e.rows for e in table.groups.values()) == new_rows

    def test_a_term_is_planned_once_and_later_windows_read_no_statistics(
            self, monkeypatch):
        """The per-term order comes from the BGP planner at the first
        window that touches the term; after that a window costs its
        probes — no O(predicate) statistics to order a handful of rows."""
        facet = AnalyticalFacet.from_query("planned", POPULATION_FACET_QUERY)
        graph = build_population_graph()
        engine = QueryEngine(graph)
        evaluator = DeltaEvaluator(engine.executor,
                                   compile_delta_plan(facet))
        reads: list[int] = []
        profile = Graph.predicate_profile
        monkeypatch.setattr(
            Graph, "predicate_profile",
            lambda self, pid: reads.append(pid) or profile(self, pid))
        log = graph.subscribe()
        for year, expect_reads in ((2030, True), (2031, False)):
            graph.update([
                Triple(EX[f"obs{year}"], EX.ofCountry, EX.france),
                Triple(EX[f"obs{year}"], EX.year, typed_literal(year)),
                Triple(EX[f"obs{year}"], EX.population, typed_literal(1))])
            delta = log.drain()
            del reads[:]
            table = evaluator.adjustments(delta.inserted, delta.deleted)
            assert sum(e.rows for e in table.groups.values()) == 1
            assert bool(reads) == expect_reads

    def test_a_term_with_a_constant_nobody_has_used_yet_matches_nothing(self):
        """Until ``ex:language`` is interned the planner has no order for
        the observation terms (``bgp_order`` is None) and the window folds
        nothing; ``term_order`` answers index order without keeping it,
        and plans once the constant exists."""
        facet = AnalyticalFacet.from_query("early", POPULATION_FACET_QUERY)
        graph = Graph()
        evaluator = DeltaEvaluator(QueryEngine(graph).executor,
                                   compile_delta_plan(facet))
        log = graph.subscribe()
        graph.update([Triple(EX.obs1, EX.ofCountry, EX.france),
                      Triple(EX.obs1, EX.year, typed_literal(2030)),
                      Triple(EX.obs1, EX.population, typed_literal(7))])
        delta = log.drain()
        assert not evaluator.adjustments(delta.inserted, delta.deleted).groups
        n = len(evaluator.plan.patterns)
        assert all(evaluator.term_order(i) == [j for j in range(n) if j != i]
                   for i in range(n))
        graph.add(Triple(EX.france, EX.language, EX.french))
        delta = log.drain()
        table = evaluator.adjustments(delta.inserted, delta.deleted)
        assert sum(e.rows for e in table.groups.values()) == 1
        for i in range(n):
            assert evaluator.term_order(i) is evaluator.term_order(i)


class TestViewMaintainerPatching:
    @pytest.mark.parametrize("facet_query,name", [
        (POPULATION_FACET_QUERY, "pop_sum"),
        (POPULATION_AVG_FACET_QUERY, "pop_avg"),
    ])
    def test_full_lattice_parity(self, facet_query, name):
        facet = AnalyticalFacet.from_query(name, facet_query)
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        report = maintainer.synchronize()
        assert len(report.patched) == len(views)
        assert report.rebuilt == []
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        online = OnlineModule(cat1)
        for mask in range(facet.lattice_size):
            query = AnalyticalQuery(facet, mask)
            answer = online.answer(query)
            assert answer.used_view is not None
            assert answer.table.same_solutions(
                online.answer_from_base(query).table)

    def test_group_birth_and_death_reported(self, population_facet):
        (g1, cat1, views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        before = cat1.get(views[0]).groups
        standard_mutation(g1)
        report = maintainer.synchronize()
        stats = report.views[0]
        assert stats.patched
        assert stats.groups_created == 1   # (spanish, 2021)
        assert stats.groups_deleted == 2   # (italian, 2019), (english, 2018)
        assert stats.groups_updated >= 1   # (french, 2019) grew
        entry = cat1.get(views[0])
        assert entry.groups == before - 1  # one born, two died
        assert entry.base_version == cat1.base_version
        assert entry.maintain_seconds > 0
        assert entry.triples == len(cat1.graph_of(views[0]))
        assert cat1.stale_views() == []

    def test_catalog_entry_counts_stay_exact(self, population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        maintainer.synchronize()
        cat2.refresh_stale()
        for view in views:
            patched, rebuilt = cat1.get(view), cat2.get(view)
            assert patched.groups == rebuilt.groups
            assert patched.triples == rebuilt.triples

    def test_minmax_insert_only_patches(self):
        facet = AnalyticalFacet.from_query("peak", PEAK_FACET_QUERY)
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        for g in (g1, g2):
            g.update([
                Triple(EX.obs8, EX.ofCountry, EX.france),
                Triple(EX.obs8, EX.year, typed_literal(2019)),
                Triple(EX.obs8, EX.population, typed_literal(9000)),
                Triple(EX.obs9, EX.ofCountry, EX.spain),
                Triple(EX.obs9, EX.year, typed_literal(2021)),
                Triple(EX.obs9, EX.population, typed_literal(47)),
                Triple(EX.spain, EX.language, EX.spanish),
            ])
        report = maintainer.synchronize()
        assert len(report.patched) == len(views)
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)

    def test_minmax_deletes_fall_back_to_rebuild(self):
        facet = AnalyticalFacet.from_query("peak", PEAK_FACET_QUERY)
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        for g in (g1, g2):
            g.remove([Triple(EX.obs2, EX.ofCountry, EX.france)])
        report = maintainer.synchronize()
        assert report.patched == []
        assert all("MIN/MAX" in v.reason for v in report.rebuilt)
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)

    def test_a_small_window_compacts_no_view_graph(self, monkeypatch):
        """The e2e ``update-churn`` selection on the columnar store: a
        small window compacts the base graph (the delta evaluator's first
        probe) and none of the three view graphs it patches, and counts
        no nodes; the first read of a view graph compacts it, and its
        node count is then a rebuild's."""
        from repro.datasets import load_dataset
        from repro.obs import hub
        from repro.selection.user import UserSelection
        monkeypatch.setenv("REPRO_STORE", "columnar")
        data = load_dataset("dbpedia", "tiny")
        graph, facet = data.graph, data.facet("population_cube_4d")
        sofos = Sofos(graph, facet, seed=1, maintenance="incremental")
        selection = sofos.select(selector=UserSelection((
            "country+lang+year+continent", "lang+year", "year+continent")),
            k=None)
        sofos.materialize(selection)
        UpdateStreamGenerator(graph, UpdateStreamConfig(
            operations_per_batch=5, seed=7)).next_batch().apply_to(graph)
        counted = []
        node_ids = Graph.node_ids
        monkeypatch.setattr(Graph, "node_ids", lambda self, *args: (
            counted.append(self) or node_ids(self, *args)))
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            report = sofos.maintain()
            compactions = h.metrics.counter_total("store_compactions_total")
        finally:
            h.disable()
            h.reset()
        assert len(report.patched) == 3
        assert all(v.groups_updated for v in report.views)    # all written
        assert compactions == 1 and counted == []
        sofos.answer(sofos.generate_workload(1)[0])
        twin = Sofos(graph.copy(), facet, seed=1)
        twin.materialize(selection)
        for entry in sofos.catalog:
            view = entry.definition
            assert sofos.catalog.node_count(view) == \
                twin.catalog.node_count(view), view.label

    def test_second_window_continues_from_first(self, population_facet):
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        maintainer.synchronize()
        # second window: delete the spanish group born in the first one
        for g in (g1, g2):
            g.remove([Triple(EX.obs9, EX.ofCountry, EX.spain)])
        report = maintainer.synchronize()
        assert len(report.patched) == len(views)
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)


class TestFallbacks:
    def test_clear_truncation_forces_rebuild(self, population_facet):
        (g1, cat1, views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1)
        triples = list(g1)
        g1.clear()
        g1.update(triples[:-3])
        report = maintainer.synchronize()
        assert report.truncated
        assert [v.action for v in report.views] == ["rebuilt"]
        assert "truncated" in report.views[0].reason
        assert cat1.stale_views() == []

    def test_oversized_delta_forces_rebuild(self, population_facet):
        (g1, cat1, views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1, max_delta_fraction=0.01)
        standard_mutation(g1)
        report = maintainer.synchronize()
        assert report.patched == []
        assert "exceeds" in report.views[0].reason
        assert cat1.stale_views() == []

    def test_view_stale_before_subscription_rebuilds(self, population_facet):
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        view = ViewDefinition(population_facet, 0b11)
        catalog.materialize(view)
        standard_mutation(graph)           # stale before any maintainer
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"]
        assert "out of sync" in report.views[0].reason
        assert catalog.stale_views() == []

    def test_non_bgp_facet_rebuilds(self):
        facet = AnalyticalFacet.from_query("opt", OPTIONAL_FACET_QUERY)
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        view = ViewDefinition(facet, 0b1)
        catalog.materialize(view)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        graph.add(Triple(EX.obs1, EX.population, typed_literal(1000)))
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"]
        assert "not delta-evaluable" in report.views[0].reason

    @pytest.mark.parametrize("negation", ["", "NOT "],
                             ids=["exists", "not-exists"])
    def test_exists_filter_facet_rebuilds(self, negation):
        """EXISTS is not linear in the graph: a window that only adds
        ``?c ex:flagged true`` touches no pattern of the BGP, so Δ would
        come out empty and the view be reported patched while differing
        from a rebuild.  Such a facet has no delta plan."""
        facet = AnalyticalFacet.from_query("flagged", f"""
            PREFIX ex: <http://example.org/>
            SELECT ?lang (SUM(?pop) AS ?total) WHERE {{
              ?obs ex:ofCountry ?c ; ex:population ?pop .
              ?c ex:language ?lang
              FILTER {negation}EXISTS {{ ?c ex:flagged true }}
            }} GROUP BY ?lang""")
        assert compile_delta_plan(facet) is None

        def flagged_graph():
            graph = build_population_graph()
            graph.add(Triple(EX.germany, EX.flagged, typed_literal(True)))
            return graph

        (g1, cat1, views), (g2, cat2, _) = twin_worlds(facet, flagged_graph)
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        for g in (g1, g2):
            g.add(Triple(EX.france, EX.flagged, typed_literal(True)))
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["rebuilt"] * len(views)
        assert {v.reason for v in report.views} == {
            "facet shape is not delta-evaluable"}
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)

    def test_out_of_band_rebuild_is_patched_past(self, population_facet):
        """An external refresh mints fresh group nodes; the catalog's
        index is rewritten by that same build, so the next window still
        patches (it used to detect a drifted private copy and rebuild)."""
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1, max_delta_fraction=1.0)
        standard_mutation(g1)
        standard_mutation(g2)
        maintainer.synchronize()
        cat1.refresh(views[0])             # out-of-band: new group nodes
        assert_index_true(cat1, views)
        for g in (g1, g2):
            g.remove([Triple(EX.obs1, EX.ofCountry, EX.france)])
        report = maintainer.synchronize()
        assert [v.action for v in report.views] == ["patched"]
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        assert_index_true(cat1, views)

    def test_two_maintainers_share_the_catalog_index(self, population_facet,
                                                     monkeypatch):
        """The index lives on the catalog: whichever maintainer patches a
        window, the other's next window starts from the truth, without a
        view-graph scan."""
        (g1, cat1, views), (g2, cat2, _) = twin_worlds(
            population_facet, build_population_graph)
        first = ViewMaintainer(cat1, max_delta_fraction=1.0)
        second = ViewMaintainer(cat1, max_delta_fraction=1.0)
        with monkeypatch.context() as patched:
            patched.setattr(GroupIndex, "from_graph", classmethod(
                lambda cls, view, graph: pytest.fail("scanned " + view.label)))
            standard_mutation(g1)
            standard_mutation(g2)
            assert len(first.synchronize().patched) == len(views)
            assert second.synchronize().views == []   # nothing left stale
            for g in (g1, g2):
                g.remove([Triple(EX.obs9, EX.ofCountry, EX.spain)])
            assert len(second.synchronize().patched) == len(views)
        cat2.refresh_stale()
        assert_view_parity(cat1, cat2, views)
        assert_index_true(cat1, views)

    def test_forced_window_rebuilds_from_one_scan(self, tiny_lubm):
        """Fallback is the batch: k declined views cost one facet scan."""
        from repro.obs import hub
        facet = tiny_lubm.facet()
        graph = tiny_lubm.graph.copy()
        catalog = ViewCatalog(Dataset.wrap(graph))
        views = list(ViewLattice(facet))[:4]
        catalog.materialize_all(views)
        maintainer = ViewMaintainer(catalog)
        batch = next(iter(UpdateStreamGenerator(graph, UpdateStreamConfig(
            batches=1, operations_per_batch=5, seed=3)).stream(apply=False)))
        batch.apply_to(graph)
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            report = maintainer.synchronize(force_rebuild=True)
            scans = h.metrics.get("facet_scan_total").value(("scan",))
        finally:
            h.disable()
            h.reset()
        assert [v.action for v in report.views] == ["rebuilt"] * 4
        assert scans == 1
        assert_index_true(catalog, views)

    def test_fresh_views_untouched(self, population_facet):
        (g1, cat1, views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1)
        report = maintainer.synchronize()
        assert report.views == []

    def test_closed_maintainer_rejects_synchronize(self, population_facet):
        (g1, cat1, _views), _ = twin_worlds(
            population_facet, build_population_graph, views=[0b11])
        maintainer = ViewMaintainer(cat1)
        maintainer.close()
        with pytest.raises(Exception):
            maintainer.synchronize()


class TestSofosPolicies:
    def test_invalid_policy_rejected(self, population_facet):
        with pytest.raises(ReproError):
            Sofos(build_population_graph(), population_facet,
                  maintenance="eventually")

    def test_rebuild_policy_repairs_at_answer_time(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet,
                      maintenance="rebuild")
        sofos.select_and_materialize("agg_values", k=2)
        graph = sofos.dataset.default
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2019)),
                      Triple(EX.obs8, EX.population, typed_literal(7))])
        query = AnalyticalQuery(population_facet, 0)
        answer = sofos.answer(query)
        assert answer.used_view is not None and not answer.stale
        assert answer.table.same_solutions(
            sofos.answer_from_base(query).table)

    def test_rebuild_policy_repairs_every_stale_view_in_one_scan(
            self, tiny_dbpedia):
        """The update-churn selection after one update batch: the first
        stale route rebuilds all three views from one facet scan (the
        rule ``maintain()`` follows), not one scan per routed view."""
        from repro.obs import hub
        from repro.selection import UserSelection
        graph = tiny_dbpedia.graph.copy()
        sofos = Sofos(graph, tiny_dbpedia.facet("population_cube_4d"),
                      seed=1, maintenance="rebuild")
        sofos.materialize(sofos.select(k=None, selector=UserSelection(
            ["country+lang+year+continent", "lang+year", "year+continent"])))
        workload = sofos.generate_workload(40)
        UpdateStreamGenerator(graph, UpdateStreamConfig(
            operations_per_batch=5)).next_batch().apply_to(graph)
        h = hub()
        h.reset()
        h.enable(tracing=False)
        try:
            answers = [sofos.answer(query) for query in workload]
            scans = h.metrics.value("facet_scan_total", ("scan",))
        finally:
            h.disable()
            h.reset()
        assert len({a.used_view for a in answers}) == 3
        assert not any(a.stale for a in answers)
        assert scans == 1
        assert not sofos.catalog.stale_views()

    def test_maintainer_without_policy_defaults_to_incremental(
            self, population_facet):
        """A wired maintainer is the refresher: it must actually repair
        stale routed views, not sit idle while disabling skip-stale."""
        graph = build_population_graph()
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize(ViewDefinition(population_facet, 0b11))
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        online = OnlineModule(catalog, maintainer=maintainer)
        assert online.policy == "incremental"
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2019)),
                      Triple(EX.obs8, EX.population, typed_literal(7))])
        query = AnalyticalQuery(population_facet, 0)
        answer = online.answer(query)
        assert answer.used_view is not None and not answer.stale
        assert answer.table.same_solutions(
            online.answer_from_base(query).table)

    def test_incremental_policy_patches_at_answer_time(self,
                                                       population_facet):
        sofos = Sofos(build_population_graph(), population_facet,
                      maintenance="incremental")
        sofos.select_and_materialize("agg_values", k=2)
        assert sofos.maintainer is not None
        graph = sofos.dataset.default
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2019)),
                      Triple(EX.obs8, EX.population, typed_literal(7))])
        query = AnalyticalQuery(population_facet, 0)
        answer = sofos.answer(query)
        assert answer.used_view is not None and not answer.stale
        assert answer.table.same_solutions(
            sofos.answer_from_base(query).table)
        assert sofos.catalog.stale_views() == []

    def test_deferred_policy_serves_snapshot_until_maintain(
            self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet,
                      maintenance="deferred")
        sofos.select_and_materialize("agg_values", k=2)
        graph = sofos.dataset.default
        query = AnalyticalQuery(population_facet, 0)
        before = sofos.answer(query)
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2019)),
                      Triple(EX.obs8, EX.population, typed_literal(7))])
        snapshot = sofos.answer(query)
        assert snapshot.stale
        assert snapshot.table.same_solutions(before.table)
        report = sofos.maintain()
        assert len(report.patched) + len(report.rebuilt) == 2
        current = sofos.answer(query)
        assert not current.stale
        assert current.table.same_solutions(
            sofos.answer_from_base(query).table)

    @pytest.mark.parametrize("policy", ["incremental", "deferred"])
    def test_refresh_views_drains_the_window(self, population_facet, policy):
        """Regression: refresh_views() rebuilt behind the maintainer's back,
        so the next window found every view out of sync with an undrained
        log and rebuilt them all a second time."""
        sofos = Sofos(build_population_graph(), population_facet,
                      maintenance=policy)
        sofos.select_and_materialize("agg_values", k=2)
        graph = sofos.dataset.default
        graph.update([Triple(EX.obs8, EX.ofCountry, EX.france),
                      Triple(EX.obs8, EX.year, typed_literal(2019)),
                      Triple(EX.obs8, EX.population, typed_literal(7))])
        refreshed = sofos.refresh_views()
        assert sorted(e.label for e in refreshed) == \
            sorted(e.label for e in sofos.catalog)
        assert sofos.catalog.stale_views() == []
        graph.update([Triple(EX.obs9, EX.ofCountry, EX.germany),
                      Triple(EX.obs9, EX.year, typed_literal(2019)),
                      Triple(EX.obs9, EX.population, typed_literal(3))])
        report = sofos.maintain()
        assert [v.action for v in report.views] == ["patched", "patched"]
        query = AnalyticalQuery(population_facet, 0)
        assert sofos.answer(query).table.same_solutions(
            sofos.answer_from_base(query).table)

    def test_rebuild_policy_maintain_reports(self, population_facet):
        sofos = Sofos(build_population_graph(), population_facet)
        assert len(sofos.maintain()) == 0   # nothing materialized
        sofos.select_and_materialize("agg_values", k=2)
        graph = sofos.dataset.default
        graph.add(Triple(EX.obs8, EX.ofCountry, EX.france))
        report = sofos.maintain()
        assert [v.action for v in report.views] == ["rebuilt", "rebuilt"]
        assert sofos.catalog.stale_views() == []


class TestRandomStreamParity:
    """Property-style: random insert/delete streams on the demo facets."""

    def _run_stream(self, graph: Graph, facet: AnalyticalFacet,
                    batches: int, seed: int, views=None) -> None:
        g1 = graph.copy()
        g2 = graph.copy()
        worlds = []
        for g in (g1, g2):
            catalog = ViewCatalog(Dataset.wrap(g))
            lattice = ViewLattice(facet)
            selected = [lattice.finest, lattice.apex] if views is None \
                else [ViewDefinition(facet, m) for m in views]
            for view in selected:
                catalog.materialize(view)
            worlds.append((catalog, selected))
        (cat1, selected), (cat2, _) = worlds
        maintainer = ViewMaintainer(cat1)
        generator = UpdateStreamGenerator(g1, UpdateStreamConfig(
            batches=batches, operations_per_batch=5, seed=seed))
        # One online module for the whole stream, so from the second
        # window on every ask is served from a warm serving-plan memo.
        online = OnlineModule(cat1, plans=ServingPlans(facet))
        reference = ReferenceExecutor(g1)
        engine = QueryEngine(g1)
        for batch in generator.stream(apply=False):
            batch.apply_to(g1)
            batch.apply_to(g2)
            maintainer.synchronize()
            cat2.refresh_stale()
            assert_view_parity(cat1, cat2, selected)

            # routed answers, asked as an object and as rendered text,
            # must match the seed reference executor on the current G
            for mask in range(facet.lattice_size):
                query = AnalyticalQuery(facet, mask)
                prepared = engine.prepare(query.to_select_query())
                want = ResultTable.from_bindings(
                    prepared.ast.projected_variables(),
                    reference.run(prepared.plan))
                for answer in (
                        online.answer(query),
                        online.answer_sparql(render_analytical_query(query))):
                    assert answer.used_view is not None
                    assert answer.table.same_solutions(want), \
                        (facet.name, mask)

    @pytest.mark.parametrize("policy", ["incremental", "rebuild"])
    def test_sofos_profile_follows_the_stream(self, tiny_lubm, policy):
        """After every window the cached profile is the current graph's:
        equal to one taken from scratch on the twin."""
        from repro.cost import LatticeProfile
        facet = tiny_lubm.facet()
        g1, g2 = tiny_lubm.graph.copy(), tiny_lubm.graph.copy()
        sofos = Sofos(g1, facet, maintenance=policy)
        sofos.select_and_materialize("triples", k=2)
        seen = [sofos.profile()]
        generator = UpdateStreamGenerator(g1, UpdateStreamConfig(
            batches=3, operations_per_batch=5, seed=11))
        for batch in generator.stream(apply=False):
            batch.apply_to(g1)
            batch.apply_to(g2)
            sofos.maintain()
            live = sofos.profile()
            assert all(live is not earlier for earlier in seen)
            seen.append(live)
            twin = LatticeProfile.profile(ViewLattice(facet),
                                          QueryEngine(g2))
            assert live.base.rows == twin.base.rows
            assert live.base.triples == twin.base.triples == len(g1)
            for view in sofos.lattice:
                a, b = live.of(view), twin.of(view)
                assert (a.rows, a.triples, a.nodes, a.dim_cardinalities) \
                    == (b.rows, b.triples, b.nodes, b.dim_cardinalities)
            # re-selecting after the window works off the new profile
            assert sofos.select("triples", k=2).views

    def test_lubm_count_facet(self, tiny_lubm):
        self._run_stream(tiny_lubm.graph, tiny_lubm.facet(),
                         batches=4, seed=5)

    def test_swdf_count_facet(self, tiny_swdf):
        self._run_stream(tiny_swdf.graph, tiny_swdf.facet(),
                         batches=4, seed=7)

    def test_population_avg_facet(self, population_avg_facet):
        self._run_stream(build_population_graph(), population_avg_facet,
                         batches=3, seed=9,
                         views=[0b11, 0b01, 0])
