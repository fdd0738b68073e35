"""Rollup materialization: parity, planning, batching, and seeding.

The contract under test: a view built by the shared-scan rollup path
(``ViewCatalog.materialize_all`` → group table → ``project`` →
``materialize_view_from_table``) is **triple-for-triple identical** — up
to blank-node labels — to the §3.1 encoding of its materialization query
as the seed tuple-at-a-time :class:`ReferenceExecutor` evaluates it, and
its catalog entry counts exactly that encoding.  Around that core: the
lattice's cheapest-ancestor planner, batch atomicity (rollback on
mid-batch failure), iterable acceptance, the catalog's group index as
every build and rebuild leaves it (true to the graph, so the next window
patches without a scan), and the router's upkeep-history tie-break.
"""

from __future__ import annotations

import pytest

from repro.cube import AnalyticalFacet, AnalyticalQuery, ViewLattice
from repro.cube.lattice import RollupPlan
from repro.errors import CubeError, ViewError
from repro.rdf import Dataset, Graph, Namespace, parse_turtle
from repro.rdf.namespace import SOFOS
from repro.sparql import PreparedQuery, ReferenceExecutor
from repro.views import ViewCatalog, ViewMaintainer, ViewRouter, \
    dimension_predicate
from repro.views.catalog import MaterializedView

from tests.test_incremental_maintenance import assert_index_true

EX = Namespace("http://example.org/")

#: Observations over two dimensions; obs9 has no measure value, so the
#: OPTIONAL-pattern facets exercise unbound-operand (poison) semantics.
AGG_TTL = """
@prefix ex: <http://example.org/> .

ex:obs1 ex:a ex:a1 ; ex:b ex:b1 ; ex:v 4 .
ex:obs2 ex:a ex:a1 ; ex:b ex:b1 ; ex:v 7 .
ex:obs3 ex:a ex:a1 ; ex:b ex:b2 ; ex:v 1 .
ex:obs4 ex:a ex:a2 ; ex:b ex:b1 ; ex:v 9 .
ex:obs5 ex:a ex:a2 ; ex:b ex:b2 ; ex:v 2 .
ex:obs6 ex:a ex:a2 ; ex:b ex:b2 ; ex:v 2 .
ex:obs7 ex:a ex:a3 ; ex:b ex:b1 ; ex:v 5 .
ex:obs8 ex:a ex:a3 ; ex:b ex:b2 ; ex:v 3 .
ex:obs9 ex:a ex:a3 ; ex:b ex:b2 .
"""

AGGREGATES = ("SUM", "COUNT", "AVG", "MIN", "MAX")

BGP_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b ; ex:v ?v .
}} GROUP BY ?a ?b
"""

OPTIONAL_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b .
  OPTIONAL {{ ?o ex:v ?v }}
}} GROUP BY ?a ?b
"""


def agg_facet(agg: str, template: str = BGP_TEMPLATE) -> AnalyticalFacet:
    return AnalyticalFacet.from_query(f"agg_{agg.lower()}",
                                      template.format(agg=agg))


def group_signatures(graph: Graph) -> dict:
    """Multiset of per-node (p, o) term signatures — bnode-label-free."""
    by_node: dict = {}
    for t in graph:
        by_node.setdefault(t.s, []).append((t.p, t.o))
    out: dict = {}
    for po in by_node.values():
        key = frozenset(po)
        out[key] = out.get(key, 0) + 1
    return out


def reference_signatures(view, graph: Graph) -> dict:
    """The §3.1 encoding the seed executor implies for one view."""
    from repro.cube.view import COUNT_VAR, MEASURE_VAR, SUM_VAR
    from repro.rdf.terms import typed_literal

    is_avg = view.facet.aggregate.name == "AVG"
    value_var = SUM_VAR if is_avg else MEASURE_VAR
    value_pred = SOFOS.sum if is_avg else SOFOS.measure
    prepared = PreparedQuery(view.materialization_query())
    out: dict = {}
    for binding in ReferenceExecutor(graph).run(prepared.plan):
        pairs = [(SOFOS.view, view.iri)]
        for var in view.variables:
            value = binding.get(var)
            if value is not None:
                pairs.append((dimension_predicate(var), value))
        measure = binding.get(value_var)
        if measure is not None:
            pairs.append((value_pred, measure))
        count = binding.get(COUNT_VAR)
        pairs.append((SOFOS.groupCount,
                      count if count is not None else typed_literal(0)))
        key = frozenset(pairs)
        out[key] = out.get(key, 0) + 1
    return out


def reference_footprint(view, graph: Graph) -> tuple[int, int, int]:
    """(groups, triples, nodes) of :func:`reference_signatures`' encoding."""
    signatures = reference_signatures(view, graph)
    groups = sum(signatures.values())
    triples = sum(len(pairs) * n for pairs, n in signatures.items())
    objects = {o for pairs in signatures for _, o in pairs}
    return groups, triples, groups + len(objects)


def build_lattice(graph: Graph, facet: AnalyticalFacet):
    """(full-lattice catalog over a copy of the graph, lattice)."""
    lattice = ViewLattice(facet)
    catalog = ViewCatalog(Dataset.wrap(graph.copy()))
    catalog.materialize_all(lattice)
    return catalog, lattice


class TestRollupParity:
    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("template", [BGP_TEMPLATE, OPTIONAL_TEMPLATE],
                             ids=["bgp", "optional"])
    def test_all_aggregates_match_reference(self, agg, template):
        graph = parse_turtle(AGG_TTL)
        catalog, lattice = build_lattice(graph, agg_facet(agg, template))
        for view in lattice:
            assert group_signatures(catalog.graph_of(view)) == \
                reference_signatures(view, graph), view.label

    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_entries_match_reference(self, agg):
        graph = parse_turtle(AGG_TTL)
        catalog, lattice = build_lattice(graph, agg_facet(agg))
        for view in lattice:
            entry = catalog.get(view)
            assert (entry.groups, entry.triples, entry.nodes) == \
                reference_footprint(view, graph), view.label

    def test_avg_views_store_sum_and_bound_count(self):
        """AVG's algebraic (sum, count) split survives the rollup path —
        the count is the *bound-operand* count, not the row count."""
        graph = parse_turtle(AGG_TTL)
        facet = agg_facet("AVG", OPTIONAL_TEMPLATE)
        rolled, lattice = build_lattice(graph, facet)
        finest_graph = rolled.graph_of(lattice.finest)
        preds = {t.p for t in finest_graph}
        assert SOFOS.sum in preds and SOFOS.measure not in preds
        # obs9 has no ?v: its (a3, b2) group is poisoned — no sofos:sum
        # triple — so of the 6 finest groups exactly 5 store a sum.
        assert sum(1 for t in finest_graph if t.p == SOFOS.sum) == 5
        # The apex merges the poison, storing no sum at all; its
        # groupCount is still the bound-operand count, mirroring
        # COUNT(?v) = 8 of 9 rows.
        apex_graph = rolled.graph_of(lattice.apex)
        assert SOFOS.sum not in {t.p for t in apex_graph}
        counts = [t.o for t in apex_graph if t.p == SOFOS.groupCount]
        assert [c.to_python() for c in counts] == [8]

    @pytest.mark.parametrize("name", ["dbpedia", "lubm", "swdf"])
    def test_datasets_all_facets(self, name, request):
        loaded = request.getfixturevalue(f"tiny_{name}")
        for facet_name in sorted(loaded.facets):
            facet = loaded.facets[facet_name]
            rolled, lattice = build_lattice(loaded.graph, facet)
            for view in lattice:
                assert group_signatures(rolled.graph_of(view)) == \
                    reference_signatures(view, loaded.graph), \
                    (facet_name, view.label)

    def test_empty_graph_apex_encoding(self, population_facet):
        rolled, lattice = build_lattice(Graph(), population_facet)
        for view in lattice:
            assert group_signatures(rolled.graph_of(view)) == \
                reference_signatures(view, Graph()), view.label
        # the apex keeps its implicit zero group even over no data
        assert rolled.get(lattice.apex).groups == 1


class TestRollupPlan:
    def test_full_lattice_plan_builds_finest_first(self):
        plan = ViewLattice.rollup_plan(range(8))
        assert isinstance(plan, RollupPlan)
        assert plan.table_mask == 7
        assert [s.mask for s in plan.steps] == [7, 3, 5, 6, 1, 2, 4, 0]
        # the finest view encodes straight off the shared table
        assert plan.steps[0].source == 7

    def test_sources_are_cheapest_covering_ancestors(self):
        plan = ViewLattice.rollup_plan([0b110, 0b100, 0b011])
        by_mask = {s.mask: s.source for s in plan.steps}
        assert plan.table_mask == 0b111
        # 0b100 rolls up from the 2-dim batch member covering it, not
        # from the 3-dim union table
        assert by_mask[0b100] == 0b110
        assert by_mask[0b110] == 0b111
        assert by_mask[0b011] == 0b111

    def test_duplicate_masks_collapse(self):
        plan = ViewLattice.rollup_plan([1, 1, 2])
        assert sorted(s.mask for s in plan.steps) == [1, 2]

    def test_cheapest_source_prefers_actual_sizes(self):
        # popcount says mask 3 (2 dims); real sizes say mask 5 is smaller
        assert ViewLattice.cheapest_source(1, [3, 5, 7]) == 3
        assert ViewLattice.cheapest_source(
            1, [3, 5, 7], sizes={3: 40, 5: 10, 7: 90}) == 5

    def test_cheapest_source_requires_cover(self):
        with pytest.raises(CubeError):
            ViewLattice.cheapest_source(0b100, [0b011, 0b010])


class TestMaterializeAllBatch:
    def test_accepts_any_iterable_in_input_order(self, population_graph,
                                                 population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        views = [lattice.apex, lattice.finest, lattice[1]]
        entries = catalog.materialize_all(iter(views))
        assert [e.mask for e in entries] == [v.mask for v in views]
        assert len(catalog) == 3

    def test_failed_batch_rolls_back_everything(self, population_graph,
                                                population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        with pytest.raises(ViewError):
            catalog.materialize_all([lattice.finest, lattice.apex,
                                     lattice.finest])
        assert len(catalog) == 0
        assert lattice.finest.iri not in catalog.dataset
        with pytest.raises(ViewError):
            catalog.group_index(lattice.finest)

    def test_mid_batch_failure_drops_built_views(self, population_graph,
                                                 population_facet,
                                                 monkeypatch):
        import repro.views.catalog as catalog_module
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        real = catalog_module.materialize_view_from_table
        calls = []

        def explode_on_second(view, engine, target, table):
            calls.append(view.label)
            if len(calls) == 2:
                raise RuntimeError("disk full")
            return real(view, engine, target, table)

        monkeypatch.setattr(catalog_module, "materialize_view_from_table",
                            explode_on_second)
        with pytest.raises(RuntimeError):
            catalog.materialize_all(lattice)
        assert len(calls) == 2
        assert len(catalog) == 0
        for view in lattice:
            assert view.iri not in catalog.dataset

    def test_refresh_stale_batches_and_leaves_true_indexes(
            self, population_facet):
        from repro.rdf import Triple, typed_literal
        graph = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:obs1 ex:ofCountry ex:fr ; ex:year 2019 ; ex:population 7 .\n"
            "ex:fr ex:language ex:french .\n")
        catalog = ViewCatalog(Dataset.wrap(graph))
        lattice = ViewLattice(population_facet)
        catalog.materialize_all(lattice)
        assert_index_true(catalog, lattice)
        held = {v.mask: catalog.graph_of(v) for v in lattice}
        graph.add(Triple(EX.obs2, EX.ofCountry, EX.fr))
        graph.add(Triple(EX.obs2, EX.year, typed_literal(2020)))
        graph.add(Triple(EX.obs2, EX.population, typed_literal(9)))
        refreshed = catalog.refresh_stale()
        assert {e.mask for e in refreshed} == {v.mask for v in lattice}
        for view in lattice:
            # in-place rebuild: previously held graph objects see the data
            assert catalog.graph_of(view) is held[view.mask]
            assert not catalog.is_stale(view)
            assert len(catalog.group_index(view)) == catalog.get(view).groups
        assert_index_true(catalog, lattice)
        catalog.drop(lattice.apex)
        with pytest.raises(ViewError):
            catalog.group_index(lattice.apex)


class TestBuildsLeaveThePatcherAnIndex:
    @pytest.mark.parametrize("rebuild", ["none", "direct", "fallback"])
    def test_a_built_view_patches_without_a_graph_scan(
            self, rebuild, monkeypatch):
        """Every build writes the catalog's index, so the next window
        patches without scanning a view graph — after the first
        ``materialize_all``, after a direct ``refresh`` and after the
        maintainer's own MIN/MAX-under-delete fallback alike."""
        from repro.rdf import Triple, typed_literal
        from repro.views import GroupIndex
        graph = parse_turtle(AGG_TTL)
        lattice = ViewLattice(agg_facet("MAX"))
        catalog = ViewCatalog(Dataset.wrap(graph))
        catalog.materialize_all(lattice)
        maintainer = ViewMaintainer(catalog, max_delta_fraction=1.0)
        with monkeypatch.context() as patched:
            patched.setattr(GroupIndex, "from_graph", classmethod(
                lambda cls, view, g: pytest.fail("scanned " + view.label)))
            if rebuild == "direct":
                for view in lattice:
                    catalog.refresh(view)
            elif rebuild == "fallback":
                graph.discard(Triple(EX.obs4, EX.v, typed_literal(9)))
                report = maintainer.synchronize()
                assert len(report.rebuilt) == len(lattice)
                assert all("MIN/MAX" in v.reason for v in report.rebuilt)
            graph.update([Triple(EX.obs11, EX.a, EX.a2),
                          Triple(EX.obs11, EX.b, EX.b1),
                          Triple(EX.obs11, EX.v, typed_literal(12))])
            report = maintainer.synchronize()
        assert len(report.patched) == len(lattice) and not report.rebuilt
        assert_index_true(catalog, lattice)
        for view in lattice:
            assert group_signatures(catalog.graph_of(view)) == \
                reference_signatures(view, graph), view.label


class TestRouterUpkeepTieBreak:
    @staticmethod
    def _entry(view, groups, build_seconds, maintain_seconds=0.0,
               maintain_count=0):
        return MaterializedView(
            definition=view, groups=groups, triples=groups * 4,
            nodes=groups, build_seconds=build_seconds, base_version=0,
            maintain_seconds=maintain_seconds,
            maintain_count=maintain_count)

    def test_equal_rank_prefers_cheaper_upkeep_history(
            self, population_graph, population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        low_mask, high_mask = sorted(
            e.mask for e in catalog)  # two covering candidates
        # Force a ranking tie and give the higher-mask view the cheaper
        # maintenance history: it must now win despite mask order.
        catalog._entries[low_mask] = self._entry(
            lattice[low_mask], groups=10, build_seconds=0.5)
        catalog._entries[high_mask] = self._entry(
            lattice[high_mask], groups=10, build_seconds=0.9,
            maintain_seconds=0.01, maintain_count=1)
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == high_mask

    def test_history_is_per_window_mean_not_total(self, population_graph,
                                                  population_facet):
        """200 cheap patch windows must not lose to one modest build."""
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        low_mask, high_mask = sorted(e.mask for e in catalog)
        catalog._entries[low_mask] = self._entry(
            lattice[low_mask], groups=10, build_seconds=0.05)
        catalog._entries[high_mask] = self._entry(
            lattice[high_mask], groups=10, build_seconds=0.9,
            maintain_seconds=0.2, maintain_count=200)  # 1 ms per window
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == high_mask

    def test_mask_still_breaks_exact_ties(self, population_graph,
                                          population_facet):
        lattice = ViewLattice(population_facet)
        catalog = ViewCatalog(Dataset.wrap(population_graph.copy()))
        catalog.materialize_all([lattice[1], lattice[2]])
        masks = sorted(e.mask for e in catalog)
        for mask in masks:
            catalog._entries[mask] = self._entry(
                lattice[mask], groups=10, build_seconds=0.5)
        router = ViewRouter(catalog)
        query = AnalyticalQuery(population_facet, 0)
        assert router.route(query).mask == masks[0]
