"""The one-scan offline phase: profile ≡ materialized stats ≡ per-view oracle.

``LatticeProfile.profile`` reads every view's footprint off one shared
group-table scan.  Three things are pinned here: the counts are *exact*
(equal to what ``materialize_full_lattice`` then stores, and to the
per-view-query arithmetic the profiler used before — kept below as the
oracle); the scan really is shared (profile → select → materialize
evaluates the facet pattern once, a cost-model comparison once in total)
for every facet, expression operands included; and nothing derived from
it survives a base-graph update.
"""

from __future__ import annotations

import pytest

from repro.core import OfflineModule, Sofos
from repro.cost import LatticeProfile
from repro.cube import AnalyticalFacet, ViewLattice
from repro.datasets import dataset_spec, load_dataset
from repro.errors import ViewError
from repro.rdf import Dataset, Graph, Namespace, Triple, parse_turtle, \
    typed_literal
from repro.sparql import QueryEngine
from repro.sparql.executor import Executor
from repro.views import ViewCatalog

from tests.test_rollup_materialization import AGG_TTL, AGGREGATES, \
    BGP_TEMPLATE, OPTIONAL_TEMPLATE, agg_facet, group_signatures, \
    reference_signatures

EX = Namespace("http://example.org/")

#: A bound operand that is not a number: SUM/AVG poison, MIN/MAX order it.
NON_NUMERIC_TTL = AGG_TTL + 'ex:obs10 ex:a ex:a1 ; ex:b ex:b1 ; ex:v "n/a" .\n'

#: Integer dimension values that collide with group counts and sums, so
#: a count literal and a dimension literal are one node of the view.
COLLIDING_TTL = """
@prefix ex: <http://example.org/> .
ex:o1 ex:a 1 ; ex:b 2 ; ex:v 1 .
ex:o2 ex:a 1 ; ex:b 2 ; ex:v 1 .
ex:o3 ex:a 2 ; ex:b 3 ; ex:v 3 .
ex:o4 ex:a 2 ; ex:b 1 ; ex:v 2.5 .
"""

#: Dimension values computed at query time live in the executor's overlay.
BIND_TEMPLATE = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ({agg}(?v) AS ?m) WHERE {{
  ?o ex:a ?a ; ex:b ?b0 ; ex:v ?v .
  BIND(?b0 + 100 AS ?b)
}} GROUP BY ?a ?b
"""


#: An expression operand: evaluated per row inside the scan.
EXPRESSION_BGP = BGP_TEMPLATE.replace("(?v)", "(?v * 2)")
EXPRESSION_OPTIONAL = OPTIONAL_TEMPLATE.replace("(?v)", "(?v * 2)")


def oracle_view(view, engine: QueryEngine):
    """(rows, triples, nodes, dim_cardinalities) from the view's own query.

    The profiler's arithmetic before it read group tables: per result row
    one view link and one groupCount triple, one triple per bound
    dimension and per bound stored value; nodes are the group nodes, the
    view IRI and the distinct object terms.
    """
    table = engine.query(view.materialization_query())
    columns = {v: i for i, v in enumerate(table.variables)}
    dim_indexes = [columns[v] for v in view.variables]
    value_indexes = [i for v, i in columns.items()
                     if v not in view.variables]
    triples = 0
    objects: set = set()
    dim_distinct: list[set] = [set() for _ in dim_indexes]
    for row in table.rows:
        triples += 2
        for slot, idx in enumerate(dim_indexes):
            if row[idx] is not None:
                triples += 1
                objects.add(row[idx])
                dim_distinct[slot].add(row[idx])
        for idx in value_indexes:
            if row[idx] is not None:
                objects.add(row[idx])
                if table.variables[idx].name != "__count":
                    triples += 1
    nodes = len(table.rows) + (1 if table.rows else 0) + len(objects)
    return (len(table), triples, nodes,
            tuple(len(s) for s in dim_distinct))


def assert_profile_exact(graph: Graph, facet: AnalyticalFacet) -> None:
    """profile ≡ what the full lattice then stores ≡ the oracle."""
    offline = OfflineModule(Dataset.wrap(graph), facet)
    profile = offline.profile()
    oracle_engine = QueryEngine(graph)
    assert profile.base.rows == len(
        oracle_engine.query(facet.binding_query()))
    assert profile.base.triples == len(graph)
    catalog, _ = offline.materialize_full_lattice()
    assert set(profile.views) == {v.mask for v in offline.lattice}
    for view in offline.lattice:
        got = profile.of(view)
        stored = catalog.get(view)
        assert (got.rows, got.triples, got.nodes) == \
            (stored.groups, stored.triples, stored.nodes), view.label
        assert (got.rows, got.triples, got.nodes, got.dim_cardinalities) \
            == oracle_view(view, oracle_engine), view.label
        assert got.label == view.label and got.level == view.level
        assert got.eval_seconds >= profile.base.eval_seconds > 0
    # materialization interned the count/measure literals; a profile
    # taken now must still count each of them as one node
    again = LatticeProfile.profile(offline.lattice, QueryEngine(graph))
    for view in offline.lattice:
        a, b = again.of(view), profile.of(view)
        assert (a.rows, a.triples, a.nodes, a.dim_cardinalities) == \
            (b.rows, b.triples, b.nodes, b.dim_cardinalities), view.label


DATASET_FACETS = [(name, spec.name) for name in ("dbpedia", "lubm", "swdf")
                  for spec in dataset_spec(name).facets]


@pytest.fixture(scope="module")
def small_datasets():
    return {name: load_dataset(name, "small")
            for name in ("dbpedia", "lubm", "swdf")}


class TestProfileIsExact:
    @pytest.mark.parametrize("dataset,facet", DATASET_FACETS)
    def test_dataset_facets(self, small_datasets, dataset, facet):
        loaded = small_datasets[dataset]
        assert_profile_exact(loaded.graph.copy(), loaded.facet(facet))

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("case", ["empty", "non_numeric",
                                      "optional_unbound", "colliding",
                                      "overlay_dimension"])
    def test_aggregate_edge_cases(self, agg, case):
        graph, template = {
            "empty": (Graph(), BGP_TEMPLATE),
            "non_numeric": (parse_turtle(NON_NUMERIC_TTL), BGP_TEMPLATE),
            "optional_unbound": (parse_turtle(AGG_TTL), OPTIONAL_TEMPLATE),
            "colliding": (parse_turtle(COLLIDING_TTL), BGP_TEMPLATE),
            "overlay_dimension": (parse_turtle(COLLIDING_TTL),
                                  BIND_TEMPLATE),
        }[case]
        assert_profile_exact(graph, agg_facet(agg, template))

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("case", ["numeric", "non_numeric",
                                      "optional_unbound"])
    def test_expression_operand_is_lifted_into_the_scan(
            self, agg, case, pattern_evaluations, monkeypatch):
        ttl, template = {
            "numeric": (AGG_TTL, EXPRESSION_BGP),
            "non_numeric": (NON_NUMERIC_TTL, EXPRESSION_BGP),
            "optional_unbound": (AGG_TTL, EXPRESSION_OPTIONAL),
        }[case]
        graph = parse_turtle(ttl)
        facet = agg_facet(agg, template)
        assert_profile_exact(graph.copy(), facet)
        lattice = ViewLattice(facet)
        catalog = ViewCatalog(Dataset.wrap(graph.copy()))
        catalog.materialize_all(lattice)
        for view in lattice:
            assert group_signatures(catalog.graph_of(view)) == \
                reference_signatures(view, graph), view.label

        # one evaluation for the whole offline phase, none per view
        queries = []
        real_query = QueryEngine.query
        monkeypatch.setattr(
            QueryEngine, "query",
            lambda self, query: queries.append(query)
            or real_query(self, query))
        before = dict(pattern_evaluations)
        sofos = Sofos(graph, facet)
        sofos.profile()
        assert queries == []
        sofos.materialize(sofos.select("triples", k=2))
        assert {name: count - before[name]
                for name, count in pattern_evaluations.items()} == \
            {"group_table": 1, "run_ids": 1}


#: Greedy picks (k=3; k=2 is the prefix) on the small datasets at the
#: commit before the profiler read group tables.  One entry where the
#: three models agree, else (triples, agg_values, nodes).
PINNED_SELECTIONS = {
    ("dbpedia", "population_avg"): ("continent+year", "year", "continent"),
    ("dbpedia", "population_by_language_year"): (
        ("year", "lang+year", "lang"), ("lang+year", "year", "lang"),
        ("lang+year", "year", "lang")),
    ("dbpedia", "population_cube"): (
        ("year+continent", "lang+continent", "lang+year"),
        ("year+continent", "lang+continent", "lang+year+continent"),
        ("year+continent", "lang+continent", "lang+year")),
    ("dbpedia", "population_cube_4d"): (
        ("country+lang+continent", "year+continent", "lang+year"),
        ("country+lang+continent", "year+continent",
         "country+year+continent"),
        ("country+lang+continent", "year+continent", "lang+year")),
    ("dbpedia", "population_peak"): ("continent+year", "year", "continent"),
    ("lubm", "publications_by_rank"): (
        "univ+dept+rank", "univ+rank", "univ+dept"),
    ("lubm", "students_by_department"): (
        "univ+dept+stype", "univ+stype", "univ+dept"),
    ("swdf", "papers_by_conference"): (
        "series+year+track", "series+year", "series+track"),
    ("swdf", "papers_by_country"): (
        "country+series+year", "series+year", "country+series"),
}


class TestSelectionsUnchanged:
    @pytest.mark.parametrize("dataset,facet", DATASET_FACETS)
    def test_greedy_selections_are_pinned(self, small_datasets, dataset,
                                          facet):
        loaded = small_datasets[dataset]
        pinned = PINNED_SELECTIONS[(dataset, facet)]
        if isinstance(pinned[0], str):
            pinned = (pinned,) * 3
        sofos = Sofos(loaded.graph, loaded.facet(facet), seed=0)
        for model, want in zip(("triples", "agg_values", "nodes"), pinned):
            assert tuple(sofos.select(model, k=3).labels) == want, model
            assert tuple(sofos.select(model, k=2).labels) == want[:2], model


@pytest.fixture()
def pattern_evaluations(monkeypatch):
    """Counts of Executor.group_table / run_ids calls made from now on."""
    calls = {"group_table": 0, "run_ids": 0}

    def counted(name):
        original = getattr(Executor, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Executor, name, counted(name))
    return calls


def new_observation(graph: Graph) -> None:
    graph.add(Triple(EX.obs99, EX.a, EX.a9))
    graph.add(Triple(EX.obs99, EX.b, EX.b1))
    graph.add(Triple(EX.obs99, EX.v, typed_literal(11)))


class TestOneScan:
    def test_profile_select_materialize_is_one_evaluation(
            self, pattern_evaluations):
        sofos = Sofos(parse_turtle(AGG_TTL), agg_facet("SUM"))
        sofos.profile()
        selection = sofos.select("triples", k=2)
        sofos.materialize(selection)
        assert pattern_evaluations == {"group_table": 1, "run_ids": 1}
        # the generator's value domains are a third consumer of the scan
        assert sofos.generate_workload(5)
        assert pattern_evaluations == {"group_table": 1, "run_ids": 1}

    def test_workload_first_then_profile_is_one_evaluation(
            self, pattern_evaluations):
        sofos = Sofos(parse_turtle(AGG_TTL), agg_facet("AVG"))
        sofos.generate_workload(5)
        sofos.select_and_materialize("agg_values", k=2)
        assert pattern_evaluations == {"group_table": 1, "run_ids": 1}

    def test_fresh_sofos_scans_for_itself(self, pattern_evaluations):
        graph = parse_turtle(AGG_TTL)
        Sofos(graph, agg_facet("SUM")).profile()
        Sofos(graph, agg_facet("SUM")).profile()
        assert pattern_evaluations["group_table"] == 2

    def test_compare_cost_models_is_one_evaluation(self,
                                                   pattern_evaluations):
        sofos = Sofos(parse_turtle(AGG_TTL), agg_facet("COUNT"))
        report = sofos.compare_cost_models(
            ("triples", "agg_values", "nodes"), k=2)
        assert len(report.rows) == 3
        assert pattern_evaluations["group_table"] == 1

    def test_update_between_profile_and_materialize_rescans(
            self, pattern_evaluations):
        graph = parse_turtle(AGG_TTL)
        sofos = Sofos(graph, agg_facet("SUM"))
        stale = sofos.profile()
        selection = sofos.select("triples", k=2)
        new_observation(graph)
        catalog = sofos.materialize(selection)
        assert pattern_evaluations["group_table"] == 2
        # no stale table: the views hold the new observation ...
        scratch = Sofos(graph.copy(), agg_facet("SUM"))
        scratch.materialize(selection)
        for entry in catalog:
            twin = scratch.catalog.get(entry.definition)
            assert (entry.groups, entry.triples, entry.nodes) == \
                (twin.groups, twin.triples, twin.nodes)
        # ... and no stale profile: the next one is of the new graph
        before = pattern_evaluations["group_table"]
        fresh = sofos.profile()
        assert fresh is not stale
        assert fresh.base.rows == stale.base.rows + 1
        assert fresh.of(sofos.lattice.finest).rows == \
            stale.of(sofos.lattice.finest).rows + 1
        assert pattern_evaluations["group_table"] == before + 1

    def test_maintain_releases_the_kept_scan(self):
        graph = parse_turtle(AGG_TTL)
        sofos = Sofos(graph, agg_facet("SUM"), maintenance="incremental")
        sofos.select_and_materialize("triples", k=2)
        engine = sofos.offline.engine
        assert engine._scan is not None
        new_observation(graph)
        sofos.maintain()
        assert engine._scan is None
        assert engine.kept_scan() is None

    def test_foreign_dictionary_catalog_is_rejected(self):
        """View graphs are written and patched in the base graph's
        id-space; a dataset with its own dictionary cannot hold them."""
        graph = parse_turtle(AGG_TTL)
        with pytest.raises(ViewError, match="dictionary"):
            ViewCatalog(Dataset(), QueryEngine(graph))
        assert len(ViewCatalog(Dataset(graph.dictionary),
                               QueryEngine(graph))) == 0


class TestObservability:
    def test_scan_counter_and_profile_span(self):
        from repro.obs import hub
        h = hub()
        h.reset()
        h.enable()
        try:
            sofos = Sofos(parse_turtle(AGG_TTL), agg_facet("SUM"))
            sofos.select_and_materialize("triples", k=2)
            sofos.generate_workload(3)
            scans = h.metrics.get("facet_scan_total")
            assert scans.value(("scan",)) == 1
            assert scans.value(("reuse",)) == 2
            span = next(s for s in h.tracer.recent(20)
                        if s.name == "profile.rollup")
            assert span.tags["views"] == 4 and span.tags["groups"] == 6
        finally:
            h.disable()
            h.reset()
