"""Parity: the batched id-space executor vs the tuple-at-a-time reference.

Every query — generated workloads over all three demo datasets plus a
battery of hand-written edge cases (OPTIONAL, UNION, VALUES/UNDEF, AVG
roll-up shapes, ORDER BY, EXISTS, BIND) — must produce bag-equal result
tables through both pipelines.  The reference executor is the retained
seed engine (:mod:`repro.sparql.reference`); any divergence is a bug in
the batched pipeline.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.rdf import parse_turtle
from repro.sparql import QueryEngine, ReferenceExecutor, ResultTable
from repro.sparql.values import order_key
from repro.workload import WorkloadConfig, WorkloadGenerator

from tests.conftest import on_store, probe_rows

DATASETS = ("dbpedia", "lubm", "swdf")


def reference_table(graph, prepared) -> ResultTable:
    executor = ReferenceExecutor(graph)
    return ResultTable.from_bindings(
        prepared.ast.projected_variables(), executor.run(prepared.plan))


def assert_parity(engine: QueryEngine, query: str | object) -> ResultTable:
    prepared = engine.prepare(query)
    batched = engine.query(prepared)
    reference = reference_table(engine.graph, prepared)
    assert batched.same_solutions(reference), (
        f"batched/reference divergence on:\n{prepared.text}\n"
        f"batched {len(batched)} rows, reference {len(reference)} rows")
    return batched


class TestWorkloadParity:
    """Randomized analytical workloads, all datasets, both pipelines."""

    @pytest.mark.parametrize("name", DATASETS)
    def test_generated_workload_bag_equal(self, name):
        ds = load_dataset(name, "tiny")
        engine = QueryEngine(ds.graph)
        for facet_name, facet in sorted(ds.facets.items()):
            generator = WorkloadGenerator(
                facet, engine,
                WorkloadConfig(size=12, seed=sum(map(ord, facet_name)) % 1000,
                               filter_probability=0.7,
                               include_total_probability=0.2))
            for query in generator.generate():
                assert_parity(engine, query.to_select_query())

    @pytest.mark.parametrize("name", DATASETS)
    def test_materialization_queries_bag_equal(self, name):
        """The exact queries the view materializer runs (AVG roll-up shape:
        SUM + COUNT columns for AVG facets, measure + COUNT otherwise)."""
        from repro.cube.lattice import ViewLattice
        ds = load_dataset(name, "tiny")
        engine = QueryEngine(ds.graph)
        facet = ds.facet()
        lattice = ViewLattice(facet)
        for view in list(lattice)[:8]:
            assert_parity(engine, view.materialization_query())


EDGE_TTL = """
@prefix ex: <http://example.org/> .

ex:a ex:p ex:b ; ex:name "a" ; ex:score 3 .
ex:b ex:p ex:c ; ex:name "b" ; ex:score 5 .
ex:c ex:p ex:a ; ex:name "c" .
ex:d ex:name "d" ; ex:score 5 ; ex:tag "x" .
ex:e ex:name "e" ; ex:score 1 ; ex:tag "x" .
ex:a ex:knows ex:b , ex:d .
ex:b ex:knows ex:d .
ex:loop ex:p ex:loop .
"""

PREFIX = "PREFIX ex: <http://example.org/>\n"

EDGE_QUERIES = [
    # OPTIONAL: some subjects have no score / no tag.
    PREFIX + "SELECT ?s ?score WHERE { ?s ex:name ?n . "
             "OPTIONAL { ?s ex:score ?score . } }",
    # Nested OPTIONAL + join after OPTIONAL (unbound join variable).
    PREFIX + "SELECT ?s ?t ?score WHERE { ?s ex:name ?n . "
             "OPTIONAL { ?s ex:tag ?t . OPTIONAL { ?s ex:score ?score . } } }",
    # OPTIONAL whose inner filter references an outer variable.
    PREFIX + "SELECT ?s ?score WHERE { ?s ex:name ?n . "
             "OPTIONAL { ?s ex:score ?score . FILTER(?score > 2) } }",
    # UNION with disjoint and overlapping variables.
    PREFIX + "SELECT ?s ?o WHERE { { ?s ex:p ?o . } UNION "
             "{ ?s ex:knows ?o . } }",
    PREFIX + "SELECT ?x WHERE { { ?x ex:score 5 . } UNION "
             "{ ?x ex:name \"c\" . } }",
    # VALUES with UNDEF, joined against the graph.
    PREFIX + "SELECT ?s ?score WHERE { ?s ex:score ?score . "
             "VALUES (?s ?score) { (ex:b UNDEF) (UNDEF 3) } }",
    # VALUES introducing a fresh variable.
    PREFIX + "SELECT ?s ?bonus WHERE { ?s ex:score ?score . "
             "VALUES ?bonus { 10 20 } }",
    # Aggregates: AVG roll-up shape (SUM + COUNT), grouped and total.
    PREFIX + "SELECT ?tag (SUM(?score) AS ?sum) (COUNT(?score) AS ?n) "
             "WHERE { ?s ex:score ?score . OPTIONAL { ?s ex:tag ?tag . } } "
             "GROUP BY ?tag",
    PREFIX + "SELECT (AVG(?score) AS ?avg) WHERE { ?s ex:score ?score . }",
    PREFIX + "SELECT ?tag (AVG(?score) AS ?avg) WHERE { "
             "?s ex:score ?score ; ex:tag ?tag . } GROUP BY ?tag",
    PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p ?o . }",
    PREFIX + "SELECT (COUNT(DISTINCT ?score) AS ?n) WHERE "
             "{ ?s ex:score ?score . }",
    PREFIX + "SELECT (MIN(?score) AS ?lo) (MAX(?score) AS ?hi) WHERE "
             "{ ?s ex:score ?score . }",
    # Aggregation over empty input (implicit single group).
    PREFIX + "SELECT (SUM(?score) AS ?sum) (COUNT(*) AS ?n) WHERE "
             "{ ?s ex:missing ?score . }",
    # HAVING.
    PREFIX + "SELECT ?tag (COUNT(*) AS ?n) WHERE { ?s ex:tag ?tag ; "
             "ex:score ?score . } GROUP BY ?tag HAVING (COUNT(*) > 1)",
    # DISTINCT over partially-unbound rows.
    PREFIX + "SELECT DISTINCT ?score WHERE { ?s ex:name ?n . "
             "OPTIONAL { ?s ex:score ?score . } }",
    # FILTER: comparison, IN, logical, regex-free string builtin.
    PREFIX + "SELECT ?s WHERE { ?s ex:score ?score . FILTER(?score >= 3) }",
    PREFIX + "SELECT ?s WHERE { ?s ex:name ?n . "
             "FILTER(?n IN (\"a\", \"d\")) }",
    PREFIX + "SELECT ?s WHERE { ?s ex:score ?score . "
             "FILTER(?score > 1 && ?score < 5) }",
    # FILTER on an unbound variable (always an error → dropped).
    PREFIX + "SELECT ?s WHERE { ?s ex:name ?n . "
             "OPTIONAL { ?s ex:tag ?t . } FILTER(?t = \"x\") }",
    # EXISTS / NOT EXISTS.
    PREFIX + "SELECT ?s WHERE { ?s ex:name ?n . "
             "FILTER EXISTS { ?s ex:score ?score . } }",
    PREFIX + "SELECT ?s WHERE { ?s ex:name ?n . "
             "FILTER NOT EXISTS { ?s ex:tag ?t . } }",
    # BIND: arithmetic, constant, and IF.
    PREFIX + "SELECT ?s ?double WHERE { ?s ex:score ?score . "
             "BIND(?score * 2 AS ?double) }",
    PREFIX + "SELECT ?s ?k WHERE { ?s ex:score ?score . "
             "BIND(IF(?score > 3, \"hi\", \"lo\") AS ?k) }",
    # Same variable twice in one pattern (self-loop).
    PREFIX + "SELECT ?x WHERE { ?x ex:p ?x . }",
    # Cyclic join.
    PREFIX + "SELECT ?a ?b ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . "
             "?c ex:p ?a . }",
    # Cross product (no shared variables).
    PREFIX + "SELECT ?a ?t WHERE { ?a ex:p ?b . ?x ex:tag ?t . }",
    # Unknown constant: zero matches.
    PREFIX + "SELECT ?s WHERE { ?s ex:nothere ex:never . }",
]

ORDERED_QUERIES = [
    # ORDER BY with ties, DESC, multiple conditions, and LIMIT/OFFSET
    # under a total order.
    (PREFIX + "SELECT ?s ?score WHERE { ?s ex:score ?score . } "
              "ORDER BY DESC(?score) ?s", ["score", "s"]),
    (PREFIX + "SELECT ?n WHERE { ?s ex:name ?n . } ORDER BY ?n", ["n"]),
    (PREFIX + "SELECT ?n WHERE { ?s ex:name ?n . } "
              "ORDER BY DESC(?n) LIMIT 3", ["n"]),
    (PREFIX + "SELECT ?n WHERE { ?s ex:name ?n . } "
              "ORDER BY ?n OFFSET 1 LIMIT 2", ["n"]),
    # ORDER BY an OPTIONAL (sometimes-unbound) variable.
    (PREFIX + "SELECT ?s ?score WHERE { ?s ex:name ?n . "
              "OPTIONAL { ?s ex:score ?score . } } "
              "ORDER BY ?score ?s", ["score", "s"]),
]


class TestEdgeCaseParity:
    @pytest.fixture(scope="class")
    def engine(self):
        return QueryEngine(parse_turtle(EDGE_TTL))

    @pytest.mark.parametrize("query", EDGE_QUERIES,
                             ids=range(len(EDGE_QUERIES)))
    def test_edge_query_bag_equal(self, engine, query):
        assert_parity(engine, query)

    @pytest.mark.parametrize("query,sort_vars", ORDERED_QUERIES,
                             ids=range(len(ORDERED_QUERIES)))
    def test_order_by_sequences_match(self, engine, query, sort_vars):
        """ORDER BY: bags must match *and* both engines' outputs must be
        exactly sorted, so the per-row sort-key sequences coincide (row
        order inside tie groups is implementation-defined)."""
        prepared = engine.prepare(query)
        batched = engine.query(prepared)
        reference = reference_table(engine.graph, prepared)
        assert batched.same_solutions(reference)

        def key_seq(table: ResultTable) -> list[tuple]:
            cols = [table.column(v) for v in sort_vars]
            return [tuple(order_key(c[i]) for c in cols)
                    for i in range(len(table))]

        assert key_seq(batched) == key_seq(reference)

    def test_seeded_run_matches(self, engine):
        from repro.rdf.terms import Variable
        from repro.sparql import translate_query, parse_query
        ast = parse_query(PREFIX + "SELECT ?n WHERE { ?s ex:name ?n . }")
        plan = translate_query(ast)
        seed = {Variable("s"): next(iter(engine.graph.subjects()))}
        batched = sorted(
            tuple(sorted((v.name, t.n3()) for v, t in b.items()))
            for b in engine.executor.run(plan, seed))
        reference = sorted(
            tuple(sorted((v.name, t.n3()) for v, t in b.items()))
            for b in ReferenceExecutor(engine.graph).run(plan, seed))
        assert batched == reference


# --------------------------------------------------------------------------
# FILTER placement: a condition runs at the first probe that binds it
# --------------------------------------------------------------------------

PLACEMENT_TTL = """
@prefix ex: <http://example.org/> .

ex:a ex:p ex:b ; ex:name "a" ; ex:score 3 ; ex:val 5 .
ex:b ex:p ex:c ; ex:name "b" ; ex:score 5 ; ex:val ex:a .
ex:c ex:p ex:a ; ex:name "c" ; ex:score 1 ; ex:val 1 .
ex:d ex:p ex:a ; ex:name "d" ; ex:score 5 ; ex:tag "x" ; ex:val "n/a" .
ex:e ex:p ex:d ; ex:name "e" ; ex:score 1 ; ex:tag "x" .
ex:f ex:name "f" ; ex:tag "y" .
ex:a ex:knows ex:b , ex:d .
ex:b ex:knows ex:d , ex:e .
"""

PLACEMENT_QUERIES = {
    "one variable":
        "SELECT ?s ?n WHERE { ?s ex:name ?n ; ex:p ?o ; ex:score ?sc . "
        "FILTER(?sc >= 3) }",
    "two variables bound by different patterns":
        "SELECT ?a ?b WHERE { ?a ex:p ?b . ?a ex:score ?x . "
        "?b ex:score ?y . ?a ex:name ?n . FILTER(?x < ?y) }",
    "two stacked filters":
        "SELECT ?a ?b WHERE { ?a ex:p ?b . ?a ex:score ?x . "
        "?b ex:score ?y . ?a ex:name ?n . FILTER(?x <= ?y) "
        "FILTER(?n != \"c\") }",
    "an expression that errors on some rows":
        "SELECT ?s ?n WHERE { ?s ex:val ?v . ?s ex:name ?n . ?s ex:p ?o . "
        "FILTER(?v + 1 > 2) }",
    "an expression that errors on every row":
        "SELECT ?s WHERE { ?s ex:p ?o . ?s ex:name ?n . "
        "FILTER(?o + 1 > 2) }",
    "!BOUND of a variable no pattern binds (late)":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . "
        "FILTER(!BOUND(?nowhere)) }",
    "a variable no pattern binds (late, always an error)":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . "
        "FILTER(?nowhere > 1 || ?sc > 100) }",
    "!BOUND of a variable a pattern binds":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . "
        "FILTER(!BOUND(?sc)) }",
    "EXISTS (late)":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . "
        "FILTER EXISTS { ?s ex:tag ?t . } FILTER(?sc > 1) }",
    "NOT EXISTS (late)":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . "
        "FILTER NOT EXISTS { ?s ex:knows ?k . ?k ex:score ?sc . } }",
    "inside OPTIONAL, reading a left-side variable":
        "SELECT ?s ?o ?os WHERE { ?s ex:score ?sc . OPTIONAL { "
        "?s ex:knows ?o . ?o ex:score ?os . FILTER(?os > ?sc) } }",
    "inside OPTIONAL, on the optional side only":
        "SELECT ?s ?o WHERE { ?s ex:name ?n . OPTIONAL { "
        "?s ex:knows ?o . ?o ex:score ?os . FILTER(?os > 1) } }",
    "under a seed whose shared column has unbound rows":
        "SELECT ?s ?t ?x WHERE { ?s ex:name ?n . OPTIONAL { ?s ex:tag ?t . } "
        "OPTIONAL { ?x ex:tag ?t . ?x ex:score ?sc . "
        "FILTER(?t = \"x\" && ?sc > 2) } }",
    "BIND between the BGP and the filter (not a stack)":
        "SELECT ?s ?d WHERE { ?s ex:score ?sc . ?s ex:name ?n . "
        "BIND(?sc * 2 AS ?d) FILTER(?d > 5) }",
    "a constant condition":
        "SELECT ?s WHERE { ?s ex:name ?n ; ex:score ?sc . FILTER(1 = 2) }",
    "a filter over no pattern at all":
        "SELECT ?s WHERE { ?s ex:name ?n . OPTIONAL { FILTER(?n = \"a\") } }",
    "a disconnected BGP, one filter per island":
        "SELECT ?a ?x WHERE { ?a ex:score ?sa . ?x ex:tag ?t . "
        "FILTER(?sa > 3) FILTER(?t = \"x\") }",
}


@pytest.fixture(params=["hub off", "hub on"])
def hub_state(request):
    from repro.obs import hub
    h = hub()
    h.disable()
    h.reset()
    if request.param == "hub on":
        h.enable(tracing=False)
    yield h
    h.disable()
    h.reset()


@pytest.mark.parametrize("store", ["dict", "columnar"])
class TestFilterPlacementParity:
    """Selection commutes with a join on bound columns: wherever the plan
    runs a condition, the bag is the reference's (which filters last)."""

    @pytest.mark.parametrize("case", PLACEMENT_QUERIES)
    def test_placement_case_bag_equal(self, store, hub_state, case):
        engine = QueryEngine(on_store(parse_turtle(PLACEMENT_TTL), store))
        table = assert_parity(engine, PREFIX + PLACEMENT_QUERIES[case])
        if "errors on every row" in case or "always an error" in case \
                or "constant" in case:
            assert len(table) == 0
        elif "late" in case or "some rows" in case or "stacked" in case:
            assert 0 < len(table)

    @pytest.mark.parametrize("name", DATASETS)
    def test_rewritten_view_queries_with_one_and_two_filters(
            self, store, hub_state, name):
        """The facet's query over its finest view, as the router sends it."""
        from repro.cube import ViewLattice
        from repro.rdf import Dataset
        from repro.views import ViewCatalog, rewrite_on_view
        ds = load_dataset(name, "tiny")
        dataset = Dataset.wrap(on_store(ds.graph, store))
        facet = ds.facet()
        view = ViewLattice(facet)[facet.lattice_size - 1]
        ViewCatalog(dataset).materialize(view)
        base = QueryEngine(dataset.default)
        on_view = QueryEngine(dataset.graph(view.iri))
        generator = WorkloadGenerator(
            facet, base, WorkloadConfig(size=30, seed=5,
                                        filter_probability=1.0))
        seen: set[int] = set()
        for query in generator.generate():
            if len(query.filters) not in (1, 2):
                continue
            seen.add(len(query.filters))
            via_view = assert_parity(on_view, rewrite_on_view(query, view))
            direct = assert_parity(base, query.to_select_query())
            assert via_view.same_solutions(direct)
        assert seen == {1, 2}


class TestFilterPlacementWork:
    def test_a_filtered_cube_query_probes_a_third_of_the_rows(self):
        """DBpedia 4-d cube, ``FILTER(?continent = …)``: the condition
        runs after the second probe, not after the sixth."""
        from dataclasses import replace
        from repro.sparql.ast import CompareExpr, FilterElement, \
            GroupPattern, TermExpr, VarExpr
        ds = load_dataset("dbpedia", "tiny")
        engine = QueryEngine(ds.graph)
        facet = ds.facets["population_cube_4d"]
        unfiltered = facet.binding_query()
        continent = next(v for v in facet.grouping_variables
                         if v.name == "continent")
        value = sorted(engine.query(unfiltered).column(continent),
                       key=lambda t: t.n3())[0]
        filtered = replace(unfiltered, where=GroupPattern(
            unfiltered.where.elements + (FilterElement(CompareExpr(
                "=", VarExpr(continent), TermExpr(value))),)))
        assert 0 < len(engine.query(filtered)) < len(engine.query(unfiltered))

        def probed(query) -> int:
            prepared = engine.prepare(query)
            return probe_rows(lambda: engine.query(prepared))

        assert 3 * probed(filtered) <= probed(unfiltered)


# --------------------------------------------------------------------------
# Observation: a traced run is the same run, and its spans are the plan
# --------------------------------------------------------------------------

OBSERVED = [(EDGE_TTL, query) for query in EDGE_QUERIES] \
    + [(EDGE_TTL, query) for query, _ in ORDERED_QUERIES] \
    + [(PLACEMENT_TTL, PREFIX + query)
       for query in PLACEMENT_QUERIES.values()]


@pytest.mark.parametrize("store", ["dict", "columnar"])
def test_the_battery_under_the_tracer(store):
    """With the tracer live every query returns the bag it returns with
    it off, its ``executor.run`` root has the plan's root operator as a
    child carrying the rows that came out, and the span tree serializes
    (the operator is on the span, not in a tag)."""
    import json
    from repro.obs import tracer
    engines = {ttl: QueryEngine(on_store(parse_turtle(ttl), store))
               for ttl in (EDGE_TTL, PLACEMENT_TTL)}
    ring = list(tracer().finished)
    for ttl, query in OBSERVED:
        engine = engines[ttl]
        prepared = engine.prepare(query)
        quiet = engine.query(prepared)
        with tracer().capture() as roots:
            traced = engine.query(prepared)
        assert traced.same_solutions(quiet), query
        run, = roots
        assert run.name == "executor.run" and run.children, query
        top = run.children[0]
        assert top.ref is prepared.plan, query
        assert top.tags["rows_out"] == len(quiet), query
        assert all(sp.end >= sp.start for sp in run.walk()), query
        json.dumps(run.to_dict())
    assert not tracer().enabled and list(tracer().finished) == ring
