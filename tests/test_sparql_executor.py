"""Behavioral tests for the query executor, end to end through the engine."""

import pytest

from repro.errors import QueryEvaluationError
from repro.rdf import Graph, IRI, Literal, Namespace, Triple, Variable, \
    parse_turtle, typed_literal
from repro.sparql import QueryEngine, parse_query

EX = Namespace("http://example.org/")

DATA = """
@prefix ex: <http://example.org/> .

ex:alice ex:name "Alice" ; ex:age 30 ; ex:knows ex:bob , ex:carol .
ex:bob   ex:name "Bob"   ; ex:age 25 ; ex:knows ex:carol .
ex:carol ex:name "Carol" ; ex:age 35 .
ex:dave  ex:name "Dave"  ; ex:age 25 ; ex:email "dave@x.org" .
"""


@pytest.fixture(scope="module")
def engine() -> QueryEngine:
    return QueryEngine(parse_turtle(DATA))


PREFIX = "PREFIX ex: <http://example.org/>\n"


def names(table, var="name"):
    return sorted(t.lexical for t in table.column(var) if t is not None)


class TestBGP:
    def test_single_pattern(self, engine):
        t = engine.query(PREFIX + "SELECT ?n WHERE { ex:alice ex:name ?n . }")
        assert t.column("n") == [Literal("Alice")]

    def test_join_two_patterns(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ex:alice ex:knows ?friend .
                ?friend ex:name ?name .
            }""")
        assert names(t) == ["Bob", "Carol"]

    def test_three_way_join(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?a ?c WHERE {
                ?a ex:knows ?b .
                ?b ex:knows ?c .
            }""")
        assert t.rows == [(EX.alice, EX.carol)]

    def test_repeated_variable_in_pattern(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.a))
        g.add(Triple(EX.a, EX.p, EX.b))
        t = QueryEngine(g).query(
            PREFIX + "SELECT ?x WHERE { ?x ex:p ?x . }")
        assert t.rows == [(EX.a,)]

    def test_constant_not_in_graph_yields_empty(self, engine):
        t = engine.query(PREFIX + "SELECT ?n WHERE { ex:zed ex:name ?n . }")
        assert len(t) == 0

    def test_unsatisfiable_join_yields_empty(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?n WHERE {
                ex:carol ex:knows ?x .
                ?x ex:name ?n .
            }""")
        assert len(t) == 0

    def test_cartesian_product_of_disconnected_patterns(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        g.add(Triple(EX.c, EX.q, EX.d))
        t = QueryEngine(g).query(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:p ?y . ?u ex:q ?v . }")
        assert len(t) == 1


class TestFilter:
    def test_numeric_comparison(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name ; ex:age ?age . FILTER(?age > 28)
            }""")
        assert names(t) == ["Alice", "Carol"]

    def test_filter_error_is_false_not_crash(self, engine):
        # STRLEN of an unbound var errors -> row dropped, query succeeds
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name .
                OPTIONAL { ?p ex:email ?e . }
                FILTER(STRLEN(?e) > 0)
            }""")
        assert names(t) == ["Dave"]

    def test_in_filter(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name . FILTER(?name IN ("Alice", "Dave"))
            }""")
        assert names(t) == ["Alice", "Dave"]

    def test_regex_filter(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name . FILTER(REGEX(?name, "^[AB]"))
            }""")
        assert names(t) == ["Alice", "Bob"]

    def test_logical_connectives(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name ; ex:age ?age .
                FILTER(?age = 25 || ?name = "Carol")
            }""")
        assert names(t) == ["Bob", "Carol", "Dave"]


class TestOptional:
    def test_left_rows_survive(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name ?e WHERE {
                ?p ex:name ?name .
                OPTIONAL { ?p ex:email ?e . }
            }""")
        assert len(t) == 4
        emails = {row[0].lexical: row[1] for row in t.rows}
        assert emails["Dave"] == Literal("dave@x.org")
        assert emails["Alice"] is None

    def test_bound_discriminates(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name .
                OPTIONAL { ?p ex:email ?e . }
                FILTER(!BOUND(?e))
            }""")
        assert names(t) == ["Alice", "Bob", "Carol"]

    def test_optional_multiplies_on_multiple_matches(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?friend WHERE {
                ex:alice ex:name ?n .
                OPTIONAL { ex:alice ex:knows ?friend . }
            }""")
        assert len(t) == 2

    def test_nested_optional(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name ?fn WHERE {
                ?p ex:name ?name .
                OPTIONAL {
                    ?p ex:knows ?f .
                    OPTIONAL { ?f ex:name ?fn . }
                }
            }""")
        by_name = {}
        for row in t.rows:
            by_name.setdefault(row[0].lexical, set()).add(row[1])
        assert by_name["Carol"] == {None}
        assert {v.lexical for v in by_name["Alice"]} == {"Bob", "Carol"}


class TestUnionValuesBind:
    def test_union(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                { ?p ex:age 25 . } UNION { ?p ex:age 35 . }
                ?p ex:name ?name .
            }""")
        assert names(t) == ["Bob", "Carol", "Dave"]

    def test_union_duplicates_kept_without_distinct(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?p WHERE {
                { ?p ex:age 25 . } UNION { ?p ex:name "Bob" . }
            }""")
        assert len(t) == 3  # bob appears twice

    def test_values_restricts(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name .
                VALUES ?p { ex:alice ex:dave }
            }""")
        assert names(t) == ["Alice", "Dave"]

    def test_values_with_undef(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name ?age WHERE {
                ?p ex:name ?name ; ex:age ?age .
                VALUES (?name ?age) { ("Bob" UNDEF) (UNDEF 35) }
            }""")
        assert names(t) == ["Bob", "Carol"]

    def test_bind_computes(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name ?next WHERE {
                ?p ex:name ?name ; ex:age ?age .
                BIND(?age + 1 AS ?next)
                FILTER(?next = 26)
            }""")
        assert names(t) == ["Bob", "Dave"]

    def test_bind_error_leaves_unbound(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name ?bad WHERE {
                ?p ex:name ?name .
                BIND(?name + 1 AS ?bad)
            }""")
        assert len(t) == 4
        assert all(row[1] is None for row in t.rows)


class TestAggregation:
    def test_count_star_no_group(self, engine):
        t = engine.query(PREFIX +
                         "SELECT (COUNT(*) AS ?n) WHERE { ?p ex:name ?o . }")
        assert t.python_value() == 4

    def test_group_by_with_sum(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?age (COUNT(?p) AS ?n) WHERE {
                ?p ex:age ?age .
            } GROUP BY ?age ORDER BY ?age""")
        assert [(r[0].to_python(), r[1].to_python()) for r in t.rows] == [
            (25, 2), (30, 1), (35, 1)]

    def test_avg_min_max(self, engine):
        t = engine.query(PREFIX + """
            SELECT (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi)
            WHERE { ?p ex:age ?a . }""")
        row = t.rows[0]
        assert row[0].to_python() == pytest.approx(28.75)
        assert row[1].to_python() == 25
        assert row[2].to_python() == 35

    def test_aggregate_over_empty_input_single_group(self, engine):
        t = engine.query(PREFIX + """
            SELECT (COUNT(?p) AS ?n) (SUM(?a) AS ?s) WHERE {
                ?p ex:age ?a . FILTER(?a > 1000)
            }""")
        assert t.rows[0][0].to_python() == 0
        assert t.rows[0][1].to_python() == 0

    def test_group_by_empty_input_no_rows(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?age (COUNT(?p) AS ?n) WHERE {
                ?p ex:age ?age . FILTER(?age > 1000)
            } GROUP BY ?age""")
        assert len(t) == 0

    def test_having(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?age (COUNT(?p) AS ?n) WHERE {
                ?p ex:age ?age .
            } GROUP BY ?age HAVING((COUNT(?p)) > 1)""")
        assert len(t) == 1
        assert t.rows[0][0].to_python() == 25

    def test_expression_over_aggregates(self, engine):
        t = engine.query(PREFIX + """
            SELECT (SUM(?a) / COUNT(?a) AS ?mean) WHERE { ?p ex:age ?a . }""")
        assert t.python_value() == pytest.approx(28.75)

    def test_count_distinct(self, engine):
        t = engine.query(PREFIX + """
            SELECT (COUNT(DISTINCT ?age) AS ?n) WHERE { ?p ex:age ?age . }""")
        assert t.python_value() == 3

    def test_projecting_ungrouped_variable_fails(self, engine):
        with pytest.raises(QueryEvaluationError):
            engine.query(PREFIX + """
                SELECT ?name (COUNT(?p) AS ?n) WHERE {
                    ?p ex:name ?name ; ex:age ?age .
                } GROUP BY ?age""")

    def test_ungrouped_variable_inside_expression_fails(self, engine):
        with pytest.raises(QueryEvaluationError):
            engine.query(PREFIX + """
                SELECT (?name AS ?alias) (COUNT(?p) AS ?n) WHERE {
                    ?p ex:name ?name ; ex:age ?age .
                } GROUP BY ?age""")


class TestSolutionModifiers:
    def test_order_by_asc_desc(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?age . }
            ORDER BY DESC(?age) ?name""")
        assert [r[0].lexical for r in t.rows] == \
            ["Carol", "Alice", "Bob", "Dave"]

    def test_order_by_expression(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE { ?p ex:name ?name ; ex:age ?age . }
            ORDER BY (0 - ?age)""")
        assert t.rows[0][0].lexical == "Carol"

    def test_limit_offset(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE { ?p ex:name ?name . }
            ORDER BY ?name LIMIT 2 OFFSET 1""")
        assert [r[0].lexical for r in t.rows] == ["Bob", "Carol"]

    def test_distinct(self, engine):
        t = engine.query(PREFIX +
                         "SELECT DISTINCT ?age WHERE { ?p ex:age ?age . }")
        assert len(t) == 3

    def test_projection_expression(self, engine):
        t = engine.query(PREFIX + """
            SELECT (?age * 2 AS ?double) WHERE { ex:bob ex:age ?age . }""")
        assert t.python_value() == 50


class TestExists:
    def test_exists(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name .
                FILTER(EXISTS { ?p ex:knows ?x . })
            }""")
        assert names(t) == ["Alice", "Bob"]

    def test_not_exists(self, engine):
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name .
                FILTER(NOT EXISTS { ?x ex:knows ?p . })
            }""")
        assert names(t) == ["Alice", "Dave"]

    def test_exists_is_correlated(self, engine):
        # ?p inside EXISTS refers to the outer binding, not a fresh variable
        t = engine.query(PREFIX + """
            SELECT ?name WHERE {
                ?p ex:name ?name ; ex:age 25 .
                FILTER(EXISTS { ?p ex:email ?e . })
            }""")
        assert names(t) == ["Dave"]


class TestEngineFacade:
    def test_prepared_query_reuse(self, engine):
        prepared = engine.prepare(
            PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }")
        first = engine.query(prepared)
        second = engine.query(prepared)
        assert first.python_value() == second.python_value()

    def test_timed_query_returns_elapsed(self, engine):
        table, seconds = engine.timed_query(
            PREFIX + "SELECT ?s WHERE { ?s ex:age 25 . }")
        assert len(table) == 2
        assert seconds >= 0.0

    def test_seed_binding_scopes_bgp(self, engine):
        from repro.sparql.algebra import translate_query
        from repro.sparql.executor import Executor
        ast = parse_query(PREFIX + "SELECT ?n WHERE { ?p ex:name ?n . }")
        executor = Executor(engine.graph)
        seeded = list(executor.run(translate_query(ast),
                                   seed={Variable("p"): EX.bob}))
        assert len(seeded) == 1
        assert seeded[0][Variable("n")] == Literal("Bob")


class TestJoinOrderCliff:
    """`deep-join`'s shape across the papers/edition boundary where the
    old rule flipped to a cross product: the guard is a row count."""

    SIZES = ((40, 45), (45, 50), (50, 55))

    @staticmethod
    def _scan(store: str, papers: tuple[int, int]):
        """``(|G|, rows after each probe, probe rows)`` of one facet scan."""
        from dataclasses import replace
        from repro.datasets import SWDFConfig, dataset_spec, generate_swdf
        from tests.conftest import probe_rows
        specs = {f.name: f for f in dataset_spec("swdf").facets}
        facet = specs["papers_by_country"].build()
        graph = generate_swdf(
            replace(SWDFConfig(seed=7), years=(2017, 2018, 2019),
                    authors_pool=200, papers_per_edition_min=papers[0],
                    papers_per_edition_max=papers[1]),
            Graph(store=store))
        engine = QueryEngine(graph)
        explained = []
        probed = probe_rows(lambda: explained.append(
            engine.explain(facet.binding_query())))
        explained, = explained
        bgp, = (n for n in explained.root.walk() if n.operator == "BGP")
        sizes = [int(step.split("→")[1])
                 for step in bgp.detail.split(": ")[1].split()]
        assert len(sizes) == 6 and sizes[-1] == bgp.rows_out
        return len(graph), sizes, probed

    @pytest.mark.parametrize("store", ["dict", "columnar"])
    def test_no_batch_outgrows_the_result_at_any_size(self, store):
        scans = [self._scan(store, papers) for papers in self.SIZES]
        for triples, sizes, probed in scans:
            # parent: 60,720 and 151,800 rows on the way to 1,860
            assert max(sizes) <= 2 * sizes[-1], sizes
            assert probed <= triples
        # Work follows the data.  Papers grow while the 200 authors and
        # 80 organizations do not, so probe rows per triple creep up by
        # 1-3 %; falling off the cliff was 47x.
        (g0, _, p0), *larger = scans
        for triples, _, probed in larger:
            assert probed / p0 <= 1.05 * triples / g0
