"""EXPLAIN ANALYZE: measured plan trees and routing decisions."""

from __future__ import annotations

import pytest

from repro.core.sofos import Sofos
from repro.cube import AnalyticalQuery
from repro.obs.explain import ExplainNode, QueryExplain, RoutedExplain
from repro.selection import UserSelection
from repro.sparql import QueryEngine

from tests.conftest import build_population_graph

POP_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?year
"""


@pytest.fixture
def engine() -> QueryEngine:
    return QueryEngine(build_population_graph())


@pytest.fixture
def sofos(population_facet) -> Sofos:
    return Sofos(build_population_graph(), population_facet, seed=0)


class TestEngineExplain:
    def test_rows_match_the_real_query(self, engine):
        ex = engine.explain(POP_QUERY)
        table = engine.query(POP_QUERY)
        assert isinstance(ex, QueryExplain)
        assert ex.rows == len(table)
        assert ex.root.rows_out == len(table)

    def test_tree_structure_and_invariants(self, engine):
        ex = engine.explain(POP_QUERY)
        nodes = list(ex.root.walk())
        assert len(nodes) >= 3          # Project > ... > BGP at minimum
        operators = {n.operator for n in nodes}
        assert "Project" in operators
        for node in nodes:
            assert node.calls >= 1
            assert node.seconds >= 0.0
            assert 0.0 <= node.self_seconds <= node.seconds + 1e-9
            assert isinstance(node, ExplainNode)
        # inclusive time covers the children
        for node in nodes:
            child_sum = sum(c.seconds for c in node.children)
            assert node.seconds >= child_sum - 1e-9

    def test_totals_agree_with_timed_query(self, engine):
        prepared = engine.prepare(POP_QUERY)
        # warm caches on both paths so the comparison sees steady state
        engine.query(prepared)
        ex = engine.explain(prepared)
        _table, seconds = engine.timed_query(prepared)
        assert ex.total_seconds > 0.0
        assert seconds > 0.0
        # Same code path, thin timing wrapper: totals agree within noise.
        # Tiny queries are jittery, so the bound is generous but two-sided.
        ratio = ex.total_seconds / seconds
        assert 1 / 50 < ratio < 50
        assert ex.total_seconds >= ex.root.seconds
        assert ex.decode_seconds >= 0.0

    def test_render_mentions_operators_and_rows(self, engine):
        text = engine.explain(POP_QUERY).render()
        assert "EXPLAIN ANALYZE" in text
        assert "Project" in text
        assert "rows=" in text

    def test_to_dict_is_json_shaped(self, engine):
        payload = engine.explain(POP_QUERY).to_dict()
        assert payload["rows"] == payload["plan"]["rows_out"]
        assert isinstance(payload["plan"]["children"], list)


FILTERED_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?year (SUM(?pop) AS ?total) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
  FILTER(?lang = ex:french)
  FILTER(?pop > 36)
  FILTER NOT EXISTS { ?c ex:partOf ex:eu . }
} GROUP BY ?year
"""


class TestExplainShowsThePlanThatRan:
    @staticmethod
    def _steps(node) -> list[tuple[int, int]]:
        """``[(pattern, rows after its probe), ...]`` off a BGP's detail."""
        head, _, ran = node.detail.partition(": ")
        assert head.endswith("pattern(s)")
        return [tuple(map(int, step.split("→"))) for step in ran.split()]

    def test_bgp_lists_probe_order_with_rows(self, engine):
        ex = engine.explain(POP_QUERY)
        bgp, = (n for n in ex.root.walk() if n.operator == "BGP")
        steps = self._steps(bgp)
        assert sorted(i for i, _ in steps) == [0, 1, 2, 3]
        assert steps[-1][1] == bgp.rows_out == 9   # canada speaks twice
        prepared = engine.prepare(POP_QUERY)
        assert [i for i, _ in steps] == engine.executor.bgp_order(
            prepared.plan.child.child.child.patterns)

    def test_filters_say_where_they_ran_and_what_they_saw(self, engine):
        ex = engine.explain(FILTERED_QUERY)
        assert ex.rows == len(engine.query(FILTERED_QUERY)) == 1
        nodes = list(ex.root.walk())
        # the facet's BGP, then the NOT EXISTS group's, under its filter
        bgp, group = (n for n in nodes if n.operator == "BGP")
        where = {f.detail.split(":")[0]: f for f in nodes
                 if f.operator == "Filter"}
        assert set(where) == {"filter before pattern 3",
                              "filter after pattern 3",
                              "filter after pattern 2"}
        # ?lang = french ran on the 4 languages and seeded the probes with
        # the one it accepts; canada and france speak french
        assert where["filter before pattern 3"].detail.endswith(
            ": 4→1 values")
        assert self._steps(bgp) == [(3, 2), (0, 2), (2, 2), (1, 1)]
        # NOT EXISTS reads ?c, which pattern 3 binds: it runs right after
        # it and drops france.  It was a domain seed candidate too, but a
        # semi-join's domain is read only if no plain condition is pushed,
        # and french was: its group ran once, on the 2 rows' keys
        not_exists = where["filter after pattern 3"]
        assert not_exists.detail == ("filter after pattern 3: 2→1 rows, "
                                     "exists: 2 keys→1 matched")
        assert not_exists.children[1] is group
        assert (group.calls, group.rows_in, group.rows_out) == (1, 2, 1)
        # ?pop > 36 needs pattern 2 and runs right after it
        after = where["filter after pattern 2"]
        assert (after.rows_in, after.rows_out) == (2, 1)
        assert bgp.rows_out == 1 < 9   # an unfiltered evaluation ends with 9
        for node in nodes:
            assert node.calls == 1

        # Without NOT EXISTS in the stack, ?lang = french reads one variable
        # bound as the object of ex:language, whose 4 languages are fewer
        # than the 5 triples the first probe would read: it runs first, on
        # those values, and the probes start from the one it accepts.
        pushed_query = FILTERED_QUERY.replace(
            "FILTER NOT EXISTS { ?c ex:partOf ex:eu . }", "")
        ex = engine.explain(pushed_query)
        assert ex.rows == len(engine.query(pushed_query)) == 2
        nodes = list(ex.root.walk())
        bgp, = (n for n in nodes if n.operator == "BGP")
        steps = self._steps(bgp)
        where = {f.detail.split(":")[0]: f for f in nodes
                 if f.operator == "Filter"}
        assert set(where) == {"filter before pattern 3",
                              "filter after pattern 2"}
        before = where["filter before pattern 3"]
        assert (before.rows_in, before.rows_out) == (4, 1)
        assert before.detail.endswith(": 4→1 values")
        assert steps[0] == (3, 2)      # canada and france speak french
        after = where["filter after pattern 2"]
        assert after.rows_in == dict(steps)[2] and after.rows_out < \
            after.rows_in

    def test_a_seeded_filter_waits_for_the_pattern_that_binds_it(
            self, engine):
        """?lang is in the seed with unbound rows (italy's observation
        has no optional match below): only this BGP's own pattern fills
        the column, so the condition is placed after it, not before."""
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?c ?lang ?o WHERE {
              ?c ex:name ?n .
              OPTIONAL { ?c ex:partOf ?lang . }
              OPTIONAL { ?o ex:ofCountry ?c . ?c ex:language ?lang .
                         FILTER(?lang = ex:french) }
            }"""
        ex = engine.explain(query)
        assert ex.rows == len(engine.query(query))
        inner, = (n for n in ex.root.walk() if n.operator == "Filter")
        assert "after pattern 1" in inner.detail

    def test_a_filter_whose_condition_never_ran_claims_no_placement(
            self, engine):
        """ex:nope is unknown to the dictionary: the BGP matches nothing
        and returns before any probe, so no condition is evaluated."""
        query = """
            PREFIX ex: <http://example.org/>
            SELECT ?c WHERE { ?o ex:ofCountry ?c . ?o ex:nope ?z .
                              FILTER(?z > 3) }"""
        ex = engine.explain(query)
        assert ex.rows == len(engine.query(query)) == 0
        node, = (n for n in ex.root.walk() if n.operator == "Filter")
        assert node.detail == "filter" and node.calls == 0

    def test_an_operator_evaluated_twice_shows_its_first_trace(self, engine):
        """Rows and calls accumulate over evaluations; the trace beside
        them is one run's, and says so."""
        from repro.obs import tracer
        from repro.obs.explain import build_query_explain
        from repro.sparql.algebra import UnionOp
        stack = engine.prepare("""
            PREFIX ex: <http://example.org/>
            SELECT * WHERE { ?o ex:ofCountry ?c . ?o ex:population ?pop .
                             FILTER(?pop > 36) }""").plan.child
        once = len(engine.executor.run_ids(stack))
        with tracer().capture() as roots:
            batch = engine.executor.run_ids(UnionOp((stack, stack)))
        ex = build_query_explain(roots[-1], batch, 0.0)
        assert len(batch) == 2 * once
        for node in ex.root.children:
            bgp, = node.children
            assert (node.operator, bgp.operator) == ("Filter", "BGP")
            assert node.calls == bgp.calls == 2
            assert node.rows_out == 2 * once
            assert node.detail.startswith(
                "filter after pattern 1 (first of 2 calls): ")
            assert bgp.detail.endswith(" (first of 2 calls)")
            # the trace is the first run's: it ends on one run's rows
            assert f"→{bgp.rows_out // 2} (first" in bgp.detail


SEMI_JOIN_QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?c (COUNT(?obs) AS ?n) WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year .
  FILTER NOT EXISTS { ?c ex:partOf ?union . }
} GROUP BY ?c
"""


class TestExplainShowsTheSemiJoin:
    """An EXISTS is one run of its group, seeded with the distinct keys of
    the variables it mentions: its operators appear once, under the
    operator whose expression holds it, which counts keys and matches."""

    def test_the_group_runs_once_under_its_filter(self, engine):
        ex = engine.explain(SEMI_JOIN_QUERY)
        assert ex.rows == len(engine.query(SEMI_JOIN_QUERY)) == 1  # canada
        node, = (n for n in ex.root.walk() if n.operator == "Filter")
        # ?union is bound by no outer pattern: the condition runs last, on
        # the 7 observations of 4 countries; 3 of them are in a union
        assert node.detail == ("filter after BGP: 7→2 rows, "
                               "exists: 4 keys→3 matched")
        bgp, group = node.children
        assert bgp.detail == "2 pattern(s): 0→7 1→7"
        # one pattern under a seed of its subject: the 4 keys meet the 3
        # subjects of ex:partOf as a key set, no probe per key
        assert group.operator == "BGP" and group.detail == \
            "1 pattern(s): 4 keys ∩ 3 subjects"
        assert (group.calls, group.rows_in, group.rows_out) == (1, 4, 3)
        assert node.seconds >= group.seconds > 0.0

    def test_an_inner_filter_times_its_own_semi_join(self, engine):
        """NOT EXISTS under another FILTER of the stack runs inside that
        filter's span; it opens its own, so its group is not shown (nor
        timed) under the outer condition."""
        query = SEMI_JOIN_QUERY.replace(
            "?union . }", "?union . }\n  FILTER(?year > 2018)")
        ex = engine.explain(query)
        assert ex.rows == len(engine.query(query)) == 1
        outer, inner = (n for n in ex.root.walk() if n.operator == "Filter")
        assert outer.detail == "filter before pattern 1: 2→1 values"
        assert outer.children == [inner]
        assert inner.detail == ("filter after BGP: 4→1 rows, "
                                "exists: 4 keys→3 matched")
        _bgp, group = inner.children
        assert (group.calls, group.rows_in, group.rows_out) == (1, 4, 3)
        assert outer.seconds >= inner.seconds >= group.seconds > 0.0

    def test_a_bind_shows_its_semi_join(self, engine):
        query = SEMI_JOIN_QUERY.replace(
            "FILTER NOT EXISTS { ?c ex:partOf ?union . }",
            "BIND(EXISTS { ?c ex:partOf ex:eu } AS ?eu)").replace(
            "GROUP BY ?c", "GROUP BY ?c ?eu").replace(
            "SELECT ?c", "SELECT ?c ?eu")
        ex = engine.explain(query)
        assert ex.rows == len(engine.query(query)) == 4
        node = next(n for n in ex.root.walk() if n.operator == "Extend"
                    and "?eu" in n.detail)
        assert node.detail == "bind ?eu, exists: 4 keys→3 matched"
        _bgp, group = node.children
        assert (group.calls, group.rows_in, group.rows_out) == (1, 4, 3)

    def test_a_group_in_two_places_shows_under_each(self, engine):
        """Equal EXISTS groups share one compiled operator; each operator
        that ran one shows it with its own run, not both under the first."""
        query = SEMI_JOIN_QUERY.replace(
            "FILTER NOT", "BIND(EXISTS { ?c ex:partOf ?union . } AS ?eu)\n"
            "  FILTER NOT").replace("GROUP BY ?c", "GROUP BY ?c ?eu").replace(
            "SELECT ?c", "SELECT ?c ?eu")
        ex = engine.explain(query)
        assert ex.rows == len(engine.query(query)) == 1
        node, = (n for n in ex.root.walk() if n.operator == "Filter")
        bind, group = node.children
        assert bind.detail == "bind ?eu, exists: 4 keys→3 matched"
        _bgp, bind_group = bind.children
        assert group is not bind_group
        for g in (group, bind_group):
            assert g.detail == "1 pattern(s): 4 keys ∩ 3 subjects"
            assert (g.calls, g.rows_in, g.rows_out) == (1, 4, 3)


class TestRoutedExplain:
    def test_view_route(self, sofos):
        sofos.select_and_materialize("agg_values", k=2)
        query = sofos.generate_workload(1)[0]
        ex = sofos.explain(query)
        assert isinstance(ex, RoutedExplain)
        assert ex.route in ("view", "base")
        if ex.route == "view":
            assert ex.view is not None
            assert ex.candidates
            assert ex.rewrite_seconds >= 0.0
        answer = sofos.answer(query)
        assert ex.plan.rows == len(answer.table)
        text = ex.render()
        assert "ROUTE" in text and "EXPLAIN ANALYZE" in text

    def test_base_route_without_views(self, sofos):
        query = sofos.generate_workload(1)[0]
        ex = sofos.explain(query)
        assert ex.route == "base"
        assert ex.view is None
        assert "no views are materialized" in ex.why

    def test_raw_sparql_matching_the_facet(self, sofos):
        from repro.workload.templates import render_analytical_query
        sofos.select_and_materialize("agg_values", k=2)
        query = sofos.generate_workload(1)[0]
        ex = sofos.explain(render_analytical_query(query))
        assert isinstance(ex, RoutedExplain)
        assert ex.plan.rows >= 0

    def test_raw_sparql_not_matching_routes_base(self, sofos):
        sofos.select_and_materialize("agg_values", k=1)
        ex = sofos.explain("""
            PREFIX ex: <http://example.org/>
            SELECT ?c WHERE { ?c ex:name ?n . }
        """)
        assert ex.route == "base"
        assert "does not target the facet" in ex.why
        assert ex.plan.rows == 4          # four named countries

    def test_online_explain_agrees_with_answer(self, sofos):
        sofos.select_and_materialize("agg_values", k=2)
        for query in sofos.generate_workload(4):
            ex = sofos.explain(query)
            answer = sofos.answer(query)
            assert ex.plan.rows == len(answer.table)
            if answer.used_view is not None:
                assert ex.route == "view"

    def test_an_own_grain_answer_projects_the_stored_rows(self, tiny_dbpedia):
        """On the 4-dimension finest view, a query at the view's grain
        reads 4 dimensions and the measure — no ``sofos:view`` link — and
        does not regroup; one dimension fewer rolls up through a Group."""
        facet = tiny_dbpedia.facet("population_cube_4d")
        sofos = Sofos(tiny_dbpedia.graph, facet)
        finest = sofos.lattice.finest
        sofos.materialize(sofos.select(
            selector=UserSelection([finest.label]), k=1))
        own = AnalyticalQuery(facet, finest.mask, ())
        ex = sofos.explain(own)
        assert (ex.route, ex.view) == ("view", finest.label)
        nodes = list(ex.plan.root.walk())
        assert "Group" not in {n.operator for n in nodes}
        assert "Group" not in ex.plan.render()
        bgp, = (n for n in nodes if n.operator == "BGP")
        steps = TestExplainShowsThePlanThatRan._steps(bgp)
        assert bgp.detail.startswith("5 pattern(s)")
        assert sorted(i for i, _ in steps) == [0, 1, 2, 3, 4]
        assert ex.plan.rows == bgp.rows_out == \
            len(sofos.answer_from_base(own).table)

        rollup = sofos.explain(AnalyticalQuery(facet, finest.mask >> 1, ()))
        assert rollup.view == finest.label
        bgp, = (n for n in rollup.plan.root.walk() if n.operator == "BGP")
        assert bgp.detail.startswith("4 pattern(s)")
        assert "Group" in {n.operator for n in rollup.plan.root.walk()}


OWN_HEADER = """
PREFIX ex: <http://example.org/>
SELECT (SUM(?pop) AS ?mine) ?year ?lang WHERE {
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
} GROUP BY ?year ?lang
"""

REBINDS = """
PREFIX ex: <http://example.org/>
SELECT ?c WHERE { ?c ex:name ?n . BIND(1 AS ?n) }
"""


class TestExplainIsTheAnswerObserved:
    """One serving path: what ``explain`` reports is what ``answer_sparql``
    did, and the hub counts an explained query as the answer it is."""

    @pytest.fixture
    def clean_hub(self):
        from repro.obs import hub
        h = hub()
        h.disable()
        h.reset()
        yield h
        h.disable()
        h.reset()

    @staticmethod
    def _materialize_lang_year(sofos):
        from repro.selection import UserSelection
        sofos.materialize(sofos.select(
            k=None, selector=UserSelection(["lang+year"])))

    @pytest.mark.parametrize("route", ["view", "base"])
    def test_same_header_and_rows_as_answer_sparql(self, sofos, route):
        if route == "view":
            self._materialize_lang_year(sofos)
        explained = sofos.explain(OWN_HEADER)
        answer = sofos.answer_sparql(OWN_HEADER)
        assert explained.route == route
        assert (answer.used_view is not None) == (route == "view")
        assert [v.name for v in explained.plan.table.variables] \
            == [v.name for v in answer.table.variables] \
            == ["mine", "year", "lang"]
        assert explained.plan.table.rows == answer.table.rows
        assert explained.plan.rows == len(answer.table) == 7

    def test_hub_on_an_explain_is_one_counted_answer(self, sofos, clean_hub):
        self._materialize_lang_year(sofos)
        clean_hub.enable()
        explained = sofos.explain(OWN_HEADER)
        root, = clean_hub.tracer.recent()
        assert root.name == "online.answer"
        assert root.tags["route"] == explained.route == "view"
        assert root.find("executor.run").children
        m = clean_hub.metrics
        assert m.counter_total("online_answers_total") == 1
        assert m.get("online_query_seconds").total_count() == 1
        assert clean_hub.tracer.enabled
        clean_hub.to_json()     # candidates / quarantined / why are tags

    def test_hub_off_an_explain_leaves_nothing(self, sofos, clean_hub):
        from repro.errors import QueryEvaluationError
        self._materialize_lang_year(sofos)
        assert sofos.explain(OWN_HEADER).plan.root.calls == 1
        with pytest.raises(QueryEvaluationError):
            sofos.explain(REBINDS)
        snap = clean_hub.metrics.snapshot()
        assert snap["counters"] == snap["gauges"] == snap["histograms"] == {}
        assert clean_hub.tracer.recent() == []
        assert not clean_hub.tracer.enabled
        assert clean_hub.tracer.current() is None
