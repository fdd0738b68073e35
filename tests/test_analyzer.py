"""Tests for the raw-SPARQL query analyzer and Sofos.answer_sparql."""

import pytest

from repro.core import Sofos
from repro.rdf import Variable, typed_literal
from repro.views import analyze_query, match_report

from tests.conftest import build_population_graph

PREFIX = "PREFIX ex: <http://example.org/>\n"

PATTERN = """
  ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
  ?c ex:language ?lang .
"""


def query(select="?lang (SUM(?pop) AS ?t)", where=PATTERN,
          tail="GROUP BY ?lang"):
    return f"{PREFIX}SELECT {select} WHERE {{ {where} }} {tail}"


class TestAnalyzeMatches:
    def test_exact_template_matches(self, population_facet):
        q = analyze_query(query("?lang ?year (SUM(?pop) AS ?t)",
                                tail="GROUP BY ?lang ?year"),
                          population_facet)
        assert q is not None
        assert q.group_mask == 0b11
        assert q.filters == ()

    def test_subset_grouping_matches(self, population_facet):
        q = analyze_query(query(), population_facet)
        assert q is not None
        assert q.group_variables == (Variable("lang"),)

    def test_total_aggregation_matches(self, population_facet):
        q = analyze_query(query("(SUM(?pop) AS ?t)", tail=""),
                          population_facet)
        assert q is not None
        assert q.group_mask == 0

    def test_alias_is_irrelevant(self, population_facet):
        q = analyze_query(query("?lang (SUM(?pop) AS ?whatever)"),
                          population_facet)
        assert q is not None

    def test_filter_extracted(self, population_facet):
        q = analyze_query(
            query(where=PATTERN + " FILTER(?year = 2019)"),
            population_facet)
        assert q is not None
        assert len(q.filters) == 1
        assert q.filters[0].var == Variable("year")
        assert q.filters[0].op == "="

    def test_reversed_filter_normalized(self, population_facet):
        q = analyze_query(
            query(where=PATTERN + " FILTER(2018 < ?year)"),
            population_facet)
        assert q is not None
        assert q.filters[0].op == ">"
        assert q.filters[0].value == typed_literal(2018)

    def test_triple_pattern_order_is_irrelevant(self, population_facet):
        reordered = """
          ?c ex:language ?lang .
          ?obs ex:year ?year ; ex:population ?pop ; ex:ofCountry ?c .
        """
        q = analyze_query(query(where=reordered), population_facet)
        assert q is not None

    def test_match_report_positive(self, population_facet):
        text = match_report(query(), population_facet)
        assert "matches" in text and "SUM by ?lang" in text


class TestAnalyzeRejections:
    @pytest.mark.parametrize("bad,why", [
        (lambda q: q("?lang (AVG(?pop) AS ?t)"), "aggregate"),
        (lambda q: q("?lang (SUM(?year) AS ?t)"), "aggregate"),
        (lambda q: q("?lang (SUM(?pop) AS ?t)",
                     PATTERN + " ?c ex:partOf ?u ."), "pattern"),
        (lambda q: q("?c (SUM(?pop) AS ?t)", tail="GROUP BY ?c"),
         "dimension"),
        (lambda q: q("?lang (SUM(?pop) AS ?t)",
                     tail="GROUP BY ?lang LIMIT 5"), "LIMIT"),
        (lambda q: q("?lang (SUM(?pop) AS ?t)",
                     tail="GROUP BY ?lang ORDER BY DESC(?t)"), "ORDER BY"),
        (lambda q: q("DISTINCT ?lang (SUM(?pop) AS ?t)"), "DISTINCT"),
        (lambda q: q("?lang (SUM(?pop) AS ?a) (COUNT(*) AS ?b)"),
         "one aggregate"),
    ])
    def test_rejected_with_reason(self, population_facet, bad, why):
        try:
            text = bad(query)
        except Exception:
            pytest.skip("query builder produced invalid SPARQL")
        result = analyze_query(text, population_facet)
        assert result is None
        assert why.lower() in match_report(text, population_facet).lower()

    def test_missing_pattern_triple_rejected(self, population_facet):
        partial = """
          ?obs ex:ofCountry ?c ; ex:year ?year ; ex:population ?pop .
        """
        assert analyze_query(query(where=partial), population_facet) is None

    def test_complex_filter_rejected(self, population_facet):
        q = query(where=PATTERN + " FILTER(?year + 1 = 2020)")
        assert analyze_query(q, population_facet) is None

    def test_optional_in_where_rejected(self, population_facet):
        q = query(where=PATTERN + " OPTIONAL { ?c ex:partOf ?u . }")
        assert analyze_query(q, population_facet) is None

    def test_filter_on_non_dimension_rejected(self, population_facet):
        q = query(where=PATTERN + " FILTER(?pop > 50)")
        assert analyze_query(q, population_facet) is None


class TestAnswerSparql:
    @pytest.fixture()
    def sofos(self, population_facet):
        from repro.selection import UserSelection
        system = Sofos(build_population_graph(), population_facet)
        # deterministic coverage: the finest view answers everything
        selection = system.select(selector=UserSelection(["lang+year"]), k=1)
        system.materialize(selection)
        return system

    def test_matching_query_uses_view_and_keeps_alias(self, sofos):
        answer = sofos.answer_sparql(query(
            "?lang (SUM(?pop) AS ?how_much)",
            PATTERN + " FILTER(?year = 2019)"))
        assert answer.used_view is not None
        assert [v.name for v in answer.table.variables] == \
            ["lang", "how_much"]

    def test_matching_query_equals_direct_execution(self, sofos,
                                                    population_engine):
        text = query("?lang (SUM(?pop) AS ?t)")
        via_views = sofos.answer_sparql(text)
        direct = population_engine.query(text)
        assert via_views.table.same_solutions(direct)

    def test_order_by_is_answered_in_order(self, sofos, population_engine):
        # a view answer is unordered: ORDER BY must reach the base engine
        text = query("?lang ?year (SUM(?pop) AS ?t)",
                     tail="GROUP BY ?lang ?year ORDER BY DESC(?t) ?lang")
        answer = sofos.answer_sparql(text)
        assert answer.used_view is None
        assert answer.table.rows == population_engine.query(text).rows

    @pytest.mark.parametrize("select", [
        "?lang ?year (SUM(?pop) AS ?t)",        # the facet's own order
        "(SUM(?pop) AS ?t) ?year ?lang",
        "?year (SUM(?pop) AS ?t) ?lang",
    ])
    def test_view_answer_keeps_the_select_column_order(
            self, sofos, population_engine, select):
        text = query(select, tail="GROUP BY ?year ?lang")
        answer = sofos.answer_sparql(text)
        direct = population_engine.query(text)
        assert answer.used_view == "lang+year"
        assert answer.table.variables == direct.variables
        # positional: a reader of table.rows gets the cells it asked for
        assert sorted(answer.table.rows, key=repr) \
            == sorted(direct.rows, key=repr)

    def test_non_matching_query_runs_on_base(self, sofos):
        answer = sofos.answer_sparql(
            PREFIX + "SELECT ?c WHERE { ?c ex:language ?l . }")
        assert answer.used_view is None
        assert len(answer.table) > 0

    def test_without_views_runs_on_base(self, population_facet):
        system = Sofos(build_population_graph(), population_facet)
        answer = system.answer_sparql(query())
        assert answer.used_view is None
        assert len(answer.table) > 0
