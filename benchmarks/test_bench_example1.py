"""E1 — Figure 1 / Example 1.1: the paper's running example.

Reproduces the two motivating analytical questions on the country/
language/population KG and reports base-graph vs materialized-view
latencies for the French-speaking-population query.
"""

import pytest

from repro import AnalyticalQuery, FilterCondition, QueryEngine, Sofos, \
    Variable
from repro.datasets.dbpedia import DBP

from conftest import emit, emit_table

FRENCH = DBP["language/French"]
LANG = Variable("lang")

COUNT_QUERY = f"""
PREFIX dbp: <http://dbpedia.org/ontology/>
SELECT (COUNT(?country) AS ?n) WHERE {{
  ?country dbp:language {FRENCH.n3()} .
}}
"""


@pytest.fixture(scope="module")
def sofos(small_dbpedia):
    facet = small_dbpedia.facet("population_by_language_year")
    system = Sofos(small_dbpedia.graph, facet)
    system.select_and_materialize("agg_values", k=2)
    return system


@pytest.fixture(scope="module")
def french_query(small_dbpedia):
    facet = small_dbpedia.facet("population_by_language_year")
    return AnalyticalQuery(
        facet, facet.subset_mask((LANG,)),
        (FilterCondition(LANG, "=", FRENCH),),
        label="french-speaking population")


class TestExample1:
    @pytest.mark.benchmark(group="E1-countries-with-french")
    def test_question1_count_countries(self, benchmark, small_dbpedia):
        engine = QueryEngine(small_dbpedia.graph)
        prepared = engine.prepare(COUNT_QUERY)
        result = benchmark(lambda: engine.query(prepared).python_value())
        assert result > 0
        emit("E1", f"countries with French as official language: {result}")

    @pytest.mark.benchmark(group="E1-french-population")
    def test_question2_base_graph(self, benchmark, sofos, french_query):
        answer = benchmark(lambda: sofos.answer_from_base(french_query))
        assert len(answer.table) == 1

    @pytest.mark.benchmark(group="E1-french-population")
    def test_question2_via_view(self, benchmark, sofos, french_query):
        answer = benchmark(lambda: sofos.answer(french_query))
        assert answer.used_view is not None

    @pytest.mark.benchmark(group="E1-report")
    def test_report_equivalence_and_speedup(self, benchmark, sofos,
                                            french_query):
        via_view, via_base = benchmark.pedantic(
            lambda: (sofos.answer(french_query),
                     sofos.answer_from_base(french_query)),
            rounds=1, iterations=1)
        assert via_view.table.same_solutions(via_base.table)
        rows = [
            ["base graph", f"{via_base.outcome.seconds * 1e3:.3f}",
             via_base.table.rows[0][-1].lexical],
            [f"view {via_view.used_view}",
             f"{via_view.outcome.seconds * 1e3:.3f}",
             via_view.table.rows[0][-1].lexical],
        ]
        emit_table("E1",
                   ("answered from", "ms", "french-speaking population"),
                   rows, [False, True, True], timing=("ms",))
