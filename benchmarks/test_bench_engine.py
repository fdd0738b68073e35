"""E9 — substrate microbenchmarks: the store and SPARQL engine.

Not a paper experiment per se, but the ablation DESIGN.md calls out: the
dictionary-encoded indexed store vs naive scanning, plus the engine
operations every SOFOS experiment is built from (load, scan, join,
aggregate).
"""

import pytest

from repro.datasets import DBPediaConfig, generate_dbpedia
from repro.core.report import format_table
from repro.rdf import Graph, Namespace, Triple, typed_literal
from repro.sparql import QueryEngine

from conftest import emit_timings

EX = Namespace("http://example.org/")

PREFIX = "PREFIX dbp: <http://dbpedia.org/ontology/>\n"

JOIN_QUERY = PREFIX + """
SELECT ?country ?pop WHERE {
  ?obs dbp:ofCountry ?country ; dbp:year 2015 ; dbp:population ?pop .
  ?country dbp:partOf ?continent .
}
"""

AGG_QUERY = PREFIX + """
SELECT ?continent (SUM(?pop) AS ?total) WHERE {
  ?obs dbp:ofCountry ?country ; dbp:population ?pop .
  ?country dbp:partOf ?continent .
  ?continent a dbp:Continent .
} GROUP BY ?continent
"""

LUBM_PREFIX = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n")

LUBM_MEMBERS = LUBM_PREFIX + """
SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s ub:memberOf ?d . ?s rdf:type ?t . }
GROUP BY ?d
"""

#: The same aggregate over the members without an advisor: one semi-join.
LUBM_UNADVISED = LUBM_MEMBERS.replace(
    "?t . }", "?t . FILTER NOT EXISTS { ?s ub:advisor ?a } }")


@pytest.fixture(scope="module")
def medium_graph():
    return generate_dbpedia(DBPediaConfig(countries=120,
                                          years=tuple(range(2000, 2020)),
                                          seed=9))


@pytest.fixture(scope="module")
def medium_engine(medium_graph):
    return QueryEngine(medium_graph)


class TestStoreMicrobench:
    @pytest.mark.benchmark(group="E9-load")
    def test_bulk_load(self, benchmark, medium_graph):
        triples = list(medium_graph)

        def load():
            g = Graph()
            g.update(triples)
            return g

        g = benchmark.pedantic(load, rounds=3, iterations=1)
        assert len(g) == len(medium_graph)

    @pytest.mark.benchmark(group="E9-scan")
    def test_indexed_predicate_scan(self, benchmark, medium_graph):
        from repro.datasets.dbpedia import DBP
        count = benchmark(lambda: medium_graph.count(p=DBP.population))
        assert count == 120 * 20

    @pytest.mark.benchmark(group="E9-scan")
    def test_full_scan_baseline(self, benchmark, medium_graph):
        """Ablation partner: what the same scan costs without the index."""
        from repro.datasets.dbpedia import DBP

        def naive():
            return sum(1 for t in medium_graph if t.p == DBP.population)

        count = benchmark(naive)
        assert count == 120 * 20

    @pytest.mark.benchmark(group="E9-report")
    def test_emit_index_ablation(self, benchmark, medium_graph):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        import time
        from repro.datasets.dbpedia import DBP
        start = time.perf_counter()
        for _ in range(50):
            medium_graph.count(p=DBP.population)
        indexed = (time.perf_counter() - start) / 50
        start = time.perf_counter()
        for _ in range(3):
            sum(1 for t in medium_graph if t.p == DBP.population)
        naive = (time.perf_counter() - start) / 3
        emit_timings("E9", format_table(
            ("access path", "mean ms"),
            [["POS index count", f"{indexed * 1e3:.4f}"],
             ["full scan + filter", f"{naive * 1e3:.4f}"],
             ["index advantage", f"{naive / max(indexed, 1e-12):.0f}x"]],
            align_right=[False, True]))
        assert naive > indexed


class TestEngineMicrobench:
    @pytest.mark.benchmark(group="E9-query")
    def test_join_query(self, benchmark, medium_engine):
        prepared = medium_engine.prepare(JOIN_QUERY)
        table = benchmark(lambda: medium_engine.query(prepared))
        assert len(table) > 0

    @pytest.mark.benchmark(group="E9-query")
    def test_aggregation_query(self, benchmark, medium_engine):
        prepared = medium_engine.prepare(AGG_QUERY)
        table = benchmark(lambda: medium_engine.query(prepared))
        assert 0 < len(table) <= 6

    @pytest.mark.benchmark(group="E9-parse")
    def test_parse_and_plan(self, benchmark):
        from repro.sparql import parse_query, translate_query
        plan = benchmark(lambda: translate_query(parse_query(AGG_QUERY)))
        assert plan is not None

    @pytest.mark.benchmark(group="E9-executor")
    def test_reference_executor_baseline(self, benchmark, medium_engine):
        """The retained tuple-at-a-time evaluator on the same join query —
        the ablation partner for the batched id-space pipeline."""
        from repro.sparql import ResultTable
        from tests.oracle import ReferenceExecutor
        reference = ReferenceExecutor(medium_engine.graph)
        prepared = medium_engine.prepare(JOIN_QUERY)
        variables = prepared.ast.projected_variables()
        table = benchmark(lambda: ResultTable.from_bindings(
            variables, reference.run(prepared.plan)))
        assert len(table) > 0

    @pytest.mark.benchmark(group="E9-report")
    def test_emit_executor_speedup(self, benchmark, medium_engine,
                                   medium_graph):
        """Batched id-space pipeline vs the seed executor: ≥3× median."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        import statistics
        import time
        from repro.sparql import ResultTable
        from tests.oracle import ReferenceExecutor

        reference = ReferenceExecutor(medium_engine.graph)
        rows = []
        speedups = []
        for label, query in (("join", JOIN_QUERY), ("aggregate", AGG_QUERY)):
            prepared = medium_engine.prepare(query)
            variables = prepared.ast.projected_variables()
            batched_table = medium_engine.query(prepared)
            reference_table = ResultTable.from_bindings(
                variables, reference.run(prepared.plan))
            assert batched_table.same_solutions(reference_table)

            batched_times = []
            for _ in range(7):
                start = time.perf_counter()
                medium_engine.query(prepared)
                batched_times.append(time.perf_counter() - start)
            reference_times = []
            for _ in range(5):
                start = time.perf_counter()
                ResultTable.from_bindings(variables,
                                          reference.run(prepared.plan))
                reference_times.append(time.perf_counter() - start)
            batched = statistics.median(batched_times)
            naive = statistics.median(reference_times)
            speedups.append(naive / batched)
            rows.append([label, f"{batched * 1e3:.2f}", f"{naive * 1e3:.2f}",
                         f"{naive / batched:.1f}x"])
        emit_timings("E9", f"batched vs tuple-at-a-time executor "
                     f"({len(medium_graph)} triples):\n"
                     + format_table(
                         ("query", "batched ms", "reference ms", "speedup"),
                         rows, align_right=[False, True, True, True]))
        assert statistics.median(speedups) >= 3.0

    @pytest.mark.benchmark(group="E9-report")
    def test_emit_engine_summary(self, benchmark, medium_engine,
                                 medium_graph):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        import time
        rows = []
        for label, query in (("join", JOIN_QUERY), ("aggregate", AGG_QUERY)):
            prepared = medium_engine.prepare(query)
            start = time.perf_counter()
            for _ in range(5):
                table = medium_engine.query(prepared)
            mean = (time.perf_counter() - start) / 5
            rows.append([label, str(len(table)), f"{mean * 1e3:.2f}"])
        emit_timings("E9", f"engine on {len(medium_graph)}-triple graph:\n"
                     + format_table(("query", "rows", "mean ms"), rows,
                                    align_right=[False, True, True]))

    @pytest.mark.benchmark(group="E9-report")
    def test_emit_exists_semi_join(self, benchmark, small_lubm):
        """NOT EXISTS beside the plain aggregate on LUBM small, on both
        executors: the batched one runs the group once over the distinct
        ?s, the reference once per row."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        import time
        from repro.sparql import ResultTable
        from tests.oracle import ReferenceExecutor

        graph = small_lubm.graph
        engine = QueryEngine(graph)
        reference = ReferenceExecutor(graph)

        def best_of(runs, fn):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        rows, batched = [], {}
        for label, query in (("plain", LUBM_MEMBERS),
                             ("NOT EXISTS", LUBM_UNADVISED)):
            prepared = engine.prepare(query)
            variables = prepared.ast.projected_variables()
            table = engine.query(prepared)
            assert table.same_solutions(ResultTable.from_bindings(
                variables, reference.run(prepared.plan)))
            batched[label] = best_of(5, lambda: engine.query(prepared))
            naive = best_of(3, lambda: ResultTable.from_bindings(
                variables, reference.run(prepared.plan)))
            rows.append([label, str(len(table)),
                         f"{batched[label] * 1e3:.2f}", f"{naive * 1e3:.2f}",
                         f"{naive / batched[label]:.1f}x"])
        emit_timings("E9", f"NOT EXISTS as a semi-join, LUBM small "
                     f"({len(graph)} triples, store "
                     f"{type(graph.store).__name__}):\n" + format_table(
                         ("query", "rows", "batched ms", "reference ms",
                          "speedup"), rows,
                         align_right=[False, True, True, True, True])
                     + f"\nNOT EXISTS / plain (batched): "
                     f"{batched['NOT EXISTS'] / batched['plain']:.2f}x")
        assert batched["NOT EXISTS"] < naive
