"""E4 — demo step "Exploring Cost Models": the headline comparison.

For every dataset x headline facet x budget k: run the five automatic
cost models end to end (select -> materialize -> execute workload) and
report workload time, storage amplification, hit rate, and speedup
against the no-views baseline.  The expected *shape* (paper): informed
models beat the random baseline at equal k; time/space trade-offs shift
with k.
"""

import pytest

from repro.core import Sofos
from repro.core.report import format_table

from conftest import emit, emit_timings

HEADLINE = {
    "dbpedia": "population_cube",
    "lubm": "students_by_department",
    "swdf": "papers_by_conference",
}

WORKLOAD_SIZE = 30
BUDGETS = (1, 2, 4)


def build_sofos(loaded, facet_name) -> Sofos:
    return Sofos(loaded.graph, loaded.facet(facet_name), seed=0)


class TestCostModelComparison:
    @pytest.mark.benchmark(group="E4-comparison")
    @pytest.mark.parametrize("name", sorted(HEADLINE))
    @pytest.mark.parametrize("k", BUDGETS)
    def test_compare_all_models(self, benchmark, all_small, name, k):
        loaded = all_small[name]
        sofos = build_sofos(loaded, HEADLINE[name])
        workload = sofos.generate_workload(WORKLOAD_SIZE)
        report = benchmark.pedantic(
            lambda: sofos.compare_cost_models(k=k, workload=workload,
                                              dataset_name=name),
            rounds=1, iterations=1)
        emit_timings("E4", report.render())
        # what each model picked and what that costs in space and hits;
        # the learned model trains on measured times, so its row is timing
        emit("E4", f"dataset={name} facet={report.facet} k={k} "
             f"workload={report.workload_size} queries\n" + format_table(
                 ("model", "views", "extra triples", "amplif.", "hit rate"),
                 [[row.model, ", ".join(sorted(row.selected_views)),
                   str(row.storage_triples),
                   f"{row.storage_amplification:.3f}",
                   f"{row.hit_rate * 100:.0f}%"]
                  for row in report.rows if row.model != "learned"],
                 align_right=[False, False, True, True, True]))

        informed = report.row("agg_values")
        random_row = report.row("random")
        assert informed is not None and random_row is not None
        # shape check: the informed model never uses views less often
        assert informed.hit_rate >= random_row.hit_rate - 1e-9
        # every model actually materialized k views
        assert all(len(row.selected_views) == min(k, 2 ** 3)
                   for row in report.rows)

    @pytest.mark.benchmark(group="E4-end-to-end")
    def test_benchmark_headline_comparison(self, benchmark, all_small):
        loaded = all_small["dbpedia"]

        def run():
            sofos = build_sofos(loaded, HEADLINE["dbpedia"])
            workload = sofos.generate_workload(10)
            return sofos.compare_cost_models(
                ("random", "triples", "agg_values", "nodes"), k=2,
                workload=workload, dataset_name="dbpedia")

        report = benchmark.pedantic(run, rounds=2, iterations=1)
        assert len(report.rows) == 4

    @pytest.mark.benchmark(group="E4-selection-only")
    @pytest.mark.parametrize("model", ("random", "triples", "agg_values",
                                       "nodes", "learned"))
    def test_benchmark_selection_time(self, benchmark, all_small, model):
        loaded = all_small["dbpedia"]
        sofos = build_sofos(loaded, HEADLINE["dbpedia"])
        sofos.profile()  # pre-warm the shared profile

        result = benchmark.pedantic(
            lambda: sofos.select(model, k=2), rounds=3, iterations=1)
        assert len(result.views) == 2
