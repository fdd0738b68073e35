"""E6 — demo step "Hands-on Challenge": strategies vs the true optimum.

At a fixed budget k=2, compares the exhaustive-optimal selection against
greedy selection under each cost model and reports measured-workload
regret.  Expected shape: greedy with an informed model lands near the
optimum; the random baseline trails.
"""

import pytest

from repro.core import Sofos
from repro.core.report import format_table
from repro.cost import create_model
from repro.selection import ExhaustiveSelector, GreedySelector

from conftest import emit, emit_timings

K = 2
WORKLOAD_SIZE = 25
MODELS = ("random", "triples", "agg_values", "nodes", "learned")


@pytest.fixture(scope="module")
def world(small_dbpedia):
    facet = small_dbpedia.facet("population_cube")
    sofos = Sofos(small_dbpedia.graph, facet, seed=0)
    workload = sofos.generate_workload(WORKLOAD_SIZE)
    return sofos, workload


def measured_ms(sofos, workload, selection):
    sofos.materialize(selection)
    run = sofos.run_workload(workload)
    sofos.drop_views()
    return run.total_seconds * 1e3


class TestChallenge:
    @pytest.mark.benchmark(group="E6-report")
    def test_regret_table(self, benchmark, world):
        sofos, workload = world
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        profile = sofos.profile()
        optimal = ExhaustiveSelector(create_model("agg_values")).select(
            sofos.lattice, profile, K, workload)
        optimal_ms = measured_ms(sofos, workload, optimal)

        # view lists print sorted so equal selections render identically
        # whatever order a strategy picked them in
        rows = [["optimal (exhaustive)", ", ".join(sorted(optimal.labels)),
                 f"{optimal_ms:.1f}", "1.00x"]]
        regrets = {}
        for model_name in MODELS:
            selector = GreedySelector(create_model(model_name), seed=0)
            selection = selector.select(sofos.lattice, profile, K, workload)
            ms = measured_ms(sofos, workload, selection)
            regrets[model_name] = ms / optimal_ms
            rows.append([f"greedy[{model_name}]",
                         ", ".join(sorted(selection.labels)),
                         f"{ms:.1f}", f"{ms / optimal_ms:.2f}x"])
        emit_timings("E6", format_table(
            ("strategy", "views", "workload ms", "vs optimal"), rows,
            align_right=[False, False, True, True]))
        emit("E6", format_table(
            ("strategy", "views"),
            [row[:2] for row in rows if row[0] != "greedy[learned]"]))
        # shape: an informed greedy should not be drastically worse than
        # optimal (allow generous noise margins on small timings)
        assert min(regrets["agg_values"], regrets["triples"]) < 3.0

    @pytest.mark.benchmark(group="E6-selection-time")
    def test_benchmark_exhaustive(self, benchmark, world):
        sofos, workload = world
        profile = sofos.profile()
        selector = ExhaustiveSelector(create_model("agg_values"))
        result = benchmark.pedantic(
            lambda: selector.select(sofos.lattice, profile, K, workload),
            rounds=3, iterations=1)
        assert len(result.views) == K

    @pytest.mark.benchmark(group="E6-selection-time")
    def test_benchmark_greedy(self, benchmark, world):
        sofos, workload = world
        profile = sofos.profile()
        selector = GreedySelector(create_model("agg_values"), seed=0)
        result = benchmark.pedantic(
            lambda: selector.select(sofos.lattice, profile, K, workload),
            rounds=3, iterations=1)
        assert len(result.views) == K

    @pytest.mark.benchmark(group="E6-report")
    def test_exhaustive_cost_never_above_greedy(self, benchmark, world):
        sofos, workload = world
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        profile = sofos.profile()
        model = create_model("agg_values")
        optimal = ExhaustiveSelector(model).select(
            sofos.lattice, profile, K, workload)
        greedy = GreedySelector(model, seed=0).select(
            sofos.lattice, profile, K, workload)
        assert optimal.estimated_workload_cost <= \
            greedy.estimated_workload_cost + 1e-9
