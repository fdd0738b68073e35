"""E10 — ablation: selection strategies (greedy vs annealing vs optimal).

DESIGN.md calls out benefit-greedy as the design choice the paper takes
from HRU; this ablation quantifies what that choice costs against the
exhaustive optimum and a randomized-search alternative, in estimated
workload cost and selection wall time, across budgets.
"""

import pytest

from repro.core import Sofos
from repro.cost import create_model
from repro.selection import AnnealingSelector, ExhaustiveSelector, \
    GreedySelector

from conftest import emit_table

WORKLOAD_SIZE = 25


@pytest.fixture(scope="module")
def world(small_dbpedia):
    facet = small_dbpedia.facet("population_cube")
    sofos = Sofos(small_dbpedia.graph, facet, seed=0)
    workload = sofos.generate_workload(WORKLOAD_SIZE)
    return sofos, workload


def selectors(profile):
    model = create_model("agg_values")
    return [
        ("exhaustive", ExhaustiveSelector(model)),
        ("greedy", GreedySelector(model, seed=0)),
        # a budget every view fits: HRU's benefit-per-triple score alone
        ("greedy/unit-space", GreedySelector(
            model, seed=0, triple_budget=profile.total_triples())),
        ("annealing", AnnealingSelector(model, seed=0, iterations=1500)),
    ]


class TestSelectorAblation:
    @pytest.mark.benchmark(group="E10-report")
    def test_estimated_cost_across_budgets(self, benchmark, world):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        sofos, workload = world
        profile = sofos.profile()
        rows = []
        optima = {}
        results = {}
        for k in (1, 2, 3):
            for label, selector in selectors(profile):
                result = selector.select(sofos.lattice, profile, k,
                                         workload)
                results[(label, k)] = result
                if label == "exhaustive":
                    optima[k] = result.estimated_workload_cost
                # sorted: selection *sets* print identically regardless
                # of the strategy's pick order, keeping re-runs diffable
                rows.append([
                    str(k), label, ", ".join(sorted(result.labels)),
                    f"{result.estimated_workload_cost:.1f}",
                    f"{result.select_seconds * 1e3:.2f}",
                ])
        emit_table("E10",
                   ("k", "strategy", "views", "est. workload cost",
                    "select ms"), rows, [True, False, False, True, True],
                   timing=("select ms",))
        # greedy's HRU-style guarantee: within a small factor of optimal
        for k, optimum in optima.items():
            greedy_cost = results[("greedy", k)].estimated_workload_cost
            assert greedy_cost <= 2 * optimum + 1e-9
        # annealing finds the optimum on this 8-view lattice
        for k, optimum in optima.items():
            annealed = results[("annealing", k)].estimated_workload_cost
            assert annealed <= optimum * 1.05 + 1e-9

    @pytest.mark.benchmark(group="E10-selection-time")
    @pytest.mark.parametrize("label", ["exhaustive", "greedy", "annealing"])
    def test_benchmark_selection(self, benchmark, world, label):
        sofos, workload = world
        profile = sofos.profile()
        selector = dict(selectors(profile))[label]
        result = benchmark.pedantic(
            lambda: selector.select(sofos.lattice, profile, 2, workload),
            rounds=3, iterations=1)
        assert len(result.views) == 2
