"""E5 — demo step "User Selected Views": the space/time sweet spot.

Sweeps manual selections over the DBpedia headline lattice — every single
view, plus representative pairs — contrasting space amplification against
workload time, the trade-off the demo asks participants to explore.
"""

import pytest

from repro.core import Sofos
from repro.selection import UserSelection

from conftest import emit_table, emit_timings

WORKLOAD_SIZE = 25


@pytest.fixture(scope="module")
def world(small_dbpedia):
    facet = small_dbpedia.facet("population_cube")
    sofos = Sofos(small_dbpedia.graph, facet, seed=0)
    workload = sofos.generate_workload(WORKLOAD_SIZE)
    base_run = sofos.run_workload(workload, force_base=True)
    return sofos, workload, base_run


def run_selection(sofos, workload, labels):
    selection = sofos.select(selector=UserSelection(labels),
                             k=len(labels))
    catalog = sofos.materialize(selection)
    run = sofos.run_workload(workload)
    amplification = catalog.storage_amplification()
    sofos.drop_views()
    return run, amplification


class TestUserViews:
    @pytest.mark.benchmark(group="E5-report")
    def test_single_view_sweep(self, benchmark, world):
        sofos, workload, base_run = world
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = [["(none)", "1.000", f"{base_run.total_seconds * 1e3:.1f}",
                 "0%"]]
        for view in sofos.lattice:
            if view.is_apex:
                continue
            run, amplification = run_selection(sofos, workload,
                                               [view.label])
            rows.append([view.label, f"{amplification:.3f}",
                         f"{run.total_seconds * 1e3:.1f}",
                         f"{run.hit_rate * 100:.0f}%"])
        emit_table("E5", ("selection", "amplif.", "workload ms", "hit rate"),
                   rows, [False, True, True, True], timing=("workload ms",),
                   title="single-view selections (space vs time):\n")

    @pytest.mark.benchmark(group="E5-report")
    def test_pair_sweep_finds_sweet_spot(self, benchmark, world):
        sofos, workload, base_run = world
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        finest = sofos.lattice.finest.label
        pairs = [
            [finest, "apex"],
            [finest, "lang"],
            [finest, "lang+year"],
            ["lang+year", "year+continent"],
            ["lang", "year"],
        ]
        rows = []
        best = None
        for labels in pairs:
            run, amplification = run_selection(sofos, workload, labels)
            rows.append([" + ".join(labels), f"{amplification:.3f}",
                         f"{run.total_seconds * 1e3:.1f}",
                         f"{run.hit_rate * 100:.0f}%"])
            score = run.total_seconds
            if best is None or score < best[1]:
                best = (labels, score)
        emit_table("E5", ("selection", "amplif.", "workload ms", "hit rate"),
                   rows, [False, True, True, True], timing=("workload ms",),
                   title="pair selections:\n")
        emit_timings("E5", f"fastest pair: {' + '.join(best[0])}")
        assert best is not None

    @pytest.mark.benchmark(group="E5-user-selection")
    def test_benchmark_user_selection_pipeline(self, benchmark, world):
        sofos, workload, _ = world
        finest = sofos.lattice.finest.label

        def run():
            return run_selection(sofos, workload, [finest, "apex"])

        run_result, amplification = benchmark.pedantic(run, rounds=2,
                                                       iterations=1)
        assert amplification > 1.0
