"""E7 — §3.2 claim: answering from a view beats the base graph.

For each dataset's headline facet, runs the same analytical queries on
the raw graph and through the best materialized view, reporting the
speedup per lattice granularity and the (small) rewriting overhead.
Both sides are timed warm — one untimed answer first, so neither pays
its plan, its statistics or its first touch of a graph inside the timed
one — and each keeps the fastest of three: the answers take 0.2–0.6 ms,
where one cold execution per side measured whichever side planned last.
"""

import pytest

from repro.core import Sofos
from repro.cube import AnalyticalQuery

from conftest import emit_table

HEADLINE = {
    "dbpedia": "population_cube",
    "lubm": "students_by_department",
    "swdf": "papers_by_conference",
}


@pytest.fixture(scope="module")
def systems(all_small):
    out = {}
    for name, loaded in all_small.items():
        sofos = Sofos(loaded.graph, loaded.facet(HEADLINE[name]), seed=0)
        sofos.select_and_materialize("agg_values",
                                     k=sofos.facet.dimension_count)
        out[name] = sofos
    return out


def warm_best(answer, query, repeats=3):
    """(the first, untimed answer; the fastest of ``repeats`` warm ones)."""
    first = answer(query)
    return first, min((answer(query) for _ in range(repeats)),
                      key=lambda a: a.outcome.seconds)


class TestViewSpeedup:
    @pytest.mark.benchmark(group="E7-report")
    @pytest.mark.parametrize("name", sorted(HEADLINE))
    def test_speedup_per_granularity(self, benchmark, systems, name):
        sofos = systems[name]
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = []
        base_total = view_total = 0.0
        for mask in range(sofos.facet.lattice_size):
            query = AnalyticalQuery(sofos.facet, mask)
            first, via = warm_best(sofos.answer, query)
            _, base = warm_best(sofos.answer_from_base, query)
            assert via.table.same_solutions(base.table)
            if via.used_view is None:
                continue
            base_total += base.outcome.seconds
            view_total += via.outcome.seconds
            speedup = base.outcome.seconds / max(via.outcome.seconds, 1e-9)
            rows.append([
                sofos.lattice[mask].label,
                via.used_view,
                f"{base.outcome.seconds * 1e3:.2f}",
                f"{via.outcome.seconds * 1e3:.2f}",
                f"{first.outcome.rewrite_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
            ])
        emit_table("E7",
                   ("query granularity", "via view", "base ms", "view ms",
                    "rewrite ms", "speedup"), rows,
                   [False, False, True, True, True, True],
                   timing=("base ms", "view ms", "rewrite ms", "speedup"),
                   title=f"[{name}]\n")
        # the claim (§3.2): the routed queries cost less from their views
        # than from the base graph
        assert rows and view_total < base_total

    @pytest.mark.benchmark(group="E7-base-vs-view")
    @pytest.mark.parametrize("mode", ("base", "view"))
    def test_benchmark_lubm_total_query(self, benchmark, systems, mode):
        sofos = systems["lubm"]
        query = AnalyticalQuery(sofos.facet, 0)
        if mode == "base":
            run = lambda: sofos.answer_from_base(query)  # noqa: E731
        else:
            run = lambda: sofos.answer(query)  # noqa: E731
        answer = benchmark(run)
        assert len(answer.table) == 1

    @pytest.mark.benchmark(group="E7-report")
    def test_rewrite_overhead_is_small(self, benchmark, systems):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        sofos = systems["lubm"]
        query = AnalyticalQuery(sofos.facet, 1)
        answer = sofos.answer(query)
        assert answer.used_view is not None
        # rewriting+prep should not dominate execution on the base graph
        base = sofos.answer_from_base(query)
        assert answer.outcome.rewrite_seconds < base.outcome.seconds
