"""E8 — §1/§2 claim: "this linear correlation does not trivially hold".

In relational systems, tuple count predicts the running time of answering
a query from a view almost perfectly.  The paper's cost models are
estimates of exactly that quantity — ``C : V(F) → R+`` "predicting the
running time of any query Q if the view V_i is materialized".  This
experiment materializes every view of each headline lattice, measures the
time to answer the same roll-up query (the apex aggregation, answerable
from every view) from each view, and computes the Spearman rank
correlation between each cost metric and that measured time — per dataset
and pooled over within-lattice ranks.

Expected shape: the size metrics (triples / aggregated values / nodes)
correlate positively and similarly, but imperfectly — encoding overheads
and constant costs break the clean relational story, which is the demo's
point.  A random score shows no correlation.
"""

import os
import time

import numpy as np
import pytest
from scipy import stats

from repro.core import OfflineModule, Sofos
from repro.core.report import format_table
from repro.cost import LearnedCost
from repro.cube import AnalyticalQuery
from repro.rdf import Dataset
from repro.sparql import QueryEngine
from repro.views import rewrite_on_view

from conftest import emit_timings

HEADLINE = {
    "dbpedia": "population_cube",
    "lubm": "students_by_department",
    "swdf": "papers_by_conference",
}

REPEATS = 5


def answer_from_view_seconds(dataset, view, query) -> float:
    """Best-of-REPEATS time answering ``query`` from a materialized view."""
    rewritten = rewrite_on_view(query, view)
    engine = QueryEngine(dataset.graph(view.iri))
    prepared = engine.prepare(rewritten)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        engine.query(prepared)
        best = min(best, time.perf_counter() - start)
    return best


def collect_lattice(loaded, facet_name):
    """Per-view (metrics, measured answer-from-view seconds) for a facet."""
    facet = loaded.facet(facet_name)
    dataset = Dataset.wrap(loaded.graph)
    offline = OfflineModule(dataset, facet)
    profile = offline.profile()
    catalog, _seconds = offline.materialize_full_lattice()
    learned = LearnedCost(seed=0, epochs=300)
    learned.fit_profiles([profile])

    apex_query = AnalyticalQuery(facet, 0)
    metrics = {"triples": [], "agg_values": [], "nodes": [], "learned": []}
    runtimes = []
    for view in offline.lattice:
        metrics["triples"].append(profile.triples(view))
        metrics["agg_values"].append(profile.rows(view))
        metrics["nodes"].append(profile.nodes(view))
        metrics["learned"].append(learned.cost(view, profile))
        runtimes.append(answer_from_view_seconds(dataset, view, apex_query))
    catalog.drop_all()
    return metrics, np.asarray(runtimes)


@pytest.fixture(scope="module")
def collected(all_small):
    # The correlation claim is about the dict serving path the cost
    # models were calibrated against: the columnar backend's fixed
    # kernel overhead dominates the sub-millisecond answer times on
    # these tiny view graphs and compresses the runtime range the
    # ranks are computed over, so the experiment pins the backend.
    previous = os.environ.get("REPRO_STORE")
    os.environ["REPRO_STORE"] = "dict"
    try:
        return {name: collect_lattice(all_small[name], HEADLINE[name])
                for name in sorted(HEADLINE)}
    finally:
        if previous is None:
            os.environ.pop("REPRO_STORE", None)
        else:
            os.environ["REPRO_STORE"] = previous


class TestCostRuntimeCorrelation:
    @pytest.mark.benchmark(group="E8-report")
    def test_spearman_per_dataset(self, benchmark, collected):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows = []
        informed_rhos = []
        rng = np.random.default_rng(0)
        for name, (metrics, runtimes) in sorted(collected.items()):
            random_scores = rng.uniform(size=len(runtimes))
            for label, values in [("random", random_scores),
                                  *sorted(metrics.items())]:
                rho, p = stats.spearmanr(values, runtimes)
                rows.append([name, label, f"{rho:.3f}", f"{p:.3g}"])
                if label in ("triples", "agg_values", "nodes"):
                    informed_rhos.append(rho)
        emit_timings(
            "E8", "Spearman(cost estimate, measured answer-from-view time) "
            "per lattice:\n"
            + format_table(("dataset", "cost model", "rho", "p"), rows,
                           align_right=[False, False, True, True]))
        # shape: size metrics track answering time within a lattice...
        assert np.mean(informed_rhos) > 0.5
        # ...but not perfectly everywhere (the paper's point)
        assert min(informed_rhos) < 0.999

    @pytest.mark.benchmark(group="E8-report")
    def test_pooled_rank_correlation(self, benchmark, collected):
        """Pooled across lattices after within-lattice rank normalization."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        pooled: dict[str, list[float]] = {}
        pooled_runtime: list[float] = []
        for name, (metrics, runtimes) in sorted(collected.items()):
            runtime_ranks = stats.rankdata(runtimes) / len(runtimes)
            pooled_runtime.extend(runtime_ranks)
            for label, values in metrics.items():
                ranks = stats.rankdata(values) / len(values)
                pooled.setdefault(label, []).extend(ranks)
        rows = []
        rhos = {}
        for label in sorted(pooled):
            rho, p = stats.spearmanr(pooled[label], pooled_runtime)
            rhos[label] = rho
            rows.append([label, f"{rho:.3f}", f"{p:.3g}"])
        emit_timings("E8", "pooled within-lattice ranks (24 views):\n"
                     + format_table(("cost model", "rho", "p"), rows,
                                    align_right=[False, True, True]))
        assert rhos["agg_values"] > 0.4
        assert rhos["triples"] > 0.4

    @pytest.mark.benchmark(group="E8-profiling")
    def test_benchmark_profile_headline_lattice(self, benchmark,
                                                small_dbpedia):
        facet = small_dbpedia.facet(HEADLINE["dbpedia"])

        def run():
            sofos = Sofos(small_dbpedia.graph, facet)
            return sofos.profile()

        profile = benchmark.pedantic(run, rounds=2, iterations=1)
        assert len(profile.views) == facet.lattice_size
