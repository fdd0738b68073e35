"""Tests for the lattice profiler, the six cost models, and estimation."""

import numpy as np
import pytest

from repro.errors import CostModelError
from repro.cost import AggregatedValuesCost, LatticeProfile, LearnedCost, \
    NodeCountCost, RandomCost, TripleCountCost, UserDefinedCost, \
    create_model, dimension_domains, encode_view, estimate_binding_count, \
    estimate_group_count, model_names, pattern_frequencies
from repro.cost import learned
from repro.cost.learned import ridge_fit
from repro.cube import ViewLattice
from repro.datasets import load_dataset
from repro.rdf import GraphStatistics, Variable, parse_turtle
from repro.sparql import QueryEngine


@pytest.fixture(scope="module")
def profiled(population_facet):
    from tests.conftest import build_population_graph
    graph = build_population_graph()
    engine = QueryEngine(graph)
    lattice = ViewLattice(population_facet)
    profile = LatticeProfile.profile(lattice, engine)
    return graph, lattice, profile


class TestProfiler:
    def test_profiles_every_view(self, profiled):
        graph, lattice, profile = profiled
        assert set(profile.views) == {v.mask for v in lattice}

    def test_base_profile(self, profiled, population_facet):
        graph, lattice, profile = profiled
        assert profile.base.triples == len(graph)
        assert profile.base.nodes == graph.node_count()
        # binding rows: one per (obs x language) join row
        assert profile.base.rows == 9

    def test_monotone_rows_up_the_lattice(self, profiled):
        graph, lattice, profile = profiled
        for view in lattice:
            for parent in lattice.parents(view):
                assert profile.rows(parent) >= profile.rows(view)

    def test_apex_has_one_group(self, profiled):
        graph, lattice, profile = profiled
        assert profile.rows(lattice.apex) == 1

    def test_accessors_and_errors(self, profiled, population_avg_facet):
        graph, lattice, profile = profiled
        view = lattice.finest
        assert profile.triples(view) > profile.rows(view)
        assert profile.nodes(view) > 0
        assert profile.eval_seconds(view) >= 0
        foreign = ViewLattice(population_avg_facet).apex
        with pytest.raises(CostModelError):
            profile.rows(foreign)

    def test_by_level_partition(self, profiled):
        graph, lattice, profile = profiled
        levels = profile.by_level()
        assert sum(len(level) for level in levels) == len(lattice)

    def test_full_lattice_amplification_above_one(self, profiled):
        graph, lattice, profile = profiled
        assert profile.full_lattice_amplification() > 1.0
        assert profile.total_triples() == sum(
            p.triples for p in profile)


class TestPaperModels:
    def test_registry_has_all_automatic_models(self):
        assert {"random", "triples", "agg_values", "nodes",
                "learned", "user"} <= set(model_names())

    def test_create_unknown_raises(self):
        with pytest.raises(CostModelError):
            create_model("psychic")

    def test_random_constant(self, profiled):
        graph, lattice, profile = profiled
        model = RandomCost()
        assert all(model.cost(v, profile) == 1.0 for v in lattice)
        assert model.base_cost(profile) == 1.0

    def test_triples_matches_profile(self, profiled):
        graph, lattice, profile = profiled
        model = TripleCountCost()
        for view in lattice:
            assert model.cost(view, profile) == profile.triples(view)
        assert model.base_cost(profile) == len(graph)

    def test_agg_values_matches_profile(self, profiled):
        graph, lattice, profile = profiled
        model = AggregatedValuesCost()
        for view in lattice:
            assert model.cost(view, profile) == profile.rows(view)
        assert model.base_cost(profile) == profile.base.rows

    def test_nodes_matches_profile(self, profiled):
        graph, lattice, profile = profiled
        model = NodeCountCost()
        for view in lattice:
            assert model.cost(view, profile) == profile.nodes(view)
        assert model.base_cost(profile) == profile.base.nodes

    def test_user_defined(self, profiled):
        graph, lattice, profile = profiled
        model = UserDefinedCost(lambda v, p: float(v.level), base=99.0,
                                label="levels")
        assert model.cost(lattice.finest, profile) == 2.0
        assert model.base_cost(profile) == 99.0
        assert model.describe() == "levels"

    def test_apex_cheaper_than_base_but_finest_may_exceed_it(self, profiled):
        """The paper's pitfall: a fine view's RDF encoding can be *larger*
        than the data it summarizes, so triple-count cost does not
        guarantee savings."""
        graph, lattice, profile = profiled
        for model in (TripleCountCost(), NodeCountCost(),
                      AggregatedValuesCost()):
            base = model.base_cost(profile)
            assert model.cost(lattice.apex, profile) < base
        # on this small graph the finest SUM view genuinely out-sizes G
        assert TripleCountCost().cost(lattice.finest, profile) > \
            len(graph) * 0.8


class TestEstimator:
    def test_pattern_frequencies(self, profiled, population_facet):
        graph, lattice, profile = profiled
        freqs = pattern_frequencies(population_facet.pattern,
                                    profile.graph_stats)
        assert len(freqs) == 4  # ofCountry, year, population, language
        assert all(f > 0 for f in freqs)

    def test_dimension_domains_bounded(self, profiled, population_facet):
        graph, lattice, profile = profiled
        domains = dimension_domains(population_facet, profile.graph_stats)
        # 4 languages, 2 years in the fixture
        assert domains[Variable("lang")] == 4
        assert domains[Variable("year")] == 2

    def test_group_count_estimate_bounds(self, profiled, population_facet):
        graph, lattice, profile = profiled
        stats = profile.graph_stats
        assert estimate_group_count(lattice.apex, stats) == 1.0
        finest = estimate_group_count(lattice.finest, stats)
        assert finest >= profile.rows(lattice.finest) / 2  # rough upper bound

    def test_binding_estimate_positive(self, profiled, population_facet):
        graph, lattice, profile = profiled
        estimate = estimate_binding_count(population_facet,
                                          profile.graph_stats)
        assert estimate > 0


class TestRidgeFit:
    def test_recovers_a_linear_target(self, monkeypatch):
        x = np.random.default_rng(0).uniform(-1, 1, (200, 3))
        y = 2 * x[:, 0] - x[:, 1] + 0.5
        # the default penalty shrinks the weights by about RIDGE / n ...
        coef, intercept = ridge_fit(x, y)
        assert np.allclose(x @ coef + intercept, y, atol=1e-4, rtol=0.0)
        # ... and without it the algebra (standardize, solve, map the
        # weights back to raw features) is exact
        monkeypatch.setattr(learned, "RIDGE", 0.0)
        coef, intercept = ridge_fit(x, y)
        assert np.allclose(coef, [2.0, -1.0, 0.0], atol=1e-9, rtol=0.0)
        assert intercept == pytest.approx(0.5, abs=1e-9)

    def test_constant_feature_gets_zero_weight(self):
        x = np.column_stack([np.linspace(0, 1, 10), np.full(10, 3.0)])
        coef, _ = ridge_fit(x, 4 * x[:, 0])
        assert coef[1] == 0.0

    @pytest.mark.parametrize("x, y", [
        (np.ones((1, 2)), np.ones(1)),        # too few examples
        (np.ones((3, 2)), np.ones(4)),        # row/target mismatch
        (np.ones(3), np.ones(3)),             # not a matrix
    ])
    def test_bad_input_rejected(self, x, y):
        with pytest.raises(CostModelError):
            ridge_fit(x, y)


class TestLearnedCost:
    def test_features_are_stat_only(self, profiled, population_facet):
        graph, lattice, profile = profiled
        finest = encode_view(lattice.finest, profile.graph_stats)
        apex = encode_view(lattice.apex, profile.graph_stats)
        assert finest.shape == apex.shape
        assert finest[0] == 2.0 and apex[0] == 0.0  # n_dims feature

    def test_unfitted_cost_raises(self, profiled):
        graph, lattice, profile = profiled
        model = LearnedCost()
        with pytest.raises(CostModelError):
            model.cost(lattice.apex, profile)

    def test_prepare_self_trains(self, profiled):
        graph, lattice, profile = profiled
        model = LearnedCost()
        model.prepare(profile)
        assert model.cost(lattice.finest, profile) >= 0.0
        # views and base are priced on one scale: triples
        assert model.base_cost(profile) == profile.base.triples

    def test_prepare_refits_on_a_changed_graph(self, profiled,
                                               population_facet):
        from tests.conftest import POPULATION_TTL
        graph, lattice, profile_a = profiled
        changed = parse_turtle(POPULATION_TTL + """
ex:obs8 ex:ofCountry ex:spain ; ex:year 2020 ; ex:population 47 .
ex:obs9 ex:ofCountry ex:spain ; ex:year 2021 ; ex:population 48 .
ex:spain ex:language ex:spanish , ex:catalan ; ex:partOf ex:eu .
""")
        profile_b = LatticeProfile.profile(lattice, QueryEngine(changed))
        reused, fresh = LearnedCost(), LearnedCost()
        reused.prepare(profile_a)
        stale = [reused.cost(view, profile_b) for view in lattice]
        reused.prepare(profile_b)
        fresh.prepare(profile_b)
        costs = [reused.cost(view, profile_b) for view in lattice]
        assert costs == [fresh.cost(view, profile_b) for view in lattice]
        assert costs != stale

    def test_fit_profiles_transfer(self, profiled, population_avg_facet):
        from tests.conftest import build_population_graph
        graph, lattice, profile = profiled
        avg_lattice = ViewLattice(population_avg_facet)
        avg_profile = LatticeProfile.profile(
            avg_lattice, QueryEngine(build_population_graph()))
        model = LearnedCost()
        model.fit_profiles([avg_profile])   # train on a different facet
        transfer = [model.cost(view, profile) for view in lattice]
        model.prepare(profile)              # keeps the transfer fit
        assert [model.cost(view, profile) for view in lattice] == transfer
        for cost in transfer + [model.base_cost(profile)]:
            assert np.isfinite(cost) and cost >= 0.0

    def test_deterministic(self, profiled):
        graph, lattice, profile = profiled
        a, b = LearnedCost(), LearnedCost()
        a.fit_profiles([profile])
        b.fit_profiles([profile])
        assert [a.cost(v, profile) for v in lattice] == \
            [b.cost(v, profile) for v in lattice]

    def test_greedy_is_not_random_on_the_headline_lattice(self):
        from repro.core import Sofos
        dataset = load_dataset("dbpedia", "small")
        facet = dataset.facet("population_cube")
        picks = []
        for seed in (0, 7):
            sofos = Sofos(dataset.graph, facet, seed=seed)
            learned = sofos.select("learned", k=2)
            assert learned.steps[0].benefit > 0.0
            assert learned.masks != sofos.select("random", k=2).masks
            picks.append(learned.labels)
        assert picks[0] == picks[1]
