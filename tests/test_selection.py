"""Tests for view selection: the priced problem and the strategies that
search it (greedy under a count or a budget, exhaustive, annealing, user)."""

import pytest

from repro.errors import SelectionError
from repro.cost import AggregatedValuesCost, LatticeProfile, RandomCost, \
    TripleCountCost, create_model
from repro.cube import AnalyticalQuery, FilterCondition, ViewLattice
from repro.rdf import Variable, typed_literal
from repro.core import Sofos
from repro.selection import AnnealingSelector, ExhaustiveSelector, \
    GreedySelector, SelectionProblem, UserSelection, workload_masks
from repro.sparql import QueryEngine

from tests.conftest import build_population_graph

LANG = Variable("lang")
YEAR = Variable("year")


@pytest.fixture(scope="module")
def world(population_facet):
    graph = build_population_graph()
    lattice = ViewLattice(population_facet)
    profile = LatticeProfile.profile(lattice, QueryEngine(graph))
    return lattice, profile


def workload_for(facet):
    return [
        AnalyticalQuery(facet, 0b01),
        AnalyticalQuery(facet, 0b01,
                        (FilterCondition(YEAR, "=", typed_literal(2019)),)),
        AnalyticalQuery(facet, 0b11),
        AnalyticalQuery(facet, 0),
    ]


class TestWorkloadMasks:
    def test_lattice_proxy_when_no_workload(self, world):
        lattice, profile = world
        masks = workload_masks(lattice, None)
        assert [m for m, _ in masks] == [0, 1, 2, 3]
        assert all(w == 1.0 for _, w in masks)

    def test_workload_masks_weighted_by_frequency(self, world,
                                                  population_facet):
        lattice, profile = world
        queries = workload_for(population_facet)
        masks = dict(workload_masks(lattice, queries))
        assert masks[0b01] == 1.0
        assert masks[0b11] == 2.0   # the filtered query requires lang+year
        assert masks[0] == 1.0

    def test_cost_of_falls_back_to_the_base(self, world, population_facet):
        lattice, profile = world
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload_for(population_facet))
        lang, base = profile.rows(lattice[0b01]), profile.base.rows
        # only view 0b01 selected: it answers masks 0 and 0b01, the two
        # queries that need lang+year fall back to the base graph
        assert problem.cost_of([lattice[0b01]]) == 2 * lang + 2 * base
        assert problem.cost_of([]) == 4 * base

    def test_result_is_priced_by_the_problem(self, world):
        lattice, profile = world
        problem = SelectionProblem(lattice, profile, TripleCountCost())
        picked = [lattice[0b01], lattice[0]]
        result = problem.result("by-hand", picked)
        assert result.estimated_workload_cost == problem.cost_of(picked)
        assert (result.strategy, result.cost_model) == ("by-hand", "triples")
        assert result.labels == ["lang", "apex"]


class TestGreedy:
    def test_selects_k_views(self, world):
        lattice, profile = world
        result = GreedySelector(AggregatedValuesCost()).select(
            lattice, profile, 2)
        assert len(result.views) == 2
        assert len(result.steps) == 2
        assert result.select_seconds >= 0

    def test_first_pick_maximizes_benefit(self, world):
        # the greedy invariant: round 1 picks argmax_v sum_q benefit(v, q)
        lattice, profile = world
        base = float(profile.base.rows)

        def benefit(view):
            cost = float(profile.rows(view))
            return sum(max(0.0, base - cost) for q in lattice
                       if view.covers_mask(q.mask))

        expected = max(lattice, key=benefit)
        result = GreedySelector(AggregatedValuesCost()).select(
            lattice, profile, 1)
        assert result.views[0].mask == expected.mask
        assert result.steps[0].benefit == pytest.approx(benefit(expected))

    def test_benefits_non_increasing(self, world):
        lattice, profile = world
        result = GreedySelector(AggregatedValuesCost()).select(
            lattice, profile, 4)
        benefits = [step.benefit for step in result.steps]
        assert benefits == sorted(benefits, reverse=True)

    def test_workload_changes_the_selection(self, world, population_facet):
        # a workload hammering mask 0b11 shifts benefit toward views that
        # cover it; with enough k the finest view must be included
        lattice, profile = world
        queries = [AnalyticalQuery(population_facet, 0b11)] * 10
        result = GreedySelector(AggregatedValuesCost()).select(
            lattice, profile, 2, queries)
        assert any(v.covers_mask(0b11) for v in result.views)

    def test_estimated_cost_decreases_with_k(self, world, population_facet):
        lattice, profile = world
        queries = workload_for(population_facet)
        selector = GreedySelector(AggregatedValuesCost())
        costs = [selector.select(lattice, profile, k, queries)
                 .estimated_workload_cost for k in (0, 1, 2, 4)]
        assert costs == sorted(costs, reverse=True)

    def test_random_model_gives_random_subset(self, world):
        # the zero-benefit rule under a count: every view costs the same, no
        # round has a positive benefit, and each still picks — exactly k
        # views, which ones decided by the seeded shuffle
        lattice, profile = world
        picks = set()
        for seed in range(8):
            result = GreedySelector(RandomCost(), seed=seed).select(
                lattice, profile, 2)
            assert len(result.views) == 2
            assert [step.benefit for step in result.steps] == [0.0, 0.0]
            picks.add(result.masks)
        assert len(picks) > 1  # different seeds, different subsets


class TestExhaustive:
    def test_matches_or_beats_greedy(self, world, population_facet):
        lattice, profile = world
        queries = workload_for(population_facet)
        model = AggregatedValuesCost()
        optimal = ExhaustiveSelector(model).select(lattice, profile, 2,
                                                   queries)
        greedy = GreedySelector(model).select(lattice, profile, 2, queries)
        assert optimal.estimated_workload_cost <= \
            greedy.estimated_workload_cost + 1e-9

    def test_combination_limit(self, world):
        lattice, profile = world
        selector = ExhaustiveSelector(AggregatedValuesCost(),
                                      max_combinations=1)
        with pytest.raises(SelectionError):
            selector.select(lattice, profile, 2)


class TestSpaceBudget:
    def test_respects_budget(self, world):
        lattice, profile = world
        budget = profile.triples(lattice[1]) + profile.triples(lattice[2])
        result = GreedySelector(AggregatedValuesCost(),
                                triple_budget=budget).select(lattice, profile)
        used = sum(profile.triples(v) for v in result.views)
        assert used <= budget
        assert result.views  # something fits

    def test_zero_budget_selects_nothing(self, world):
        lattice, profile = world
        result = GreedySelector(AggregatedValuesCost(),
                                triple_budget=0).select(lattice, profile)
        assert result.views == []

    def test_k_caps_a_budgeted_selection(self, world):
        lattice, profile = world
        result = GreedySelector(AggregatedValuesCost(),
                                triple_budget=10 ** 9).select(lattice,
                                                              profile, 1)
        assert len(result.views) == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(SelectionError):
            GreedySelector(AggregatedValuesCost(), triple_budget=-1)

    def test_budget_scores_benefit_per_triple(self, world):
        lattice, profile = world
        plain = GreedySelector(TripleCountCost()).select(lattice, profile, 1)
        per_triple = GreedySelector(
            TripleCountCost(), triple_budget=profile.total_triples()
        ).select(lattice, profile, 1)
        assert profile.triples(per_triple.views[0]) <= \
            profile.triples(plain.views[0])

    def test_zero_benefit_round_ends_a_budgeted_selection(self, world):
        # the zero-benefit rule under a budget: space is not spent on a view
        # the objective does not want.  lang+year holds more triples than the
        # base graph, so under `triples` nothing is gained by adding it and
        # the selection ends with more than half the budget unspent ...
        lattice, profile = world
        budget = profile.total_triples()
        result = GreedySelector(TripleCountCost(),
                                triple_budget=budget).select(lattice, profile)
        assert result.labels == ["apex", "year", "lang"]
        assert all(step.benefit > 0 for step in result.steps)
        assert 2 * sum(profile.triples(v) for v in result.views) < budget
        # ... and `random`, where no view ever has a benefit, selects nothing
        # (under a count it selects k: TestGreedy)
        nothing = GreedySelector(RandomCost(), triple_budget=budget).select(
            lattice, profile)
        assert nothing.views == []

    def test_facade_does_not_cap_a_budgeted_selection(self, tiny_dbpedia):
        # regression: Sofos.select used to hand its model-path default k=2
        # to a caller's selector, silently capping the budget at two views
        sofos = Sofos(tiny_dbpedia.graph,
                      tiny_dbpedia.facet("population_cube_4d"))
        selector = GreedySelector(
            TripleCountCost(), triple_budget=sofos.profile().total_triples())
        direct = selector.select(sofos.lattice, sofos.profile())
        assert len(direct.views) > 2
        assert sofos.select(selector=selector).labels == direct.labels
        assert len(sofos.select(selector=selector, k=3).views) == 3
        # the model path still means k = 2 when no k is given
        assert len(sofos.select().views) == 2
        assert len(sofos.select("triples").views) == 2


STRATEGIES = {
    "greedy": lambda model, seed=0: GreedySelector(model, seed=seed),
    "exhaustive": lambda model, seed=0: ExhaustiveSelector(model),
    "annealing": lambda model, seed=0: AnnealingSelector(model, seed=seed),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
class TestEveryStrategy:
    """What holds for any search over the same problem under a count k."""

    def test_selects_k_distinct_views(self, world, name):
        lattice, profile = world
        result = STRATEGIES[name](AggregatedValuesCost()).select(
            lattice, profile, 2)
        assert len(result.masks) == len(result.views) == 2
        assert result.strategy == name
        assert result.cost_model == "agg_values"

    def test_k_zero(self, world, name):
        lattice, profile = world
        result = STRATEGIES[name](AggregatedValuesCost()).select(
            lattice, profile, 0)
        assert result.views == []

    def test_k_larger_than_lattice(self, world, name):
        lattice, profile = world
        result = STRATEGIES[name](AggregatedValuesCost()).select(
            lattice, profile, 99)
        assert result.masks == {view.mask for view in lattice}

    def test_negative_k_rejected(self, world, name):
        lattice, profile = world
        with pytest.raises(SelectionError):
            STRATEGIES[name](AggregatedValuesCost()).select(lattice, profile,
                                                            -1)

    @pytest.mark.parametrize("model", (AggregatedValuesCost, RandomCost))
    def test_deterministic_under_seed(self, world, name, model):
        lattice, profile = world
        a = STRATEGIES[name](model(), seed=5).select(lattice, profile, 2)
        b = STRATEGIES[name](model(), seed=5).select(lattice, profile, 2)
        assert a.labels == b.labels
        assert a.estimated_workload_cost == b.estimated_workload_cost

    def test_never_worse_than_no_views(self, world, population_facet, name):
        lattice, profile = world
        queries = workload_for(population_facet)
        selector = STRATEGIES[name](AggregatedValuesCost(), seed=3)
        nothing = selector.select(lattice, profile, 0, queries)
        for k in (1, 2, 3):
            assert selector.select(lattice, profile, k, queries) \
                .estimated_workload_cost <= nothing.estimated_workload_cost


class TestAnnealing:
    def test_matches_exhaustive_on_the_8_view_lattice(self, tiny_dbpedia):
        sofos = Sofos(tiny_dbpedia.graph,
                      tiny_dbpedia.facet("population_cube"), seed=0)
        lattice, profile = sofos.lattice, sofos.profile()
        workload = sofos.generate_workload(25)
        model = AggregatedValuesCost()
        for k in (1, 2, 3):
            optimal = ExhaustiveSelector(model).select(lattice, profile, k,
                                                       workload)
            annealed = AnnealingSelector(model, seed=0, iterations=500
                                         ).select(lattice, profile, k,
                                                  workload)
            assert annealed.estimated_workload_cost == pytest.approx(
                optimal.estimated_workload_cost)

    def test_parameter_validation(self):
        with pytest.raises(SelectionError):
            AnnealingSelector(AggregatedValuesCost(), iterations=0)
        with pytest.raises(SelectionError):
            AnnealingSelector(AggregatedValuesCost(), cooling=1.5)


class TestUserSelection:
    def test_by_label(self, world):
        lattice, profile = world
        result = UserSelection(["lang+year", "apex"]).select(lattice,
                                                             profile)
        assert result.labels == ["lang+year", "apex"]
        assert result.strategy == "user"

    def test_by_variable_tuple(self, world):
        lattice, profile = world
        result = UserSelection([("lang",)]).select(lattice, profile)
        assert result.labels == ["lang"]

    def test_by_definition(self, world):
        lattice, profile = world
        result = UserSelection([lattice.finest]).select(lattice, profile)
        assert result.masks == {lattice.finest.mask}

    def test_duplicates_removed(self, world):
        lattice, profile = world
        result = UserSelection(["apex", "apex"]).select(lattice, profile)
        assert result.labels == ["apex"]

    def test_unknown_label_raises_with_hint(self, world):
        lattice, profile = world
        with pytest.raises(SelectionError) as err:
            UserSelection(["nope"]).select(lattice, profile)
        assert "apex" in str(err.value)

    def test_k_truncates(self, world):
        lattice, profile = world
        result = UserSelection(["apex", "lang", "year"]).select(
            lattice, profile, k=2)
        assert len(result.views) == 2

    def test_estimated_cost_uses_row_scale(self, world, population_facet):
        lattice, profile = world
        queries = workload_for(population_facet)
        everything = UserSelection(["lang+year"]).select(
            lattice, profile, workload=queries)
        nothing = UserSelection([]).select(lattice, profile,
                                           workload=queries)
        assert everything.estimated_workload_cost < \
            nothing.estimated_workload_cost
