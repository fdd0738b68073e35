"""Greedy view selection (Harinarayan–Rajaraman–Ullman adapted to SOFOS).

Following the paper (§3): "Given a set of selected views, the greedy
approach exploits the estimated time from the cost function and compares
the expected running time of a set of queries with and without including
the candidate view" — and selects "up to k views up to a certain memory
budget".  One loop serves both constraints: each round adds the admissible
view with the best score over the :class:`SelectionProblem`, ties broken
by a seeded RNG.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import SelectionError
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cube.view import ViewDefinition
from ..cost.base import CostModel
from ..cost.profiler import LatticeProfile
from .plans import SelectionResult, SelectionStep
from .problem import SelectionProblem

__all__ = ["GreedySelector"]


class GreedySelector:
    """Benefit-greedy selection under a view count, a triple budget, or both.

    Under a count every view takes one slot and the best view is the one
    with the largest benefit; under a ``triple_budget`` a view takes its
    exact size out of the remaining space, only views that still fit are
    admissible and the best is the largest benefit per triple (HRU's rule
    for a space constraint).  A round in which no view has a positive
    benefit still picks under a pure count — k is the paper's k, and the
    seeded shuffle then makes the constant ``random`` model a uniformly
    random k-subset — but ends a budgeted selection: space is not spent on
    a view the objective does not want (``random`` under a budget selects
    nothing).
    """

    strategy = "greedy"

    def __init__(self, cost_model: CostModel, seed: int = 0,
                 triple_budget: int | None = None) -> None:
        if triple_budget is not None and triple_budget < 0:
            raise SelectionError("triple budget must be non-negative")
        self._model = cost_model
        self._seed = seed
        self._budget = triple_budget

    def select(self, lattice: ViewLattice, profile: LatticeProfile,
               k: int | None = None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult:
        """Pick up to ``k`` views (None: as many as the budget admits)
        maximizing cumulative benefit."""
        problem = SelectionProblem(lattice, profile, self._model, workload)
        limit = problem.count(k)
        budgeted = self._budget is not None
        space_left = self._budget
        rng = random.Random(self._seed)
        costs, sizes = problem.costs, problem.sizes

        # current cheapest answer-cost per query mask
        current = {mask: problem.base_cost for mask, _ in problem.queries}
        remaining = list(problem.views)
        steps: list[SelectionStep] = []
        while len(steps) < limit:
            rng.shuffle(remaining)  # seeded tie-breaking (random model!)
            best_view: ViewDefinition | None = None
            best_score = -1.0
            best_benefit = 0.0
            for view in remaining:
                if budgeted and sizes[view.mask] > space_left:
                    continue
                view_cost = costs[view.mask]
                benefit = 0.0
                for mask, weight in problem.queries:
                    if view.covers_mask(mask) and view_cost < current[mask]:
                        benefit += weight * (current[mask] - view_cost)
                score = (benefit / max(sizes[view.mask], 1) if budgeted
                         else benefit)
                if score > best_score:
                    best_view, best_score, best_benefit = view, score, benefit
            # the zero-benefit rule: a count still picks, a budget stops
            if best_view is None or (budgeted and best_benefit <= 0.0):
                break
            remaining.remove(best_view)
            view_cost = costs[best_view.mask]
            steps.append(SelectionStep(best_view, best_benefit, view_cost))
            if budgeted:
                space_left -= sizes[best_view.mask]
            for mask, _weight in problem.queries:
                if best_view.covers_mask(mask) and view_cost < current[mask]:
                    current[mask] = view_cost

        return problem.result(
            self.strategy + ("/unit-space" if budgeted else ""),
            [step.view for step in steps], steps)
