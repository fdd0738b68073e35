"""Simulated-annealing view selection.

Greedy selection (HRU) is the paper's choice, but the view-selection
literature also explores randomized search (Kalnis et al., "View
selection using randomized search", DKE 2002).  This selector anneals over
k-subsets of the lattice with the same workload-cost objective the greedy
and exhaustive selectors optimize, making it a drop-in third strategy for
the ablation benches: it can escape greedy's local optima at the price of
more cost-model evaluations.

Deterministic under its seed; neighbor moves swap one selected view for
one unselected view.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from ..errors import SelectionError
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cost.base import CostModel
from ..cost.profiler import LatticeProfile
from .plans import SelectionResult
from .problem import SelectionProblem

__all__ = ["AnnealingSelector"]


class AnnealingSelector:
    """Randomized view selection by simulated annealing."""

    strategy = "annealing"

    def __init__(self, cost_model: CostModel, seed: int = 0,
                 iterations: int = 2000, initial_temperature: float = 1.0,
                 cooling: float = 0.995) -> None:
        if iterations < 1:
            raise SelectionError("iterations must be positive")
        if not 0.0 < cooling < 1.0:
            raise SelectionError("cooling must be in (0, 1)")
        self._model = cost_model
        self._seed = seed
        self._iterations = iterations
        self._initial_temperature = initial_temperature
        self._cooling = cooling

    def select(self, lattice: ViewLattice, profile: LatticeProfile,
               k: int | None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult:
        problem = SelectionProblem(lattice, profile, self._model, workload)
        k = problem.count(k)
        rng = random.Random(self._seed)
        views = problem.views

        current = rng.sample(views, k)
        current_cost = problem.cost_of(current)
        best = list(current)
        best_cost = current_cost

        # Temperature is scaled to the objective so acceptance behaves the
        # same across datasets with very different absolute costs.
        temperature = self._initial_temperature * max(current_cost, 1.0)
        for _step in range(self._iterations):
            if k == 0 or k == len(views):
                break
            outside = [v for v in views if v not in current]
            swap_out = rng.randrange(k)
            swap_in = rng.choice(outside)
            candidate = list(current)
            candidate[swap_out] = swap_in
            candidate_cost = problem.cost_of(candidate)
            delta = candidate_cost - current_cost
            if delta <= 0 or (temperature > 1e-12
                              and rng.random() < math.exp(-delta / temperature)):
                current = candidate
                current_cost = candidate_cost
                if current_cost < best_cost:
                    best = list(current)
                    best_cost = current_cost
            temperature *= self._cooling

        best.sort(key=lambda v: v.mask)
        return problem.result(self.strategy, best)
