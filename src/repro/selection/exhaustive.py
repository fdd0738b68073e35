"""Exhaustive (optimal) view selection for small lattices.

The demo's "hands-on challenge" asks participants to find the *best*
selection for a budget; this selector computes that ground truth by
enumerating every k-subset of the lattice and scoring it with the same
workload-cost objective the greedy selector optimizes.  Guarded by a
combination limit — the point of the challenge is that this does not
scale.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

from ..errors import SelectionError
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cost.base import CostModel
from ..cost.profiler import LatticeProfile
from .plans import SelectionResult
from .problem import SelectionProblem

__all__ = ["ExhaustiveSelector"]


class ExhaustiveSelector:
    """Optimal k-subset selection by enumeration."""

    strategy = "exhaustive"

    def __init__(self, cost_model: CostModel,
                 max_combinations: int = 500_000) -> None:
        self._model = cost_model
        self._max_combinations = max_combinations

    def select(self, lattice: ViewLattice, profile: LatticeProfile,
               k: int | None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult:
        problem = SelectionProblem(lattice, profile, self._model, workload)
        n = len(problem.views)
        k = problem.count(k)
        total_combinations = comb(n, k)
        if total_combinations > self._max_combinations:
            raise SelectionError(
                f"C({n},{k}) = {total_combinations} exceeds the enumeration "
                f"limit {self._max_combinations}; use the greedy selector")
        # min() keeps the first of equally cheap subsets, in lattice order
        best = min(combinations(problem.views, k), key=problem.cost_of)
        return problem.result(self.strategy, best)
