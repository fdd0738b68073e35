"""The view-selection problem: one priced lattice, one objective.

Every strategy answers the same question (paper §3): which views make a
weighted query set cheapest, when a query is answered from the cheapest
selected view that covers it and from the base graph otherwise.  The query
set is an explicit workload or — when none is given — the lattice itself
(every view doubles as the query asking for its granularity, the classic
HRU setting).  Strategies differ only in how they search the objective.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from ..errors import SelectionError
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cube.view import ViewDefinition
from ..cost.base import CostModel
from ..cost.profiler import LatticeProfile
from .plans import SelectionResult, SelectionStep

__all__ = ["SelectionProblem", "workload_masks"]


def workload_masks(lattice: ViewLattice,
                   workload: Sequence[AnalyticalQuery] | None
                   ) -> list[tuple[int, float]]:
    """(required mask, weight) pairs for the query set driving selection."""
    if workload:
        masks: dict[int, float] = {}
        for query in workload:
            masks[query.required_mask] = masks.get(query.required_mask, 0.0) + 1.0
        return sorted(masks.items())
    return [(view.mask, 1.0) for view in lattice]


class SelectionProblem:
    """One ``select`` call's lattice, priced by its cost model for its
    weighted query set."""

    def __init__(self, lattice: ViewLattice, profile: LatticeProfile,
                 model: CostModel,
                 workload: Sequence[AnalyticalQuery] | None = None) -> None:
        self._started = time.perf_counter()
        model.prepare(profile)
        self.cost_model = model.describe()
        self.views: list[ViewDefinition] = list(lattice)
        #: the model's price of answering from each view, by mask
        self.costs = {view.mask: model.cost(view, profile)
                      for view in self.views}
        #: each view's exact materialized size in triples, by mask
        self.sizes = {view.mask: profile.triples(view) for view in self.views}
        self.base_cost = model.base_cost(profile)
        self.queries = workload_masks(lattice, workload)

    def count(self, k: int | None) -> int:
        """The number of views a count ``k`` (None: no limit) allows."""
        if k is None:
            return len(self.views)
        if k < 0:
            raise SelectionError(f"k must be non-negative, got {k}")
        return min(k, len(self.views))

    def cost_of(self, views: Iterable[ViewDefinition]) -> float:
        """The objective: total estimated cost of the query set under a
        set of selected views."""
        selected = [(view.mask, self.costs[view.mask]) for view in views]
        total = 0.0
        for required, weight in self.queries:
            best = self.base_cost
            for mask, cost in selected:
                if (required & mask) == required and cost < best:
                    best = cost
            total += weight * best
        return total

    def result(self, strategy: str, views: Sequence[ViewDefinition],
               steps: Sequence[SelectionStep] = ()) -> SelectionResult:
        """A search's outcome, priced here and timed from construction."""
        return SelectionResult(
            strategy=strategy,
            cost_model=self.cost_model,
            views=list(views),
            steps=list(steps),
            estimated_workload_cost=self.cost_of(views),
            select_seconds=time.perf_counter() - self._started,
        )
