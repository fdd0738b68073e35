"""User-selected views: the demo's interactive selection mode.

In the GUI the user clicks lattice nodes; programmatically,
:class:`UserSelection` takes the chosen views (by label, variable tuple,
or definition) and produces the same :class:`SelectionResult` shape the
automatic selectors emit, so downstream comparison treats a human exactly
like a cost model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import SelectionError
from ..cube.lattice import ViewLattice
from ..cube.query import AnalyticalQuery
from ..cube.view import ViewDefinition
from ..rdf.terms import Variable
from ..cost.models import AggregatedValuesCost
from ..cost.profiler import LatticeProfile
from .plans import SelectionResult
from .problem import SelectionProblem

__all__ = ["UserSelection"]


class UserSelection:
    """A fixed, human-chosen set of views."""

    strategy = "user"

    def __init__(self, choices: Iterable[ViewDefinition | str |
                                         tuple[str, ...]],
                 label: str = "user") -> None:
        self._choices = list(choices)
        self._label = label

    def _resolve(self, lattice: ViewLattice) -> list[ViewDefinition]:
        resolved: list[ViewDefinition] = []
        by_label = {view.label: view for view in lattice}
        for choice in self._choices:
            if isinstance(choice, ViewDefinition):
                if choice.facet != lattice.facet:
                    raise SelectionError(
                        f"view {choice.label!r} belongs to another facet")
                resolved.append(lattice[choice.mask])
            elif isinstance(choice, str):
                view = by_label.get(choice)
                if view is None:
                    raise SelectionError(
                        f"no view labelled {choice!r}; available: "
                        + ", ".join(sorted(by_label)))
                resolved.append(view)
            else:
                variables = tuple(Variable(name) for name in choice)
                resolved.append(lattice.view_for(variables))
        seen: set[int] = set()
        unique: list[ViewDefinition] = []
        for view in resolved:
            if view.mask not in seen:
                seen.add(view.mask)
                unique.append(view)
        return unique

    def select(self, lattice: ViewLattice, profile: LatticeProfile,
               k: int | None = None,
               workload: Sequence[AnalyticalQuery] | None = None
               ) -> SelectionResult:
        """Resolve the user's picks (``k`` truncates when given).

        The estimated cost is computed with the aggregated-values model so
        that user selections can be compared on the same scale the demo's
        performance panel uses.
        """
        problem = SelectionProblem(lattice, profile, AggregatedValuesCost(),
                                   workload)
        views = self._resolve(lattice)[:problem.count(k)]
        result = problem.result(self.strategy, views)
        result.cost_model = self._label
        return result
