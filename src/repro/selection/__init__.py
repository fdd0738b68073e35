"""View selection: :class:`SelectionProblem` prices the lattice and owns the
objective; greedy (HRU, under a view count and/or a triple budget),
exhaustive, annealing and user selection are searches over it."""

from .annealing import AnnealingSelector
from .exhaustive import ExhaustiveSelector
from .greedy import GreedySelector
from .plans import SelectionResult, SelectionStep
from .problem import SelectionProblem, workload_masks
from .user import UserSelection

__all__ = [
    "AnnealingSelector", "ExhaustiveSelector", "GreedySelector",
    "SelectionProblem", "SelectionResult", "SelectionStep", "UserSelection",
    "workload_masks",
]
