"""A SPARQL SELECT engine for the analytical fragment.

Pipeline: ``parse_query`` → :class:`SelectQuery` AST → ``translate_query``
→ algebra → :class:`Executor` pushes columnar id-space batches
(:class:`BindingBatch`) → :class:`ResultTable`.  Most callers only need
:class:`QueryEngine`.  :class:`ReferenceExecutor` is the retained
tuple-at-a-time evaluator used as the parity/benchmark oracle.
"""

from .algebra import translate_group, translate_query
from .ast import AggregateExpr, Expression, GroupPattern, ProjectionItem, \
    SelectQuery
from .batch import BindingBatch
from .delta import DeltaEvaluator, DeltaPlan, compile_delta_plan
from .engine import PreparedQuery, QueryEngine
from .executor import Executor
from .grouptable import GroupEntry, GroupTable, KIND_BY_AGGREGATE
from .parser import parse_query
from .reference import ReferenceExecutor
from .results import ResultTable

__all__ = [
    "AggregateExpr", "BindingBatch", "DeltaEvaluator", "DeltaPlan",
    "Executor", "Expression", "GroupEntry",
    "GroupPattern", "GroupTable", "KIND_BY_AGGREGATE",
    "PreparedQuery", "ProjectionItem", "QueryEngine", "ReferenceExecutor",
    "ResultTable", "SelectQuery", "compile_delta_plan", "parse_query",
    "translate_group", "translate_query",
]
