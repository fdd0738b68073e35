"""The SOFOS core: offline + online modules behind the Sofos facade."""

from .metrics import QueryOutcome, Timer, WorkloadRun
from .offline import OfflineModule, Selector
from .online import Answer, OnlineModule, ServingPlans
from .report import ComparisonReport, ComparisonRow, format_table
from .sofos import DEFAULT_MODELS, Sofos

__all__ = [
    "Answer", "ComparisonReport", "ComparisonRow", "DEFAULT_MODELS",
    "OfflineModule", "OnlineModule", "QueryOutcome", "Selector",
    "ServingPlans", "Sofos", "Timer", "WorkloadRun", "format_table",
]
