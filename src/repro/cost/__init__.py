"""The six cost models for view selection plus the lattice profiler."""

from .base import CostModel, create_model, model_names, register_model
from .estimator import dimension_domains, estimate_binding_count, \
    estimate_group_count, pattern_frequencies
from .learned import FEATURE_NAMES, LearnedCost, encode_view
from .models import AggregatedValuesCost, NodeCountCost, RandomCost, \
    TripleCountCost, UserDefinedCost
from .profiler import BaseProfile, LatticeProfile, ViewProfile

__all__ = [
    "AggregatedValuesCost", "BaseProfile", "CostModel", "FEATURE_NAMES",
    "LatticeProfile", "LearnedCost", "NodeCountCost", "RandomCost",
    "TripleCountCost", "UserDefinedCost", "ViewProfile",
    "create_model", "dimension_domains", "encode_view",
    "estimate_binding_count", "estimate_group_count", "model_names",
    "pattern_frequencies", "register_model",
]
