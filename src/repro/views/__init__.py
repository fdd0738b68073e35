"""View materialization, cataloging, routing, maintenance, rewriting."""

from .analyzer import analyze_query, match_report
from .catalog import MaterializedView, ViewCatalog
from .maintenance import MAINTENANCE_POLICIES, MaintenanceReport, \
    ViewMaintainer, ViewMaintenance
from .persistence import CatalogRecovery, load_expanded, save_expanded
from .materializer import GroupIndex, MaterializationStats, \
    dimension_predicate, materialize_view_from_table
from .rewriter import can_answer, rewrite_on_view
from .router import ViewRouter

__all__ = [
    "MAINTENANCE_POLICIES", "CatalogRecovery", "GroupIndex",
    "MaintenanceReport",
    "MaterializationStats", "ViewMaintainer", "ViewMaintenance",
    "analyze_query", "match_report", "MaterializedView", "ViewCatalog",
    "ViewRouter",
    "can_answer", "dimension_predicate", "materialize_view_from_table",
    "rewrite_on_view", "load_expanded", "save_expanded",
]
