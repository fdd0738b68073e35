"""Paper model (5): the learned cost estimate.

After Ortiz et al. (arXiv:1905.06425), a view is encoded as a fixed-length
vector of its relationships, attributes and aggregate type plus frequency
statistics of the graph (:func:`encode_view`), and one closed-form ridge
fit (:func:`ridge_fit`: standardized features, an unpenalized intercept,
``(ZᵀZ + λI) w = Zᵀy`` solved once) maps it to a cost.  The target is
``log1p`` of the view's exact encoded size, the triples of its §3.1 RDF
encoding, which tracks the time to answer from the view (E8); the base
graph is priced on the same scale, by its own triples.  The target is not
a measured time: the profile's timings put the shared facet scan in every
view's entry (no view could look cheaper than the base) and move between
runs, while the sizes are exact, so the model and every selection under
it are deterministic.  ``cost`` never reads the profile entry of the view
it prices.
"""

from __future__ import annotations

import numpy as np

from ..errors import CostModelError
from ..cube.lattice import ViewLattice
from ..cube.view import ViewDefinition
from ..rdf.stats import GraphStatistics
from .base import CostModel, register_model
from .estimator import estimate_binding_count, estimate_group_count, \
    pattern_frequencies
from .profiler import LatticeProfile

__all__ = ["LearnedCost", "encode_view", "ridge_fit", "FEATURE_NAMES"]

_AGG_ORDER = ("SUM", "COUNT", "AVG", "MIN", "MAX")

#: The ridge penalty on the standardized weights (the intercept is free).
RIDGE = 1e-3

FEATURE_NAMES = (
    "n_dims", "dim_fraction",
    "agg_sum", "agg_count", "agg_avg", "agg_min", "agg_max",
    "n_patterns", "log_est_groups", "log_est_bindings",
    "mean_log_pred_freq", "min_log_pred_freq", "max_log_pred_freq",
    "log_graph_triples",
)


def encode_view(view: ViewDefinition, stats: GraphStatistics) -> np.ndarray:
    """The feature vector for one view (see :data:`FEATURE_NAMES`): graph
    statistics only, never the view's actual result size or footprint."""
    facet = view.facet
    frequencies = pattern_frequencies(facet.pattern, stats)
    logs = [np.log1p(f) for f in frequencies] or [0.0]
    agg_onehot = [1.0 if facet.aggregate.name == name else 0.0
                  for name in _AGG_ORDER]
    n_dims = len(view.variables)
    return np.array([
        n_dims, n_dims / max(facet.dimension_count, 1), *agg_onehot,
        len(frequencies), np.log1p(estimate_group_count(view, stats)),
        np.log1p(estimate_binding_count(facet, stats)),
        np.mean(logs), np.min(logs), np.max(logs),
        np.log1p(stats.triple_count)], dtype=np.float64)


def ridge_fit(features: np.ndarray, targets: np.ndarray
              ) -> tuple[np.ndarray, float]:
    """``(coef, intercept)`` with ``features @ coef + intercept ≈ targets``
    (a constant feature standardizes to zero and gets weight zero)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.shape != (len(x),):
        raise CostModelError("features/targets shape mismatch")
    if len(x) < 2:
        raise CostModelError("need at least 2 training examples")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-9] = 1.0
    z = np.column_stack([(x - mean) / scale, np.ones(len(x))])
    penalty = np.full(z.shape[1], RIDGE)
    penalty[-1] = 0.0
    w = np.linalg.solve(z.T @ z + np.diag(penalty), z.T @ y)
    coef = w[:-1] / scale
    return coef, float(w[-1] - mean @ coef)


@register_model
class LearnedCost(CostModel):
    """Predicted triples of the view's encoding.  :meth:`prepare` refits
    on every profile it is handed, unless :meth:`fit_profiles` trained the
    model explicitly (the transfer setting), which keeps that fit."""

    name = "learned"

    def __init__(self) -> None:
        self._fit: tuple[np.ndarray, float] | None = None
        self._transfer = False

    def fit_profiles(self, profiles: list[LatticeProfile]) -> None:
        """Train on every profiled view of the given lattice profiles."""
        self._train(profiles)
        self._transfer = True

    def _train(self, profiles: list[LatticeProfile]) -> None:
        rows, targets = [], []
        for profile in profiles:
            lattice = ViewLattice(profile.facet)
            for mask, entry in profile.views.items():
                rows.append(encode_view(lattice[mask], profile.graph_stats))
                targets.append(np.log1p(entry.triples))
        if len(rows) < 2:
            raise CostModelError("not enough profiled views to train on")
        self._fit = ridge_fit(np.vstack(rows), np.asarray(targets))

    def prepare(self, profile: LatticeProfile) -> None:
        if not self._transfer:
            self._train([profile])

    def cost(self, view: ViewDefinition, profile: LatticeProfile) -> float:
        if self._fit is None:
            raise CostModelError(
                "learned model is not fitted (call fit_profiles or prepare)")
        coef, intercept = self._fit
        predicted = encode_view(view, profile.graph_stats) @ coef + intercept
        # clamped: an extrapolated log-size stays finite and non-negative
        return float(np.expm1(np.clip(predicted, 0.0, 50.0)))

    def base_cost(self, profile: LatticeProfile) -> float:
        """The base graph's triples: the unit the views are priced in."""
        return float(profile.base.triples)
