"""Paper model (5): the learned cost estimate.

Following the paper's description (after Ortiz et al., arXiv:1905.06425),
a view/query is encoded as a fixed-length vector capturing its
relationships, attributes, and aggregate type together with frequency
statistics from the graph, and a small deep regression model maps the
encoding to a predicted running time.  Offline, the model trains on
(encoding, measured runtime) pairs — here the measured evaluation times
the profiler collected for a training sample of views; online, ``cost``
is a single forward pass.

The regressor is a from-scratch NumPy MLP (two hidden layers, ReLU, Adam,
MSE on log-runtime) so the library stays dependency-light and deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import CostModelError
from ..cube.view import ViewDefinition
from ..rdf.stats import GraphStatistics
from .base import CostModel, register_model
from .estimator import estimate_binding_count, estimate_group_count, \
    pattern_frequencies
from .profiler import LatticeProfile

__all__ = ["MLPRegressor", "LearnedCost", "encode_view", "FEATURE_NAMES"]

_AGG_ORDER = ("SUM", "COUNT", "AVG", "MIN", "MAX")

FEATURE_NAMES = (
    "n_dims", "dim_fraction",
    "agg_sum", "agg_count", "agg_avg", "agg_min", "agg_max",
    "n_patterns", "log_est_groups", "log_est_bindings",
    "mean_log_pred_freq", "min_log_pred_freq", "max_log_pred_freq",
    "log_graph_triples",
)


def encode_view(view: ViewDefinition, stats: GraphStatistics) -> np.ndarray:
    """The feature vector for one view (see :data:`FEATURE_NAMES`).

    Only statistics-derived quantities appear — never the view's actual
    result size, which is what the model is trying to predict a proxy for.
    """
    facet = view.facet
    frequencies = pattern_frequencies(facet.pattern, stats)
    logs = [np.log1p(f) for f in frequencies] or [0.0]
    agg_onehot = [1.0 if facet.aggregate.name == name else 0.0
                  for name in _AGG_ORDER]
    return np.array(
        [
            float(len(view.variables)),
            len(view.variables) / max(facet.dimension_count, 1),
            *agg_onehot,
            float(len(frequencies)),
            float(np.log1p(estimate_group_count(view, stats))),
            float(np.log1p(estimate_binding_count(facet, stats))),
            float(np.mean(logs)),
            float(np.min(logs)),
            float(np.max(logs)),
            float(np.log1p(stats.triple_count)),
        ],
        dtype=np.float64,
    )


class MLPRegressor:
    """A small fully-connected regressor trained with Adam on MSE.

    Deterministic given the seed.  Inputs are standardized with statistics
    remembered from ``fit``.
    """

    def __init__(self, n_features: int, hidden: tuple[int, ...] = (32, 16),
                 seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        sizes = (n_features, *hidden, 1)
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))
        self._mean = np.zeros(n_features)
        self._std = np.ones(n_features)

    # -- forward/backward -----------------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [x]
        out = x
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            out = out @ w + b
            if i != last:
                out = np.maximum(out, 0.0)
            activations.append(out)
        return out, activations

    def fit(self, features: np.ndarray, targets: np.ndarray,
            epochs: int = 600, learning_rate: float = 3e-3,
            weight_decay: float = 1e-4) -> float:
        """Full-batch Adam training; returns the final training MSE."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        if x.ndim != 2 or len(x) != len(y):
            raise CostModelError("features/targets shape mismatch")
        if len(x) < 2:
            raise CostModelError("need at least 2 training examples")
        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0)
        self._std[self._std < 1e-9] = 1.0
        xs = (x - self._mean) / self._std

        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        n = len(xs)
        loss = 0.0
        for step in range(1, epochs + 1):
            pred, acts = self._forward(xs)
            err = pred - y
            loss = float(np.mean(err ** 2))
            grad = 2.0 * err / n
            grads_w: list[np.ndarray] = [None] * len(self._weights)  # type: ignore
            grads_b: list[np.ndarray] = [None] * len(self._biases)  # type: ignore
            for i in range(len(self._weights) - 1, -1, -1):
                grads_w[i] = acts[i].T @ grad + weight_decay * self._weights[i]
                grads_b[i] = grad.sum(axis=0)
                if i > 0:
                    grad = grad @ self._weights[i].T
                    grad[acts[i] <= 0.0] = 0.0
            for i in range(len(self._weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                m_hat_w = m_w[i] / (1 - beta1 ** step)
                v_hat_w = v_w[i] / (1 - beta2 ** step)
                m_hat_b = m_b[i] / (1 - beta1 ** step)
                v_hat_b = v_b[i] / (1 - beta2 ** step)
                self._weights[i] -= learning_rate * m_hat_w / (
                    np.sqrt(v_hat_w) + eps)
                self._biases[i] -= learning_rate * m_hat_b / (
                    np.sqrt(v_hat_b) + eps)
        return loss

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        xs = (x - self._mean) / self._std
        out, _ = self._forward(xs)
        return out[:, 0] if not single else out[0, 0]


@register_model
class LearnedCost(CostModel):
    """The learned cost model: predicted runtime in milliseconds.

    Train explicitly with :meth:`fit_profiles` on one or more profiled
    lattices (transfer setting), or let :meth:`prepare` self-train on the
    profile it is asked to price — the paper's "randomly generated queries
    and their running time" offline phase, with the lattice's own views as
    the generated sample.
    """

    name = "learned"

    def __init__(self, seed: int = 0, epochs: int = 600,
                 hidden: tuple[int, ...] = (32, 16)) -> None:
        self._seed = seed
        self._epochs = epochs
        self._hidden = hidden
        self._model: MLPRegressor | None = None
        self.training_loss: float | None = None

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    def fit_examples(self, features: np.ndarray, runtimes_seconds: np.ndarray
                     ) -> float:
        """Train on explicit (feature, runtime) pairs; returns final MSE."""
        targets = np.log1p(np.asarray(runtimes_seconds) * 1000.0)
        self._model = MLPRegressor(features.shape[1], self._hidden, self._seed)
        self.training_loss = self._model.fit(features, targets,
                                             epochs=self._epochs)
        return self.training_loss

    def fit_profiles(self, profiles: list[LatticeProfile],
                     lattices: list | None = None) -> float:
        """Train on every profiled view of the given lattice profiles."""
        from ..cube.lattice import ViewLattice
        rows: list[np.ndarray] = []
        targets: list[float] = []
        for profile in profiles:
            lattice = ViewLattice(profile.facet)
            for view in lattice:
                entry = profile.views.get(view.mask)
                if entry is None:
                    continue
                rows.append(encode_view(view, profile.graph_stats))
                targets.append(entry.eval_seconds)
        if len(rows) < 2:
            raise CostModelError("not enough profiled views to train on")
        return self.fit_examples(np.vstack(rows), np.asarray(targets))

    def prepare(self, profile: LatticeProfile) -> None:
        if not self.is_fitted:
            self.fit_profiles([profile])

    def cost(self, view: ViewDefinition, profile: LatticeProfile) -> float:
        if self._model is None:
            raise CostModelError(
                "learned model is not fitted (call fit_profiles or prepare)")
        features = encode_view(view, profile.graph_stats)
        predicted_log_ms = float(self._model.predict(features))
        return float(np.expm1(np.clip(predicted_log_ms, -20.0, 20.0)))

    def base_cost(self, profile: LatticeProfile) -> float:
        """Measured base-pattern runtime in the model's unit (ms)."""
        return float(profile.base.eval_seconds * 1000.0)
