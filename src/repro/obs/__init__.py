"""Unified observability: spans, metrics, EXPLAIN ANALYZE, logging.

Three surfaces over one switchboard:

* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and fixed-bucket histograms fed by the engine/maintenance hot
  seams; snapshotable as a dict, exportable as JSON or Prometheus text.
* :mod:`repro.obs.tracing` — a context-var span tracer producing
  nested, tagged wall-clock traces of executor runs, maintenance
  windows, rollup stages, persistence, and audits.
* :mod:`repro.obs.explain` — EXPLAIN ANALYZE over the SPARQL algebra:
  per-operator wall time and row counts, plus the online module's
  routing decision (which view answered and why).

All three converge on the :class:`ObservabilityHub` (``obs.hub()``,
also reachable as ``Sofos.obs``), which enables/disables collection as
a unit and emits combined snapshots for the console panel and
:meth:`ObservabilityHub.dump`.

Everything is **off by default**; the disabled overhead on hot paths is
one attribute read (see the module docstrings for the mechanics).

The module also carries the structured-logging backbone: every
subsystem logs under the ``"repro"`` namespace, which gets a
``NullHandler`` at import (library etiquette — silent unless the host
opts in) and a console handler via :func:`configure_logging`.

``explain`` is exported lazily (module ``__getattr__``) because it
imports the sparql layer, which itself imports :mod:`repro.obs.metrics`
— the eager half of this package stays stdlib-only.
"""

from __future__ import annotations

import json as _json
import logging
import sys
from typing import Optional, TextIO

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      DEFAULT_LATENCY_BUCKETS, DEFAULT_SIZE_BUCKETS,
                      registry)
from .tracing import Span, SpanTracer, annotate, current, span, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "registry",
    "Span",
    "SpanTracer",
    "annotate",
    "current",
    "span",
    "tracer",
    "ObservabilityHub",
    "hub",
    "ROOT_LOGGER_NAME",
    "configure_logging",
    "get_logger",
    # lazily resolved from .explain (see __getattr__):
    "ExplainNode",
    "QueryExplain",
    "RoutedExplain",
    "build_query_explain",
]

# -- logging backbone --------------------------------------------------------

ROOT_LOGGER_NAME = "repro"

#: Library etiquette: no output unless the host application configures
#: a handler (or calls configure_logging below).
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

_DEFAULT_HANDLER: Optional[logging.Handler] = None


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (``get_logger("views")``
    → ``repro.views``); the bare root logger when ``name`` is empty."""
    if not name or name == ROOT_LOGGER_NAME:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(level: int = logging.INFO,
                      stream: Optional[TextIO] = None,
                      fmt: str = "%(levelname)-8s %(name)s  %(message)s"
                      ) -> logging.Logger:
    """Install (or replace) the default console handler for ``repro.*``.

    Idempotent: calling again swaps the previous default handler rather
    than stacking duplicates.  ``stream`` defaults to stderr; demos that
    want their narration on stdout pass ``stream=sys.stdout``.
    """
    global _DEFAULT_HANDLER
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if _DEFAULT_HANDLER is not None:
        root.removeHandler(_DEFAULT_HANDLER)
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    root.addHandler(handler)
    root.setLevel(level)
    _DEFAULT_HANDLER = handler
    return root


# -- the hub -----------------------------------------------------------------

class ObservabilityHub:
    """One switch for all collection surfaces, one combined snapshot."""

    def __init__(self, metrics_registry: Optional[MetricsRegistry] = None,
                 span_tracer: Optional[SpanTracer] = None) -> None:
        self.metrics = metrics_registry if metrics_registry is not None \
            else registry()
        self.tracer = span_tracer if span_tracer is not None else tracer()

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled

    def enable(self, *, metrics: bool = True, tracing: bool = True) -> None:
        if metrics:
            self.metrics.enable()
        if tracing:
            self.tracer.enable()

    def disable(self) -> None:
        self.metrics.disable()
        self.tracer.disable()

    def reset(self) -> None:
        """Drop recorded series and finished spans (switches unchanged)."""
        self.metrics.reset()
        self.tracer.reset()

    def snapshot(self, *, span_limit: int = 16) -> dict:
        return {
            "enabled": {"metrics": self.metrics.enabled,
                        "tracing": self.tracer.enabled},
            "metrics": self.metrics.snapshot(),
            "spans": [s.to_dict()
                      for s in self.tracer.recent(span_limit)],
        }

    def to_json(self, indent: Optional[int] = 2, *,
                span_limit: int = 16) -> str:
        return _json.dumps(self.snapshot(span_limit=span_limit),
                           indent=indent, sort_keys=True, default=str)

    def to_prometheus(self) -> str:
        return self.metrics.to_prometheus()

    def dump(self, path: str, *, span_limit: int = 64) -> str:
        """Write the combined snapshot as JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(span_limit=span_limit))
            handle.write("\n")
        return path


_HUB = ObservabilityHub()


def hub() -> ObservabilityHub:
    """The process-global hub over the global registry and tracer."""
    return _HUB


# -- lazy explain surface ----------------------------------------------------

_EXPLAIN_NAMES = ("ExplainNode", "QueryExplain", "RoutedExplain",
                  "build_query_explain")


def __getattr__(name: str):
    if name in _EXPLAIN_NAMES:
        from . import explain
        return getattr(explain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
