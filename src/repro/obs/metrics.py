"""Process-global metrics registry: counters, gauges, histograms.

The registry is the quantitative half of the observability layer (the
span tracer in :mod:`repro.obs.tracing` is the structural half).
Subsystems create named instruments once at import time and feed them
from their hot seams — BGP plan-cache hits, changelog window sizes,
patch-vs-rebuild decisions, per-query latency.

Collection is **off by default** and the disabled path is engineered to
be near-free, following the failpoints idiom: every instrument mirrors
the registry's enabled flag into a plain ``_on`` attribute, so a
disabled ``inc()``/``observe()`` is one attribute read and a branch.
Hot loops can go one step cheaper and guard on ``registry().enabled``
(a plain bool attribute, mutated only through ``enable()``/
``disable()``) before even making the call.

Histograms use fixed upper-bound buckets (Prometheus-style cumulative
``le`` semantics) and estimate percentiles by linear interpolation
within the bucket that crosses the requested rank — exact min/max/sum/
count are tracked alongside, so estimates are clamped to the observed
range.

Everything here is stdlib-only on purpose: the sparql/rdf/resilience
layers import this module, so it must sit at the bottom of the import
graph.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Upper bounds (seconds) for latency histograms — sub-100µs through 10s.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Upper bounds for size/count histograms (delta sizes, fan-out, rows).
DEFAULT_SIZE_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r} (want "
                         "[a-zA-Z_][a-zA-Z0-9_]*)")
    return name


def _format_number(value) -> str:
    """Prometheus-friendly number rendering (ints without trailing .0)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _label_key(values: Sequence[str]) -> tuple:
    return tuple(str(v) for v in values)


class _Instrument:
    """Shared plumbing: a name, label schema, and per-label series."""

    __slots__ = ("name", "help", "label_names", "_series", "_on")

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str]) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.label_names = tuple(label_names)
        for label in self.label_names:
            _check_name(label)
        self._series: dict = {}
        self._on = False

    def _check_labels(self, labels: Sequence[str]) -> tuple:
        key = _label_key(labels)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label value(s) {self.label_names!r}, got {len(key)}")
        return key

    def clear(self) -> None:
        self._series.clear()

    def labeled_series(self) -> list:
        """``(label_values, state)`` pairs in deterministic order."""
        return sorted(self._series.items())


class Counter(_Instrument):
    """A monotonically increasing count (events, hits, decisions)."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1, labels: Sequence[str] = ()) -> None:
        if not self._on:
            return
        key = self._check_labels(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, labels: Sequence[str] = ()):
        return self._series.get(_label_key(labels), 0)

    def total(self):
        """Sum across every label combination."""
        return sum(self._series.values())


class Gauge(_Instrument):
    """A point-in-time value (sizes, depths, last-seen quantities)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value, labels: Sequence[str] = ()) -> None:
        if not self._on:
            return
        self._series[self._check_labels(labels)] = value

    def add(self, amount, labels: Sequence[str] = ()) -> None:
        if not self._on:
            return
        key = self._check_labels(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, labels: Sequence[str] = ()):
        return self._series.get(_label_key(labels), 0)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Instrument):
    """Fixed-bucket distribution with interpolated percentile estimates."""

    __slots__ = ("buckets",)
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str],
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help_text, label_names)
        bounds = tuple(sorted(DEFAULT_LATENCY_BUCKETS if buckets is None
                              else buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value, labels: Sequence[str] = ()) -> None:
        if not self._on:
            return
        key = self._check_labels(labels)
        series = self._series.get(key)
        if series is None:
            # one extra slot for the implicit +Inf bucket
            self._series[key] = series = _HistogramSeries(
                len(self.buckets) + 1)
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value

    def count(self, labels: Sequence[str] = ()) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def total_count(self) -> int:
        return sum(s.count for s in self._series.values())

    def percentile(self, fraction: float,
                   labels: Sequence[str] = ()) -> float:
        """Estimate the ``fraction`` quantile (0..1) for one series.

        Walks the cumulative bucket counts to the bucket containing the
        target rank, then interpolates linearly between that bucket's
        bounds; the estimate is clamped to the exact observed min/max.
        Returns ``nan`` when the series is empty.
        """
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            return math.nan
        return self._walk(fraction, series.counts, series.count,
                          series.min, series.max)

    def merged_percentile(self, fraction: float) -> float:
        """Percentile estimate across all label combinations merged."""
        total = self.total_count()
        if total == 0:
            return math.nan
        series = list(self._series.values())
        merged = [sum(counts) for counts in zip(*(s.counts for s in series))]
        return self._walk(fraction, merged, total, min(s.min for s in series),
                          max(s.max for s in series))

    def _walk(self, fraction: float, counts: Sequence[int], count: int,
              lo: float, hi: float) -> float:
        """The ``fraction`` quantile of ``count`` observations bucketed as
        ``counts``, whose exact extremes are ``lo`` and ``hi``."""
        rank = fraction * count
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[i - 1] if i > 0 else min(
                    lo, self.buckets[0])
                upper = self.buckets[i] if i < len(self.buckets) else hi
                if upper < lower:
                    upper = lower
                within = (rank - cumulative) / bucket_count
                return min(max(lower + (upper - lower) * within, lo), hi)
            cumulative += bucket_count
        return hi


class MetricsRegistry:
    """Get-or-create instrument registry with a shared enabled switch.

    ``enabled`` is a *plain attribute* so hot paths can read it without
    a property call; treat it as read-only and flip it only through
    :meth:`enable`/:meth:`disable` (which also sync every instrument's
    fast-path flag).
    """

    def __init__(self, enabled: bool = False) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self.enabled = enabled

    # -- instrument creation -------------------------------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str], **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names!r}")
            return existing
        instrument = cls(name, help_text, label_names, **kwargs)
        instrument._on = self.enabled
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labels,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __iter__(self) -> Iterable[_Instrument]:
        return iter(sorted(self._instruments.values(),
                           key=lambda i: i.name))

    # -- switches ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True
        for instrument in self._instruments.values():
            instrument._on = True

    def disable(self) -> None:
        self.enabled = False
        for instrument in self._instruments.values():
            instrument._on = False

    def reset(self) -> None:
        """Drop all recorded series (instruments themselves persist)."""
        for instrument in self._instruments.values():
            instrument.clear()

    # -- convenience reads ---------------------------------------------------

    def value(self, name: str, labels: Sequence[str] = ()):
        """Counter/gauge value by name (0 when absent/never recorded)."""
        instrument = self._instruments.get(name)
        if instrument is None or isinstance(instrument, Histogram):
            return 0
        return instrument.value(labels)

    def counter_total(self, name: str):
        instrument = self._instruments.get(name)
        if not isinstance(instrument, Counter):
            return 0
        return instrument.total()

    # -- exports -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict copy of every recorded series (deep, isolated)."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for instrument in self:
            series_out: dict = {}
            if isinstance(instrument, Histogram):
                for key, series in instrument.labeled_series():
                    series_out[",".join(key)] = {
                        "count": series.count,
                        "sum": series.sum,
                        "min": None if series.count == 0 else series.min,
                        "max": None if series.count == 0 else series.max,
                        "p50": instrument.percentile(0.50, key),
                        "p95": instrument.percentile(0.95, key),
                        "p99": instrument.percentile(0.99, key),
                        "buckets": {
                            _format_number(bound): count
                            for bound, count in zip(
                                instrument.buckets + (math.inf,),
                                series.counts)
                        },
                    }
                if instrument._series:
                    histograms[instrument.name] = {
                        "labels": list(instrument.label_names),
                        "series": series_out,
                    }
                continue
            for key, value in instrument.labeled_series():
                series_out[",".join(key)] = value
            if series_out:
                target = counters if isinstance(instrument, Counter) \
                    else gauges
                target[instrument.name] = {
                    "labels": list(instrument.label_names),
                    "series": series_out,
                }
        return {"enabled": self.enabled, "counters": counters,
                "gauges": gauges, "histograms": histograms}

    def to_json(self, indent: Optional[int] = 2) -> str:
        def _default(value):
            if isinstance(value, float) and not math.isfinite(value):
                return repr(value)
            raise TypeError(f"not JSON-serializable: {value!r}")

        snap = self.snapshot()
        return json.dumps(_jsonable(snap), indent=indent, sort_keys=True,
                          default=_default)

    def to_prometheus(self) -> str:
        """Text exposition format (0.0.4): HELP/TYPE plus one line per
        series; histograms expand to ``_bucket``/``_sum``/``_count``."""
        lines: list[str] = []
        for instrument in self:
            if not instrument._series:
                continue
            name = instrument.name
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for key, series in instrument.labeled_series():
                    base = _label_pairs(instrument.label_names, key)
                    cumulative = 0
                    for bound, count in zip(
                            instrument.buckets + (math.inf,),
                            series.counts):
                        cumulative += count
                        le = _format_number(
                            float(bound) if not math.isinf(bound)
                            else math.inf)
                        pairs = base + [f'le="{le}"']
                        lines.append(
                            f"{name}_bucket{{{','.join(pairs)}}} "
                            f"{cumulative}")
                    suffix = f"{{{','.join(base)}}}" if base else ""
                    lines.append(f"{name}_sum{suffix} "
                                 f"{_format_number(series.sum)}")
                    lines.append(f"{name}_count{suffix} {series.count}")
                continue
            for key, value in instrument.labeled_series():
                pairs = _label_pairs(instrument.label_names, key)
                suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                lines.append(f"{name}{suffix} {_format_number(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _label_pairs(names: Sequence[str], values: Sequence[str]) -> list[str]:
    escaped = (str(v).replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n") for v in values)
    return [f'{n}="{v}"' for n, v in zip(names, escaped)]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


#: The process-global registry every subsystem binds its instruments to.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry (disabled until someone enables it)."""
    return _REGISTRY
