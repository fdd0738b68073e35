"""Measurement primitives for the online module's performance panels."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..cube.query import AnalyticalQuery

__all__ = ["Timer", "QueryOutcome", "WorkloadRun"]


def _percentile(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    weight = rank - lo
    return ordered[lo] * (1.0 - weight) + ordered[hi] * weight


class Timer:
    """Context manager measuring wall-clock seconds.

    >>> with Timer() as t:
    ...     pass
    >>> t.seconds >= 0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass(frozen=True)
class QueryOutcome:
    """How one analytical query was answered and what it cost.

    ``query`` is None for raw-SPARQL answers that did not match the facet
    (they carry no structured form).  ``rewrite_seconds`` is the time to
    obtain the rewritten plan when a view answers: rewrite + translate
    the first time, a serving-plan memo lookup on a repeat.
    """

    query: Optional[AnalyticalQuery]
    rows: int
    seconds: float
    view_label: Optional[str]    # None = answered from the base graph
    rewrite_seconds: float = 0.0
    #: True when the answer came from a view built against an older base
    #: graph (deferred-maintenance snapshot serving).
    stale: bool = False
    #: True when a view that would normally have answered this query is
    #: quarantined (failed an audit or a rebuild), so the answer fell
    #: back to the base graph or a coarser view.  The answer itself is
    #: still correct — degraded refers to latency, not accuracy.
    degraded: bool = False

    @property
    def used_view(self) -> bool:
        return self.view_label is not None


@dataclass
class WorkloadRun:
    """Aggregated outcome of running a whole workload."""

    outcomes: list[QueryOutcome] = field(default_factory=list)

    def add(self, outcome: QueryOutcome) -> None:
        self.outcomes.append(outcome)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def total_seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def total_rewrite_seconds(self) -> float:
        return sum(o.rewrite_seconds for o in self.outcomes)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / len(self.outcomes) if self.outcomes else 0.0

    @property
    def view_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.used_view)

    @property
    def hit_rate(self) -> float:
        return self.view_hits / len(self.outcomes) if self.outcomes else 0.0

    @property
    def total_rows(self) -> int:
        return sum(o.rows for o in self.outcomes)

    def by_view(self) -> dict[Optional[str], int]:
        """How many queries each view (or the base graph, key None) served."""
        out: dict[Optional[str], int] = {}
        for o in self.outcomes:
            out[o.view_label] = out.get(o.view_label, 0) + 1
        return out

    def characteristics(self) -> list[dict[str, object]]:
        """Per-query characteristics: grouping level, filters, routing.

        The abstract promises "statistics and insights about time, memory
        consumption, and query characteristics"; this is the query-
        characteristics slice, one record per executed query.
        """
        records: list[dict[str, object]] = []
        for outcome in self.outcomes:
            query = outcome.query
            records.append({
                "query": query.describe() if query is not None else "(raw)",
                "group_level": (bin(query.group_mask).count("1")
                                if query is not None else None),
                "filters": len(query.filters) if query is not None else 0,
                "answered_by": outcome.view_label or "(base graph)",
                "rows": outcome.rows,
                "ms": outcome.seconds * 1000.0,
                "stale": outcome.stale,
                "degraded": outcome.degraded,
            })
        return records

    def summary(self) -> dict[str, float]:
        ordered = sorted(o.seconds for o in self.outcomes)
        return {
            "queries": float(len(self.outcomes)),
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "p50_seconds": _percentile(ordered, 0.50),
            "p95_seconds": _percentile(ordered, 0.95),
            "p99_seconds": _percentile(ordered, 0.99),
            "hit_rate": self.hit_rate,
            "rewrite_seconds": self.total_rewrite_seconds,
        }
