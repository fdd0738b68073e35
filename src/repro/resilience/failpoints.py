"""Deterministic fault-injection registry.

Upkeep code calls :func:`fail_at` at named points; tests (the seeded
schedule of ``tests/test_fault_schedule.py`` among them) *arm* those
points to inject an error, a simulated crash, or a delay on a chosen
hit.  When nothing is armed the call is a single falsy-dict check, so
production paths pay no measurable cost.

The registry is process-global and deterministic: a failpoint fires on
exactly the hit its arming asked for (``skip`` hits pass through first,
then ``count`` firings, then it disarms itself).  Rollback internals run
under :func:`suppressed` so that undoing a failed window cannot itself
trip the fault that caused it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import FailpointError, ResilienceError, SimulatedCrash
from ..obs import get_logger
from ..obs import metrics as _metrics

__all__ = [
    "KNOWN_FAILPOINTS",
    "MODES",
    "Failpoint",
    "arm",
    "armed",
    "armed_names",
    "disarm",
    "fail_at",
    "is_armed",
    "reset",
    "state",
    "suppressed",
]

#: Supported failure modes.  ``error`` raises :class:`FailpointError`,
#: ``crash`` raises :class:`SimulatedCrash` (a ``BaseException``), and
#: ``delay`` sleeps for ``delay_seconds`` then continues.
MODES = ("error", "crash", "delay")

#: Every failpoint compiled into the library, for discovery by tests.
#: Arming a name outside this list still works (it simply never fires),
#: but schedules drawn from this tuple are guaranteed to hit live code.
KNOWN_FAILPOINTS = (
    "graph.add_ids_bulk",
    "graph.remove_ids_bulk",
    "maintenance.synchronize.window",
    "maintenance.patch.before_apply",
    "maintenance.patch.between_bulk_ops",
    "catalog.materialize_all",
    "catalog.materialize.view",
    "catalog.refresh",
    "catalog.refresh_stale",
    "persistence.save.dataset_tmp",
    "persistence.save.between_files",
    "persistence.save.manifest_tmp",
    "persistence.load",
)


@dataclass
class Failpoint:
    """Arming state of one named failpoint."""

    name: str
    mode: str = "error"
    skip: int = 0                 # hits that pass through before firing
    count: int | None = 1         # firings before auto-disarm (None = forever)
    delay_seconds: float = 0.0    # only used by mode "delay"
    hits: int = 0                 # total fail_at() calls seen while armed
    fired: int = 0                # times the failure actually triggered


_registry: dict[str, Failpoint] = {}
_suppress = 0

_LOG = get_logger("resilience.failpoints")
_FIRED = _metrics.registry().counter(
    "resilience_failpoints_fired_total",
    "injected failures actually triggered, by point and mode",
    labels=("name", "mode"))


def fail_at(name: str) -> None:
    """Trigger the failpoint ``name`` if it is armed.

    The disarmed fast path is one truthiness check on the (empty)
    registry dict; instrumented hot loops stay hot.
    """
    if not _registry or _suppress:
        return
    fp = _registry.get(name)
    if fp is None:
        return
    fp.hits += 1
    if fp.hits <= fp.skip:
        return
    fp.fired += 1
    _FIRED.inc(labels=(name, fp.mode))
    _LOG.debug("failpoint %s fired (mode=%s, firing %d)", name, fp.mode,
               fp.fired)
    if fp.count is not None and fp.fired >= fp.count:
        del _registry[name]
    if fp.mode == "delay":
        time.sleep(fp.delay_seconds)
        return
    if fp.mode == "crash":
        raise SimulatedCrash(name)
    raise FailpointError(name)


def arm(name: str, mode: str = "error", *, skip: int = 0,
        count: int | None = 1, delay_seconds: float = 0.0) -> Failpoint:
    """Arm failpoint ``name``.

    ``skip`` hits pass through untouched, then the point fires ``count``
    times (``None`` = every hit forever) before disarming itself.
    Re-arming an armed name replaces its state.
    """
    if mode not in MODES:
        raise ResilienceError(
            f"unknown failpoint mode {mode!r}; expected one of {MODES}")
    if skip < 0:
        raise ResilienceError(f"failpoint skip must be >= 0, got {skip}")
    if count is not None and count < 1:
        raise ResilienceError(
            f"failpoint count must be >= 1 or None, got {count}")
    if delay_seconds < 0:
        raise ResilienceError(
            f"failpoint delay must be >= 0, got {delay_seconds}")
    fp = Failpoint(name=name, mode=mode, skip=skip, count=count,
                   delay_seconds=delay_seconds)
    _registry[name] = fp
    return fp


def disarm(name: str) -> bool:
    """Disarm ``name``; returns whether it was armed."""
    return _registry.pop(name, None) is not None


def reset() -> None:
    """Disarm every failpoint and clear suppression (test teardown)."""
    global _suppress
    _registry.clear()
    _suppress = 0


def is_armed(name: str) -> bool:
    return name in _registry


def state(name: str) -> Failpoint | None:
    """The live :class:`Failpoint` for ``name``, or None if disarmed."""
    return _registry.get(name)


def armed_names() -> tuple[str, ...]:
    return tuple(sorted(_registry))


@contextmanager
def armed(name: str, mode: str = "error", *, skip: int = 0,
          count: int | None = 1,
          delay_seconds: float = 0.0) -> Iterator[Failpoint]:
    """Arm ``name`` for the duration of a ``with`` block."""
    fp = arm(name, mode, skip=skip, count=count, delay_seconds=delay_seconds)
    try:
        yield fp
    finally:
        if _registry.get(name) is fp:
            del _registry[name]


@contextmanager
def suppressed() -> Iterator[None]:
    """Disable all failpoints inside the block (re-entrant).

    Rollback code runs under this so that restoring a snapshot cannot
    trip the very fault it is recovering from.
    """
    global _suppress
    _suppress += 1
    try:
        yield
    finally:
        _suppress -= 1
