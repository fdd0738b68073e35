"""One allocation burst, run with CPython's cyclic collector paused.

An answer, a maintenance window, a profile, a view build, a load and a
dataset generator each allocate many short-lived containers (binding
rows, group keys, per-group lists, terms) and drop them, or hand them to
the caller, before they return.  None of them forms a reference cycle
that outlives the call: reference counting frees all of it.  The cyclic
collector walks those containers anyway whenever its young generation
fills, and on the base-heavy and write-heavy e2e workloads that walk was
about a seventh (``budget-miss``) to a sixth (``update-churn``) of an
answer's time (Python 3.11; ROADMAP finding G).

A burst is three plain statements in the method that owns it::

    owner = collecting() and pause()
    try:
        ...
    finally:
        if owner:
            resume()

Only an entry that finds the collector on pauses it.  A nested entry,
or one while the host has the collector off, costs one
:func:`collecting` call (``gc.isenabled``, no Python frame) and leaves
``gc`` alone.  The ``finally`` resumes on every exit, a
``BaseException`` such as ``SimulatedCrash`` included.  :func:`resume`
collects the young generation itself when the burst left it over its
threshold, so the burst's survivors are walked on the burst's clock and
not on the next caller's.

The pause is safe only while the bursts stay acyclic;
``tests/test_collector.py`` holds every burst to leaving
``gc.collect() == 0`` behind.  The collector is process-wide and so is
the pause: a burst ending on one thread switches the collector back on
under another thread's burst, which then runs unpaused (correct, only
slower).
"""

from __future__ import annotations

import gc

__all__ = ["collecting", "pause", "resume"]

#: A burst's entry test: is the collector on?  (``gc.isenabled``.)
collecting = gc.isenabled


def pause() -> bool:
    """Turn the collector off for the calling burst.  Call it only when
    :func:`collecting` is true; returns True, the caller's ``owner``."""
    gc.disable()
    return True


def resume() -> None:
    """End the burst that paused: turn the collector back on and walk
    the young generation now if the burst filled it."""
    gc.enable()
    if gc.get_count()[0] > gc.get_threshold()[0]:
        gc.collect(0)
