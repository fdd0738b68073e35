"""Context-var span tracer: nested, tagged wall-clock spans.

The structural half of the observability layer.  A span covers one unit
of work (an executor run, a maintenance window, a persistence save) and
carries free-form tags — rows in/out, delta sizes, rollback reasons.
Spans nest through a :mod:`contextvars` variable, so concurrent or
re-entrant work composes correctly without any explicit threading of a
trace object.

Disabled (the default), ``span()`` returns one shared no-op object after
a single attribute check, and ``annotate()`` returns immediately — hot
paths pay one plain-attribute read.  Enabled, spans are context
managers whose ``__exit__`` *always* closes the span and records any
in-flight exception — including :class:`BaseException` subclasses such
as the fault-injection framework's ``SimulatedCrash`` — before
re-raising, so crashed windows still leave a complete, error-annotated
trace.

Finished root spans accumulate in a bounded ring buffer on the tracer
(``finished``); the hub snapshots them alongside the metrics registry.

It is also the executor's only clock: while live, every dispatched
algebra operator is a span under its ``executor.run`` (``ref`` the
operator, rows in / out as tags).  :meth:`SpanTracer.capture` makes it
live for one ``with`` body, switch on or off, and hands back that body's
root spans — which is all EXPLAIN is (:mod:`repro.obs.explain`).

Stdlib-only by design: imported from the bottom layers of the package.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = ["Span", "SpanTracer", "tracer", "span", "annotate", "current"]


class Span:
    """One timed, tagged unit of work; context manager when live."""

    __slots__ = ("name", "tags", "ref", "children", "start", "end",
                 "status", "error", "_tracer", "_token", "_root")

    def __init__(self, tracer: "SpanTracer", name: str, tags: dict,
                 ref: object = None) -> None:
        self.name = name
        self.tags = tags
        self.ref = ref      #: what it observed (an operator); never serialized
        self.children: list[Span] = []
        self.start = 0.0
        self.end = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self._tracer = tracer
        self._token = None
        # Whether it was entered outside any span.  A child keeps no
        # reference to its parent, so a finished tree holds no cycle and
        # reference counting frees it.
        self._root = True

    @property
    def seconds(self) -> float:
        end = self.end if self.end else time.perf_counter()
        return end - self.start

    def set_tag(self, key: str, value) -> "Span":
        self.tags[key] = value
        return self

    def set_tags(self, **tags) -> "Span":
        self.tags.update(tags)
        return self

    def mark(self, name: str, ref: object = None) -> "Span":
        """An untimed child: a fact about work this span's time covers."""
        child = Span(self._tracer, name, {}, ref)
        child.start = child.end = self.start
        self.children.append(child)
        return child

    def __enter__(self) -> "Span":
        tracer = self._tracer
        parent = tracer._current.get()
        self._root = parent is None
        if parent is not None:
            parent.children.append(self)
        self._token = tracer._current.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # BaseException included: a SimulatedCrash unwinding through a
        # with-block still reaches here, so the span closes and records
        # the crash before the exception continues to propagate.
        self.end = time.perf_counter()
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        tracer = self._tracer
        if self._token is not None:
            tracer._current.reset(self._token)
            self._token = None
        if self._root:
            tracer.finished.append(self)
        return False

    def walk(self) -> Iterator["Span"]:
        """Self and every descendant, depth-first in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant (or self) by name."""
        return next((s for s in self.walk() if s.name == name), None)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": round(self.end - self.start, 9) if self.end else None,
            "status": self.status,
            "error": self.error,
            "tags": dict(self.tags),
            "children": [c.to_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> str:
        ms = (self.end - self.start) * 1e3 if self.end else 0.0
        tags = " ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        flag = "" if self.status == "ok" else f" !{self.error}"
        line = f"{'  ' * indent}{self.name}  {ms:.3f} ms" \
               + (f"  [{tags}]" if tags else "") + flag
        return "\n".join([line] + [c.render(indent + 1)
                                   for c in self.children])

    def __repr__(self) -> str:
        return f"<Span {self.name} status={self.status}>"


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_tag(self, key: str, value) -> "_NoopSpan":
        return self

    def set_tags(self, **tags) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class SpanTracer:
    """Creates and collects spans; off by default.

    ``enabled`` is a plain attribute (mutate only via
    :meth:`enable`/:meth:`disable`) so the disabled check on hot paths
    is one attribute read.
    """

    def __init__(self, enabled: bool = False, keep: int = 256) -> None:
        self.enabled = enabled
        self.finished: deque[Span] = deque(maxlen=keep)
        self._current: ContextVar[Optional[Span]] = ContextVar(
            "repro_obs_current_span", default=None)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.finished.clear()

    def span(self, name: str, ref: object = None, **tags):
        """A context-manager span, or the shared no-op when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, tags, ref)

    def current(self) -> Optional[Span]:
        if not self.enabled:
            return None
        return self._current.get()

    def annotate(self, **tags) -> None:
        """Merge tags into the innermost live span, if any."""
        if not self.enabled:
            return
        span = self._current.get()
        if span is not None:
            span.tags.update(tags)

    @contextmanager
    def capture(self) -> Iterator[list[Span]]:
        """Trace the body of a ``with`` whatever the switch says, yielding
        the list its root spans collect in (read it after the block).  The
        switch is restored on the way out, and the ring buffer gets the
        roots only if it would have got them uncaptured: tracing was on."""
        scope = Span(self, "capture", {})   # never entered: a parent only
        was, self.enabled = self.enabled, True
        token = self._current.set(scope)
        try:
            yield scope.children
        finally:
            self._current.reset(token)
            self.enabled = was
            if was:
                self.finished.extend(scope.children)

    def recent(self, limit: int = 16) -> list[Span]:
        """The most recent finished root spans, newest first."""
        spans = list(self.finished)
        spans.reverse()
        return spans[:limit]


#: The process-global tracer, shared with the metrics registry's hub.
_TRACER = SpanTracer()


def tracer() -> SpanTracer:
    return _TRACER


def span(name: str, **tags):
    """``tracer().span(...)`` on the process-global tracer."""
    return _TRACER.span(name, **tags)


def annotate(**tags) -> None:
    _TRACER.annotate(**tags)


def current() -> Optional[Span]:
    return _TRACER.current()
