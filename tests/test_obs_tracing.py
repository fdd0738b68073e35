"""The span tracer: nesting, tags, error capture, ring buffer."""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrash
from repro.obs.tracing import SpanTracer, _NOOP_SPAN


@pytest.fixture
def tracer() -> SpanTracer:
    return SpanTracer(enabled=True)


class TestSpanBasics:
    def test_nesting_builds_a_tree(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        assert [c.name for c in outer.children] == ["inner", "sibling"]
        assert [c.name for c in inner.children] == ["leaf"]
        # only the root lands in the finished ring
        assert [s.name for s in tracer.recent()] == ["outer"]

    def test_tags_and_annotate(self, tracer):
        with tracer.span("op", kind="probe") as sp:
            sp.set_tag("rows", 7)
            tracer.annotate(route="view")
        assert sp.tags == {"kind": "probe", "rows": 7, "route": "view"}

    def test_current_tracks_the_stack(self, tracer):
        assert tracer.current() is None
        with tracer.span("a") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                assert tracer.current() is b
            assert tracer.current() is a
        assert tracer.current() is None

    def test_timing_is_recorded(self, tracer):
        with tracer.span("timed") as sp:
            pass
        assert sp.seconds >= 0.0
        assert sp.end >= sp.start

    def test_find_walks_the_tree(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("mid"):
                with tracer.span("deep"):
                    pass
        assert root.find("deep").name == "deep"
        assert root.find("missing") is None

    def test_render_and_to_dict(self, tracer):
        with tracer.span("parent", n=1) as sp:
            with tracer.span("child"):
                pass
        text = sp.render()
        assert "parent" in text and "child" in text and "n=1" in text
        payload = sp.to_dict()
        assert payload["name"] == "parent"
        assert payload["children"][0]["name"] == "child"


class TestErrorPaths:
    def test_exception_closes_span_and_records_error(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("will-fail") as sp:
                raise ValueError("boom")
        assert sp.status == "error"
        assert "ValueError: boom" in sp.error
        assert sp.end >= sp.start
        # the failed root still lands in the ring, and the stack unwound
        assert tracer.recent()[0] is sp
        assert tracer.current() is None

    def test_simulated_crash_is_recorded_and_propagates(self, tracer):
        # SimulatedCrash is a BaseException: the with-statement must
        # still close the span and re-raise.
        with pytest.raises(SimulatedCrash):
            with tracer.span("crashing") as sp:
                raise SimulatedCrash("persistence.save")
        assert sp.status == "error"
        assert "SimulatedCrash" in sp.error
        assert tracer.current() is None

    def test_nested_crash_unwinds_every_level(self, tracer):
        with pytest.raises(SimulatedCrash):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise SimulatedCrash("x")
        assert inner.status == "error"
        assert outer.status == "error"
        assert tracer.current() is None


class TestDisabledAndRing:
    def test_disabled_returns_shared_noop(self):
        tracer = SpanTracer()          # disabled by default
        sp = tracer.span("ignored", tag=1)
        assert sp is _NOOP_SPAN
        with sp:
            sp.set_tag("a", 1)
            sp.set_tags(b=2)
        assert tracer.recent() == []

    def test_ring_buffer_keeps_newest(self):
        tracer = SpanTracer(enabled=True, keep=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.recent()] == ["s4", "s3", "s2"]

    def test_reset_clears_finished(self, tracer):
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.recent() == []


class TestCapture:
    def test_off_it_is_live_for_the_block_and_leaves_nothing(self):
        import json
        tracer = SpanTracer()
        subject = object()
        with pytest.raises(KeyError):
            with tracer.capture() as roots:
                assert tracer.enabled
                with tracer.span("work", subject, n=1) as work:
                    work.mark("fact", subject).set_tags(rows=3)
                with tracer.span("more"):
                    raise KeyError("boom")
        assert [s.name for s in roots] == ["work", "more"]
        assert roots[1].status == "error"
        assert not tracer.enabled and tracer.current() is None
        assert tracer.recent() == []
        fact, = work.children
        assert fact.ref is work.ref is subject and fact.seconds == 0.0
        assert [s.name for s in work.walk()] == ["work", "fact"]
        # what a span observed rides on the span, not in its tags
        assert json.loads(json.dumps(work.to_dict()))["tags"] == {"n": 1}

    def test_on_the_roots_reach_the_ring_as_they_would_have(self, tracer):
        with tracer.span("before"):
            pass
        with tracer.capture() as roots:
            with tracer.span("inside"):
                pass
        assert [s.name for s in roots] == ["inside"]
        assert [s.name for s in tracer.recent()] == ["inside", "before"]
        assert tracer.enabled and tracer.current() is None
