"""Tests for graph change capture (delta log) and version-cache hygiene."""

import pytest

from repro.rdf import Graph, Namespace, Triple, typed_literal

EX = Namespace("http://example.org/")


def t(i: int, j: int = 0) -> Triple:
    return Triple(EX[f"s{i}"], EX[f"p{j}"], EX[f"o{i}"])


class TestChangeLogBasics:
    def test_insert_and_delete_recorded(self):
        g = Graph()
        log = g.subscribe()
        g.add(t(1))
        g.add(t(2))
        g.discard(t(1))
        delta = log.drain()
        ids = g._encode_pattern(EX.s2, EX.p0, EX.o2)
        assert delta.inserted == (ids,)
        assert delta.deleted == ()
        assert not delta.truncated

    def test_net_semantics_cancel_out(self):
        g = Graph()
        g.add(t(1))
        log = g.subscribe()
        g.discard(t(1))
        g.add(t(1))          # delete + re-insert nets to nothing
        g.add(t(2))
        g.discard(t(2))      # insert + delete nets to nothing
        delta = log.drain()
        assert delta.inserted == () and delta.deleted == ()
        assert delta.empty

    def test_drain_window_semantics(self):
        g = Graph()
        log = g.subscribe()
        v0 = g.version
        g.add(t(1))
        first = log.drain()
        assert (first.from_version, first.to_version) == (v0, g.version)
        assert first.size == 1
        g.add(t(2))
        second = log.drain()
        assert second.from_version == first.to_version
        assert second.size == 1
        assert log.drain().empty  # nothing new

    def test_duplicate_insert_not_recorded(self):
        g = Graph()
        g.add(t(1))
        log = g.subscribe()
        assert not g.add(t(1))
        assert not g.discard(t(9))
        assert log.drain().empty

    def test_bulk_paths_single_version_bump(self):
        g = Graph()
        log = g.subscribe()
        v0 = g.version
        assert g.update([t(1), t(2), t(3)]) == 3
        assert g.version == v0 + 1
        assert g.remove([t(1), t(2), t(9)]) == 2
        assert g.version == v0 + 2
        delta = log.drain()
        assert len(delta.inserted) == 1 and len(delta.deleted) == 0

    def test_clear_truncates(self):
        g = Graph()
        g.add(t(1))
        log = g.subscribe()
        g.add(t(2))
        g.clear()
        delta = log.drain()
        assert delta.truncated
        assert delta.inserted == () and delta.deleted == ()
        # after draining, the log records again
        g.add(t(3))
        assert not log.drain().truncated

    def test_overflow_truncates(self):
        g = Graph()
        log = g.subscribe(limit=2)
        g.update([t(1), t(2), t(3)])
        assert log.truncated
        assert log.drain().truncated

    def test_two_subscribers_independent(self):
        g = Graph()
        log_a = g.subscribe()
        g.add(t(1))
        log_b = g.subscribe()
        g.add(t(2))
        assert log_a.drain().size == 2
        assert log_b.drain().size == 1

    def test_close_detaches(self):
        g = Graph()
        log = g.subscribe()
        log.close()
        g.add(t(1))
        assert log.drain().empty
        assert not g.unsubscribe(log)  # already detached

    def test_abandoned_log_pruned_after_gc(self):
        """Subscriptions are weak: a log dropped without close() stops
        costing work (and buffering memory) once collected."""
        import gc
        g = Graph()
        log = g.subscribe()
        keeper = g.subscribe()
        del log
        gc.collect()
        g.add(t(1))              # touching the graph prunes dead refs
        assert len(g._logs) == 1
        assert keeper.drain().size == 1


class TestChangeLogAndCopy:
    def test_copy_does_not_share_subscriptions(self):
        g = Graph()
        g.add(t(1))
        log = g.subscribe()
        clone = g.copy()
        clone.add(t(2))          # must not leak into the original's log
        assert log.drain().empty
        g.add(t(3))
        assert log.drain().size == 1

    def test_copy_after_logged_mutations_is_complete(self):
        g = Graph()
        log = g.subscribe()
        g.update([t(1), t(2)])
        g.discard(t(1))
        clone = g.copy()
        assert set(clone) == set(g)
        # log still reflects the original's history only
        delta = log.drain()
        assert len(delta.inserted) == 1

    def test_clone_can_subscribe_independently(self):
        g = Graph()
        g.add(t(1))
        clone = g.copy()
        clone_log = clone.subscribe()
        g.add(t(2))
        assert clone_log.drain().empty


class TestVersionCacheInvalidation:
    def test_discard_invalidates_node_ids(self):
        g = Graph()
        g.add(t(1))
        g.add(t(2))
        before = set(g.node_ids())
        assert g.discard(t(2))
        after = set(g.node_ids())
        assert after < before

    def test_discard_invalidates_predicate_profile(self):
        g = Graph()
        g.add(t(1))
        g.add(t(2, j=1))
        p0, p1 = (g.dictionary.lookup(EX[f"p{j}"]) for j in (0, 1))
        assert g.predicate_profile(p0)[0] == g.predicate_profile(p1)[0] == 1
        g.discard(t(2, j=1))
        assert g.predicate_profile(p0)[0] == 1
        assert g.predicate_profile(p1)[0] == 0

    def test_clear_invalidates_memos(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, typed_literal(1)))
        pid = g.dictionary.lookup(EX.p)
        assert g.node_count() == 2
        assert g.predicate_profile(pid)[0] == 1
        g.clear()
        assert g.node_count() == 0
        assert g.node_ids() == set()
        assert g.predicate_profile(pid)[0] == 0

    def test_remove_bulk_invalidates_memos(self):
        g = Graph()
        g.update([t(1), t(2)])
        assert g.node_count() == 4
        g.remove([t(1)])
        assert g.node_count() == 2
        assert g.count(p=EX.p0) == 1
