"""Sorted-array columnar triple storage with vectorized probe kernels.

:class:`ColumnarStore` keeps each (S,P,O) permutation — SPO, POS, OSP —
as sorted contiguous ``array('q')`` columns.  A permutation stores three
parallel columns: ``ab`` packs the two leading positions into one 64-bit
key (``a << 32 | b``), ``b`` repeats the middle position unpacked (cheap
gather), and ``c`` holds the trailing position.  Rows are sorted by
``(ab, c)``, so every one of the eight triple-pattern access paths is a
binary-search range over one permutation, and bulk probes become
``searchsorted`` over the whole key column at once.

Writes are buffered: inserts/deletes land in pending sets and are folded
into the sorted base by a compaction pass on the next read (or when the
buffer crosses a size threshold).  Buffering is what keeps
``add_ids_bulk``/``remove_ids_bulk`` a single O(n log n) rebuild instead
of per-triple array shifting, while mutation results (dup/absent
detection for changelog capture) stay exact via binary search against
the base plus set lookups against the buffers.

numpy (a declared dependency) re-sorts the permutations on compaction
(``lexsort``) and powers the bulk kernel API (``bulk_probe``/
``bulk_exists``/``bulk_scan``) the batched executor's vectorized probe
paths consume; the single-key access paths stay plain ``bisect`` over the
``array('q')`` columns, which the numpy views share memory with.

Layout cribs from the ordered-key-range design documented for RDF
quad stores (cf. lakesuperior's indexing strategy notes): permutation
keyspaces + range scans, with the dictionary living elsewhere.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from ..errors import StoreCapacityError
from ..obs import metrics as _metrics
from .store import TripleStore

__all__ = ["ColumnarStore"]

_REG = _metrics.registry()
_COMPACTIONS = _REG.counter(
    "store_compactions_total",
    "Compaction passes folding buffered writes into sorted columns",
    labels=("store",))
_COMPACT_PENDING = _REG.histogram(
    "store_compaction_pending_ops",
    "Buffered mutations folded per compaction pass",
    buckets=_metrics.DEFAULT_SIZE_BUCKETS)

_MASK = 0xFFFFFFFF
#: Ids must fit 32 bits signed so (a, b) packs into one int64 key.
ID_LIMIT = 1 << 31

#: Pending-buffer size that triggers an eager compaction mid-load.
DEFAULT_PENDING_LIMIT = 1 << 18

_PERMS = ("spo", "pos", "osp")


class ColumnarStore(TripleStore):
    """Sorted permutation id-arrays with binary-search range probes."""

    kind = "columnar"
    vectorized = True

    __slots__ = (
        "_spo_ab", "_spo_b", "_spo_c",
        "_pos_ab", "_pos_b", "_pos_c",
        "_osp_ab", "_osp_b", "_osp_c",
        "_v_spo", "_v_pos", "_v_osp",
        "_adds", "_dels", "_size", "_pred_counts",
        "_pending_limit",
    )

    def __init__(self, pending_limit: int = DEFAULT_PENDING_LIMIT) -> None:
        self._pending_limit = pending_limit
        self._adds: set = set()
        self._dels: set = set()
        self._size = 0
        self._pred_counts: dict[int, int] = {}
        for perm in _PERMS:
            self._store_perm(perm, array("q"), array("q"), array("q"))

    # -- column plumbing ----------------------------------------------------

    def _store_perm(self, perm: str, ab: array, b: array, c: array) -> None:
        setattr(self, f"_{perm}_ab", ab)
        setattr(self, f"_{perm}_b", b)
        setattr(self, f"_{perm}_c", c)
        setattr(self, f"_v_{perm}", (np.frombuffer(ab, dtype=np.int64),
                                     np.frombuffer(b, dtype=np.int64),
                                     np.frombuffer(c, dtype=np.int64)))

    def _flush(self) -> None:
        if self._adds or self._dels:
            self._compact()

    def compact(self) -> None:
        self._flush()

    # -- base binary search -------------------------------------------------

    def _base_find(self, sid: int, pid: int, oid: int) -> int:
        """Row index of (sid, pid, oid) in the SPO base, or -1."""
        ab = self._spo_ab
        packed = (sid << 32) | pid
        lo = bisect_left(ab, packed)
        hi = bisect_right(ab, packed, lo)
        if lo == hi:
            return -1
        c = self._spo_c
        j = bisect_left(c, oid, lo, hi)
        if j < hi and c[j] == oid:
            return j
        return -1

    def _base_contains(self, sid: int, pid: int, oid: int) -> bool:
        return self._base_find(sid, pid, oid) >= 0

    @staticmethod
    def _ab_range(ab, packed: int) -> tuple:
        lo = bisect_left(ab, packed)
        return lo, bisect_right(ab, packed, lo)

    @staticmethod
    def _a_range(ab, a: int) -> tuple:
        return (bisect_left(ab, a << 32),
                bisect_left(ab, (a + 1) << 32))

    # -- mutation -----------------------------------------------------------

    def insert_many(self, id_triples: Iterable[tuple]) -> list:
        adds, dels = self._adds, self._dels
        pred_counts = self._pred_counts
        added: list = []
        batch = list(id_triples)
        for sid, pid, oid in batch:     # all or nothing: before any write
            if not (0 <= sid < ID_LIMIT and 0 <= pid < ID_LIMIT
                    and 0 <= oid < ID_LIMIT):
                raise StoreCapacityError(
                    f"id out of columnar range: ({sid}, {pid}, {oid})")
        for sid, pid, oid in batch:
            t = (sid, pid, oid)
            if t in dels:
                dels.discard(t)
            elif t in adds or self._base_contains(sid, pid, oid):
                continue
            else:
                adds.add(t)
            pred_counts[pid] = pred_counts.get(pid, 0) + 1
            added.append(t)
        self._size += len(added)
        if len(adds) + len(dels) >= self._pending_limit:
            self._compact()
        return added

    def delete_many(self, id_triples: Iterable[tuple]) -> list:
        adds, dels = self._adds, self._dels
        pred_counts = self._pred_counts
        removed: list = []
        for sid, pid, oid in id_triples:
            t = (sid, pid, oid)
            if t in adds:
                adds.discard(t)
            elif t in dels or not self._base_contains(sid, pid, oid):
                continue
            else:
                dels.add(t)
            remaining = pred_counts[pid] - 1
            if remaining:
                pred_counts[pid] = remaining
            else:
                del pred_counts[pid]
            removed.append(t)
        self._size -= len(removed)
        if len(adds) + len(dels) >= self._pending_limit:
            self._compact()
        return removed

    def clear(self) -> None:
        self._adds.clear()
        self._dels.clear()
        self._size = 0
        self._pred_counts.clear()
        for perm in _PERMS:
            self._store_perm(perm, array("q"), array("q"), array("q"))

    # -- compaction ---------------------------------------------------------

    def _compact(self) -> None:
        pending = len(self._adds) + len(self._dels)
        n = len(self._spo_c)
        if n:
            ab, b, c = self._v_spo
            s = ab >> 32
            p, o = b, c
            if self._dels:
                keep = np.ones(n, dtype=bool)
                for sid, pid, oid in self._dels:
                    keep[self._base_find(sid, pid, oid)] = False
                s, p, o = s[keep], p[keep], o[keep]
        else:
            s = p = o = np.empty(0, dtype=np.int64)
        if self._adds:
            k = len(self._adds)
            extra = np.fromiter(
                (x for t in self._adds for x in t),
                dtype=np.int64, count=3 * k).reshape(k, 3)
            s = np.concatenate([s, extra[:, 0]])
            p = np.concatenate([p, extra[:, 1]])
            o = np.concatenate([o, extra[:, 2]])
        for perm, (a_col, b_col, c_col) in (
                ("spo", (s, p, o)), ("pos", (p, o, s)), ("osp", (o, s, p))):
            order = np.lexsort((c_col, b_col, a_col))
            a_s = a_col[order]
            b_s = b_col[order]
            c_s = c_col[order]
            ab_s = (a_s << 32) | b_s
            ab_q = array("q")
            ab_q.frombytes(ab_s.tobytes())
            b_q = array("q")
            b_q.frombytes(b_s.tobytes())
            c_q = array("q")
            c_q.frombytes(c_s.tobytes())
            self._store_perm(perm, ab_q, b_q, c_q)
        self._adds = set()
        self._dels = set()
        if _REG.enabled:
            _COMPACTIONS.inc(1, (self.kind,))
            _COMPACT_PENDING.observe(pending)

    def _iter_base(self) -> Iterator[tuple]:
        ab, b, c = self._spo_ab, self._spo_b, self._spo_c
        for i in range(len(c)):
            yield (ab[i] >> 32, b[i], c[i])

    # -- cardinalities ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def predicate_counts(self) -> Mapping[int, int]:
        return self._pred_counts

    # -- lookup -------------------------------------------------------------

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        t = (sid, pid, oid)
        if t in self._adds:
            return True
        if t in self._dels:
            return False
        return self._base_contains(sid, pid, oid)

    def iter_ids(self) -> Iterator[tuple]:
        self._flush()
        yield from self._iter_base()

    def snapshot_ids(self) -> list:
        self._flush()
        ab, b, c = self._v_spo
        return list(zip((ab >> 32).tolist(), b.tolist(), c.tolist()))

    def match_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> Iterator[tuple]:
        self._flush()
        if sid is not None:
            if pid is not None:
                if oid is not None:
                    if self._base_contains(sid, pid, oid):
                        yield (sid, pid, oid)
                    return
                lo, hi = self._ab_range(self._spo_ab, (sid << 32) | pid)
                c = self._spo_c
                for i in range(lo, hi):
                    yield (sid, pid, c[i])
                return
            if oid is not None:
                lo, hi = self._ab_range(self._osp_ab, (oid << 32) | sid)
                c = self._osp_c
                for i in range(lo, hi):
                    yield (sid, c[i], oid)
                return
            lo, hi = self._a_range(self._spo_ab, sid)
            b, c = self._spo_b, self._spo_c
            for i in range(lo, hi):
                yield (sid, b[i], c[i])
            return
        if pid is not None:
            if oid is not None:
                lo, hi = self._ab_range(self._pos_ab, (pid << 32) | oid)
                c = self._pos_c
                for i in range(lo, hi):
                    yield (c[i], pid, oid)
                return
            lo, hi = self._a_range(self._pos_ab, pid)
            b, c = self._pos_b, self._pos_c
            for i in range(lo, hi):
                yield (c[i], pid, b[i])
            return
        if oid is not None:
            lo, hi = self._a_range(self._osp_ab, oid)
            b, c = self._osp_b, self._osp_c
            for i in range(lo, hi):
                yield (b[i], c[i], oid)
            return
        yield from self._iter_base()

    def adjacent_ids(self, sid: Optional[int], pid: Optional[int],
                     oid: Optional[int]):
        self._flush()
        if sid is None:
            if pid is None or oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            lo, hi = self._ab_range(self._pos_ab, (pid << 32) | oid)
            return set(self._pos_c[lo:hi])
        if pid is None:
            if oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            lo, hi = self._ab_range(self._osp_ab, (oid << 32) | sid)
            return set(self._osp_c[lo:hi])
        if oid is not None:
            raise ValueError("adjacent_ids needs exactly one wildcard")
        lo, hi = self._ab_range(self._spo_ab, (sid << 32) | pid)
        return set(self._spo_c[lo:hi])

    def pair_adjacency(self, key_pos: int, free_pos: int, const_id: int):
        self._flush()
        # Each combination maps to one permutation whose leading pair is
        # {key, const}; the leaf is a binary-search run over its c column.
        if key_pos == 0 and free_pos == 2:    # (key, const_p, ?) → SPO
            return self._pair_key_hi(self._spo_ab, self._spo_c, const_id)
        if key_pos == 2 and free_pos == 0:    # (?, const_p, key) → POS
            return self._pair_key_lo(self._pos_ab, self._pos_c, const_id)
        if key_pos == 0 and free_pos == 1:    # (key, ?, const_o) → OSP
            return self._pair_key_lo(self._osp_ab, self._osp_c, const_id)
        if key_pos == 1 and free_pos == 2:    # (const_s, key, ?) → SPO
            return self._pair_key_lo(self._spo_ab, self._spo_c, const_id)
        if key_pos == 1 and free_pos == 0:    # (?, key, const_o) → POS
            return self._pair_key_hi(self._pos_ab, self._pos_c, const_id)
        if key_pos == 2 and free_pos == 1:    # (const_s, ?, key) → OSP
            return self._pair_key_hi(self._osp_ab, self._osp_c, const_id)
        raise ValueError(
            f"invalid pair_adjacency positions ({key_pos}, {free_pos})")

    @staticmethod
    def _pair_key_hi(ab, c, const_id: int):
        """Leaf accessor where the probe key is the high packed half."""
        def get(key: int, _lo_const: int = const_id):
            packed = (key << 32) | _lo_const
            lo = bisect_left(ab, packed)
            hi = bisect_right(ab, packed, lo)
            if lo == hi:
                return None
            return set(c[lo:hi])
        return get

    @staticmethod
    def _pair_key_lo(ab, c, const_id: int):
        """Leaf accessor where the probe key is the low packed half."""
        def get(key: int, _base: int = const_id << 32):
            packed = _base | key
            lo = bisect_left(ab, packed)
            hi = bisect_right(ab, packed, lo)
            if lo == hi:
                return None
            return set(c[lo:hi])
        return get

    def count_ids(self, sid: Optional[int], pid: Optional[int],
                  oid: Optional[int]) -> int:
        if sid is None and oid is None:
            # Pattern (None, pid?, None): answered from live counters, no
            # flush needed — planners probe these between buffered writes.
            if pid is None:
                return self._size
            return self._pred_counts.get(pid, 0)
        self._flush()
        if sid is not None:
            if pid is not None:
                if oid is not None:
                    return 1 if self._base_contains(sid, pid, oid) else 0
                lo, hi = self._ab_range(self._spo_ab, (sid << 32) | pid)
                return hi - lo
            if oid is not None:
                lo, hi = self._ab_range(self._osp_ab, (oid << 32) | sid)
                return hi - lo
            lo, hi = self._a_range(self._spo_ab, sid)
            return hi - lo
        if pid is not None:
            lo, hi = self._ab_range(self._pos_ab, (pid << 32) | oid)
            return hi - lo
        lo, hi = self._a_range(self._osp_ab, oid)
        return hi - lo

    def subject_ids(self):
        self._flush()
        return self._distinct_a("spo")

    def object_ids(self):
        self._flush()
        return self._distinct_a("osp")

    def _distinct_a(self, perm: str) -> list:
        ab = getattr(self, f"_v_{perm}")[0]
        if not len(ab):
            return []
        a = ab >> 32
        keep = np.empty(len(a), dtype=bool)
        keep[0] = True
        np.not_equal(a[1:], a[:-1], out=keep[1:])
        return a[keep].tolist()

    def predicate_profile(self, pid: int) -> tuple[int, int, int]:
        self._flush()
        lo, hi = self._a_range(self._pos_ab, pid)
        if lo == hi:
            return (0, 0, 0)
        run_b = self._v_pos[1][lo:hi]
        return (hi - lo, len(set(self._pos_c[lo:hi])),
                1 + int(np.count_nonzero(run_b[1:] != run_b[:-1])))

    # -- lifecycle ----------------------------------------------------------

    def copy(self) -> "ColumnarStore":
        self._flush()
        clone = ColumnarStore(pending_limit=self._pending_limit)
        for perm in _PERMS:
            clone._store_perm(perm,
                              getattr(self, f"_{perm}_ab")[:],
                              getattr(self, f"_{perm}_b")[:],
                              getattr(self, f"_{perm}_c")[:])
        clone._size = self._size
        clone._pred_counts = dict(self._pred_counts)
        return clone

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._pred_counts)
        total += sys.getsizeof(self._adds) + sys.getsizeof(self._dels)
        for perm in _PERMS:
            for col in ("ab", "b", "c"):
                arr = getattr(self, f"_{perm}_{col}")
                total += sys.getsizeof(arr)
        return total

    # -- bulk kernel API (advertised by .vectorized) ------------------------

    def bulk_probe(self, bound_positions: tuple, const_ids: tuple, key_cols):
        """Range-probe sorted runs for a whole batch of keys at once.

        ``bound_positions`` are the pattern positions whose per-row key
        arrays arrive in ``key_cols`` (aligned, int64); ``const_ids`` is
        the 3-tuple of constant ids (None at non-constant positions).
        Returns ``(starts, ends, {free_pos: values})`` where ``values``
        is the *whole* permutation column — callers gather rows with
        global indices in ``[starts[i], ends[i])``.
        """
        self._flush()
        if len(bound_positions) == 1:
            bp = bound_positions[0]
            keys = key_cols[0]
            const_positions = [i for i in range(3)
                               if const_ids[i] is not None]
            if not const_positions:
                # one bound, two free → a-ranges of the perm led by bp
                perm = ("spo", "pos", "osp")[bp]
                ab, b, c = getattr(self, f"_v_{perm}")
                starts = np.searchsorted(ab, keys << 32, side="left")
                ends = np.searchsorted(ab, (keys + 1) << 32, side="left")
                free = {("spo"): {1: b, 2: c},
                        ("pos"): {2: b, 0: c},
                        ("osp"): {0: b, 1: c}}[perm]
                return starts, ends, free
            cp = const_positions[0]
            const = const_ids[cp]
            pair = {bp, cp}
            if pair == {0, 1}:
                ab, _, c = self._v_spo
                packed = ((keys << 32) | const if bp == 0
                          else (const << 32) | keys)
                free_pos = 2
            elif pair == {1, 2}:
                ab, _, c = self._v_pos
                packed = ((keys << 32) | const if bp == 1
                          else (const << 32) | keys)
                free_pos = 0
            else:
                ab, _, c = self._v_osp
                packed = ((const << 32) | keys if bp == 0
                          else (keys << 32) | const)
                free_pos = 1
        else:
            # two bound, one free — pack both key columns
            pair = set(bound_positions)
            cols = dict(zip(bound_positions, key_cols))
            if pair == {0, 1}:
                ab, _, c = self._v_spo
                packed = (cols[0] << 32) | cols[1]
                free_pos = 2
            elif pair == {1, 2}:
                ab, _, c = self._v_pos
                packed = (cols[1] << 32) | cols[2]
                free_pos = 0
            else:
                ab, _, c = self._v_osp
                packed = (cols[2] << 32) | cols[0]
                free_pos = 1
        starts = np.searchsorted(ab, packed, side="left")
        ends = np.searchsorted(ab, packed + 1, side="left")
        return starts, ends, {free_pos: c}

    def bulk_exists(self, key_pos: int, const_ids: tuple, keys):
        """Membership mask for fully-grounding probes (two constants)."""
        self._flush()
        sid, pid, oid = const_ids
        if key_pos == 0:
            ab, _, c = self._v_pos
            packed = (pid << 32) | oid
        elif key_pos == 1:
            ab, _, c = self._v_osp
            packed = (oid << 32) | sid
        else:
            ab, _, c = self._v_spo
            packed = (sid << 32) | pid
        lo = bisect_left(ab, packed)
        hi = bisect_right(ab, packed, lo)
        if lo == hi:
            return np.zeros(len(keys), dtype=bool)
        run = c[lo:hi]
        idx = np.searchsorted(run, keys)
        clipped = np.minimum(idx, len(run) - 1)
        return (idx < len(run)) & (run[clipped] == keys)

    def bulk_scan(self, const_ids: tuple):
        """Constant-skeleton scan: matching count + free-position columns."""
        self._flush()
        sid, pid, oid = const_ids
        if sid is None and pid is None and oid is None:
            ab, b, c = self._v_spo
            return len(c), {0: ab >> 32, 1: b, 2: c}
        if sid is not None and pid is None and oid is None:
            ab, b, c = self._v_spo
            lo, hi = self._a_range(self._spo_ab, sid)
            return hi - lo, {1: b[lo:hi], 2: c[lo:hi]}
        if pid is not None and sid is None and oid is None:
            ab, b, c = self._v_pos
            lo, hi = self._a_range(self._pos_ab, pid)
            return hi - lo, {2: b[lo:hi], 0: c[lo:hi]}
        if oid is not None and sid is None and pid is None:
            ab, b, c = self._v_osp
            lo, hi = self._a_range(self._osp_ab, oid)
            return hi - lo, {0: b[lo:hi], 1: c[lo:hi]}
        if sid is not None and pid is not None and oid is None:
            lo, hi = self._ab_range(self._spo_ab, (sid << 32) | pid)
            return hi - lo, {2: self._v_spo[2][lo:hi]}
        if pid is not None and oid is not None and sid is None:
            lo, hi = self._ab_range(self._pos_ab, (pid << 32) | oid)
            return hi - lo, {0: self._v_pos[2][lo:hi]}
        if sid is not None and oid is not None and pid is None:
            lo, hi = self._ab_range(self._osp_ab, (oid << 32) | sid)
            return hi - lo, {1: self._v_osp[2][lo:hi]}
        return (1 if self._base_contains(sid, pid, oid) else 0), {}
