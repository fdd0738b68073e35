"""Sorted-array columnar triple storage with vectorized probe kernels.

:class:`ColumnarStore` keeps each (S,P,O) permutation — SPO, POS, OSP —
as two sorted contiguous ``array('q')`` columns: ``ab`` packs the two
leading positions into one 64-bit key (``a << 32 | b``) and ``c`` holds
the trailing position.  Rows are sorted by ``(ab, c)``, so every one of
the eight triple-pattern access paths is a binary-search range over one
permutation, and bulk probes become ``searchsorted`` over the whole key
column at once.  The middle position is the low half of ``ab``: numpy
readers get it as a zero-copy strided ``int32`` view of the same buffer
(``_frame``), the scalar loops as ``ab[i] & 0xFFFFFFFF``.  Ids are
minted below ``ID_LIMIT``; a caller's id outside ``[0, ID_LIMIT)`` would
pack to another pair's key, so every path that packs one (``_pack``, the
batch pass) treats it as absent.

Writes are buffered: inserts/deletes land in pending sets and are folded
into the sorted base by a compaction pass on the next read (or when the
buffer crosses a size threshold).  Both ends of a write rank only the
rows they touch, with one helper, :func:`_locate`: two ``searchsorted``
calls find each row's ``ab`` run, then every run is bisected on ``c`` at
once, one round per bit of the longest run touched — O(k log n) for k
rows.  ``insert_many`` / ``delete_many`` check a whole batch against the
base with one such pass over the SPO columns (the pending sets are
plain set lookups), so the rows they return — and their order — stay
exact for changelog capture.  Compaction locates the k pending rows in
each permutation and fills *fresh* columns, each allocated once, with
two masked copies (kept rows, then added rows); numpy views taken before
the pass keep their rows.

numpy (a declared dependency) does that merge and powers the bulk kernel
API (``bulk_probe``/``bulk_exists``/``bulk_scan``) the batched executor's
vectorized probe paths consume; the single-key access paths stay plain
``bisect`` over the ``array('q')`` columns, which the numpy views share
memory with.

Layout cribs from the ordered-key-range design documented for RDF
quad stores (cf. lakesuperior's indexing strategy notes): permutation
keyspaces + range scans, with the dictionary living elsewhere.
"""

from __future__ import annotations

import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from ..errors import StoreCapacityError
from ..obs import metrics as _metrics
from .dictionary import ID_LIMIT
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
_COMPACT_SECONDS = _REG.histogram(
    "store_compaction_seconds",
    "Wall time of one compaction pass",
    labels=("store",))

#: Pending-buffer size that triggers an eager compaction mid-load.
DEFAULT_PENDING_LIMIT = 1 << 18

#: Each permutation and where its (a, b, c) positions sit in an SPO row.
_PERMS = (("spo", [0, 1, 2]), ("pos", [1, 2, 0]), ("osp", [2, 0, 1]))
#: The ``int32`` half of an ``int64`` that holds its low 32 bits.
_LOW_HALF = 0 if sys.byteorder == "little" else 1
_LOW = 0xFFFFFFFF
_ZERO = array("q", [0])


def _pack(a: int, b: int) -> int:
    """``a << 32 | b``, or -1 (no stored key) when an id lies outside
    ``[0, ID_LIMIT)``: a wider ``b`` would alias another pair's key."""
    if 0 <= a < ID_LIMIT and 0 <= b < ID_LIMIT:
        return (a << 32) | b
    return -1


def _frame(ab: array, c: array) -> tuple:
    """numpy ``(ab, b, c)`` over a permutation's two columns; ``b`` is
    the strided ``int32`` view of ``ab``'s low halves."""
    packed = np.frombuffer(ab, dtype=np.int64)
    return (packed, packed.view(np.int32)[_LOW_HALF::2],
            np.frombuffer(c, dtype=np.int64))


def _rows(batch: list) -> np.ndarray:
    """A batch of id-triples as a ``(k, 3)`` int64 array."""
    return np.fromiter(chain.from_iterable(batch), dtype=np.int64,
                       count=3 * len(batch)).reshape(-1, 3)


def _in_range(batch: list) -> bool:
    """Whether every id of a batch of id-triples lies in ``[0, ID_LIMIT)``."""
    for sid, pid, oid in batch:
        if not (0 <= sid < ID_LIMIT and 0 <= pid < ID_LIMIT
                and 0 <= oid < ID_LIMIT):
            return False
    return True


def _locate(ab: np.ndarray, c: np.ndarray, keys_ab: np.ndarray,
            keys_c: np.ndarray) -> np.ndarray:
    """Each key's lower bound among the rows sorted by ``(ab, c)``.

    Two ``searchsorted`` calls find each key's ``ab`` run; the runs are
    then bisected on ``c`` all at once, one round per bit of the longest
    run touched — O(k log n) for k keys.  The bisection is branch-free:
    the bound stays in ``[lo, lo + width]`` and a row whose width is down
    to one (or was zero) stops moving, so no row needs a mask.
    """
    lo = np.searchsorted(ab, keys_ab)
    if not len(c):                      # an empty column: nothing to take
        return lo
    width = np.searchsorted(ab, keys_ab, side="right") - lo
    for _ in range(int(width.max(initial=1) - 1).bit_length()):
        half = width >> 1
        probe = lo + half
        lo = np.where(c.take(probe, mode="clip") < keys_c, probe, lo)
        width -= half
    return lo + ((width > 0) & (c.take(lo, mode="clip") < keys_c))


def _merge(ab: np.ndarray, c: np.ndarray, adds: np.ndarray,
           dels: np.ndarray) -> tuple:
    """Fresh ``(ab, c)`` columns of one permutation: ``dels`` out,
    ``adds`` in.

    ``adds`` / ``dels`` are ``(k, 3)`` rows in the permutation's (a, b,
    c) order; every deleted row is stored and no added one is.  Only the
    pending rows are ranked (:func:`_locate`); each new column is
    allocated once and filled with the kept rows, then the added ones.
    """
    add_ab = (adds[:, 0] << 32) | adds[:, 1]
    order = np.lexsort((adds[:, 2], add_ab))
    add_ab, add_c = add_ab[order], adds[order, 2]
    gone = np.sort(_locate(ab, c, (dels[:, 0] << 32) | dels[:, 1],
                           dels[:, 2]))
    at = _locate(ab, c, add_ab, add_c)
    # an added row lands after the kept rows and the added rows before it
    at += np.arange(len(at)) - np.searchsorted(gone, at)
    size = len(ab) - len(gone) + len(at)
    kept = np.ones(size, dtype=bool)
    kept[at] = False
    keep = np.ones(len(ab), dtype=bool)
    keep[gone] = False
    columns = []
    for old, new in ((ab, add_ab), (c, add_c)):
        column = _ZERO * size
        fill = np.frombuffer(column, dtype=np.int64)
        fill[kept] = old[keep]
        fill[at] = new
        columns.append(column)
    return tuple(columns)


class ColumnarStore(TripleStore):
    """Sorted permutation id-arrays with binary-search range probes."""

    kind = "columnar"
    vectorized = True

    __slots__ = (
        "_spo_ab", "_spo_c", "_pos_ab", "_pos_c", "_osp_ab", "_osp_c",
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
        for perm, _ in _PERMS:
            self._store_perm(perm, array("q"), array("q"))

    # -- column plumbing ----------------------------------------------------

    def _store_perm(self, perm: str, ab: array, c: array) -> None:
        setattr(self, f"_{perm}_ab", ab)
        setattr(self, f"_{perm}_c", c)
        setattr(self, f"_v_{perm}", _frame(ab, c))

    def _flush(self) -> None:
        if self._adds or self._dels:
            self._compact()

    def compact(self) -> None:
        self._flush()

    # -- base binary search -------------------------------------------------

    def _base_contains(self, sid: int, pid: int, oid: int) -> bool:
        lo, hi = self._ab_range(self._spo_ab, _pack(sid, pid))
        c = self._spo_c
        j = bisect_left(c, oid, lo, hi)
        return j < hi and c[j] == oid

    def _base_holds(self, batch: list) -> Optional[list]:
        """Per id-triple of ``batch``, whether the sorted columns store
        it — one :func:`_locate` for the batch — or None when an id lies
        outside ``[0, ID_LIMIT)``.  An empty base takes no numpy pass, so
        a graph loaded one triple at a time pays no per-batch setup."""
        if not _in_range(batch):
            return None
        ab, _, c = self._v_spo
        if not len(c):
            return [False] * len(batch)
        rows = _rows(batch)
        keys_ab = (rows[:, 0] << 32) | rows[:, 1]
        at = _locate(ab, c, keys_ab, rows[:, 2])
        return ((ab.take(at, mode="clip") == keys_ab)
                & (c.take(at, mode="clip") == rows[:, 2])).tolist()

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
        batch = list(id_triples)
        stored = self._base_holds(batch)
        if stored is None:              # all or nothing: before any write
            bad = next(t for t in batch if not _in_range((t,)))
            raise StoreCapacityError(f"id out of columnar range: {bad}")
        adds, dels = self._adds, self._dels
        pred_counts = self._pred_counts
        added: list = []
        for (sid, pid, oid), held in zip(batch, stored):
            t = (sid, pid, oid)
            if t in dels:
                dels.discard(t)
            elif held or t in adds:
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
        batch = list(id_triples)
        stored = self._base_holds(batch)
        if stored is None:              # such a triple is stored nowhere
            batch = [t for t in batch if _in_range((t,))]
            stored = self._base_holds(batch)
        adds, dels = self._adds, self._dels
        pred_counts = self._pred_counts
        removed: list = []
        for (sid, pid, oid), held in zip(batch, stored):
            t = (sid, pid, oid)
            if t in adds:
                adds.discard(t)
            elif not held or t in dels:
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
        for perm, _ in _PERMS:
            self._store_perm(perm, array("q"), array("q"))

    # -- compaction ---------------------------------------------------------

    def _compact(self) -> None:
        start = time.perf_counter()
        pending = len(self._adds) + len(self._dels)
        adds, dels = (_rows(rows) for rows in (self._adds, self._dels))
        for perm, order in _PERMS:
            ab, _, c = getattr(self, f"_v_{perm}")
            self._store_perm(perm, *_merge(ab, c, adds[:, order],
                                           dels[:, order]))
        self._adds = set()
        self._dels = set()
        if _REG.enabled:
            _COMPACTIONS.inc(1, (self.kind,))
            _COMPACT_PENDING.observe(pending)
            _COMPACT_SECONDS.observe(time.perf_counter() - start,
                                     (self.kind,))

    def _iter_base(self) -> Iterator[tuple]:
        for ab, c in zip(self._spo_ab, self._spo_c):
            yield (ab >> 32, ab & _LOW, c)

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
                lo, hi = self._ab_range(self._spo_ab, _pack(sid, pid))
                c = self._spo_c
                for i in range(lo, hi):
                    yield (sid, pid, c[i])
                return
            if oid is not None:
                lo, hi = self._ab_range(self._osp_ab, _pack(oid, sid))
                c = self._osp_c
                for i in range(lo, hi):
                    yield (sid, c[i], oid)
                return
            lo, hi = self._a_range(self._spo_ab, sid)
            ab, c = self._spo_ab, self._spo_c
            for i in range(lo, hi):
                yield (sid, ab[i] & _LOW, c[i])
            return
        if pid is not None:
            if oid is not None:
                lo, hi = self._ab_range(self._pos_ab, _pack(pid, oid))
                c = self._pos_c
                for i in range(lo, hi):
                    yield (c[i], pid, oid)
                return
            lo, hi = self._a_range(self._pos_ab, pid)
            ab, c = self._pos_ab, self._pos_c
            for i in range(lo, hi):
                yield (c[i], pid, ab[i] & _LOW)
            return
        if oid is not None:
            lo, hi = self._a_range(self._osp_ab, oid)
            ab, c = self._osp_ab, self._osp_c
            for i in range(lo, hi):
                yield (ab[i] & _LOW, c[i], oid)
            return
        yield from self._iter_base()

    def adjacent_ids(self, sid: Optional[int], pid: Optional[int],
                     oid: Optional[int]):
        self._flush()
        if sid is None:
            if pid is None or oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            lo, hi = self._ab_range(self._pos_ab, _pack(pid, oid))
            return set(self._pos_c[lo:hi])
        if pid is None:
            if oid is None:
                raise ValueError("adjacent_ids needs exactly one wildcard")
            lo, hi = self._ab_range(self._osp_ab, _pack(oid, sid))
            return set(self._osp_c[lo:hi])
        if oid is not None:
            raise ValueError("adjacent_ids needs exactly one wildcard")
        lo, hi = self._ab_range(self._spo_ab, _pack(sid, pid))
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
            packed = _pack(key, _lo_const)
            lo = bisect_left(ab, packed)
            hi = bisect_right(ab, packed, lo)
            if lo == hi:
                return None
            return set(c[lo:hi])
        return get

    @staticmethod
    def _pair_key_lo(ab, c, const_id: int):
        """Leaf accessor where the probe key is the low packed half."""
        def get(key: int, _hi_const: int = const_id):
            packed = _pack(_hi_const, key)
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
                lo, hi = self._ab_range(self._spo_ab, _pack(sid, pid))
                return hi - lo
            if oid is not None:
                lo, hi = self._ab_range(self._osp_ab, _pack(oid, sid))
                return hi - lo
            lo, hi = self._a_range(self._spo_ab, sid)
            return hi - lo
        if pid is not None:
            lo, hi = self._ab_range(self._pos_ab, _pack(pid, oid))
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

    def object_domain(self, pid: int):
        self._flush()
        lo, hi = self._a_range(self._pos_ab, pid)
        run_b = self._v_pos[1][lo:hi]
        heads = np.ones(len(run_b), dtype=bool)   # the runs counted above
        np.not_equal(run_b[1:], run_b[:-1], out=heads[1:])
        return run_b[heads].tolist()

    # -- lifecycle ----------------------------------------------------------

    def copy(self) -> "ColumnarStore":
        self._flush()
        clone = ColumnarStore(pending_limit=self._pending_limit)
        for perm, _ in _PERMS:
            clone._store_perm(perm, getattr(self, f"_{perm}_ab")[:],
                              getattr(self, f"_{perm}_c")[:])
        clone._size = self._size
        clone._pred_counts = dict(self._pred_counts)
        return clone

    def memory_bytes(self) -> int:
        total = sys.getsizeof(self._pred_counts)
        total += sys.getsizeof(self._adds) + sys.getsizeof(self._dels)
        total += sys.getsizeof((0, 0, 0)) * (len(self._adds) + len(self._dels))
        for perm, _ in _PERMS:
            for col in ("ab", "c"):
                total += sys.getsizeof(getattr(self, f"_{perm}_{col}"))
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
            ab, c = self._pos_ab, self._v_pos[2]
            packed = _pack(pid, oid)
        elif key_pos == 1:
            ab, c = self._osp_ab, self._v_osp[2]
            packed = _pack(oid, sid)
        else:
            ab, c = self._spo_ab, self._v_spo[2]
            packed = _pack(sid, pid)
        lo, hi = self._ab_range(ab, packed)
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
            lo, hi = self._ab_range(self._spo_ab, _pack(sid, pid))
            return hi - lo, {2: self._v_spo[2][lo:hi]}
        if pid is not None and oid is not None and sid is None:
            lo, hi = self._ab_range(self._pos_ab, _pack(pid, oid))
            return hi - lo, {0: self._v_pos[2][lo:hi]}
        if sid is not None and oid is not None and pid is None:
            lo, hi = self._ab_range(self._osp_ab, _pack(oid, sid))
            return hi - lo, {1: self._v_osp[2][lo:hi]}
        return (1 if self._base_contains(sid, pid, oid) else 0), {}
