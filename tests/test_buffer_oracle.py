"""The stamp-array buffer pool against the ``OrderedDict`` pool it replaced.

:class:`OrderedDictPool` is the sequential LRU policy written out: hits
move to the end in id order, each miss is inserted and, while the pool is
over capacity, the least-recently-used unprotected block is evicted.
:class:`~repro.storage.BufferPool` keeps one recency stamp per disk block
instead and evicts in bulk.  Hypothesis drives both through the same
operations — accesses (duplicates, requests larger than the pool, an
unrepairable block mid-request), pins, drops, resizes and checkpoint
round trips — and every observable must agree: returned seconds, raised
errors, disk requests, residency, LRU order, counters and metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptBlockError
from repro.obs import MetricsRegistry
from repro.storage import BufferPool

NUM_BLOCKS = 24


class OrderedDictPool:
    """The sequential LRU pool: one ``OrderedDict`` entry per resident block."""

    def __init__(self, capacity: int, disk) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._disk = disk
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self._protected: set[int] = set()
        self._hits = 0
        self._misses = 0
        self.metrics = None

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def size(self) -> int:
        return len(self._blocks)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def contains(self, block_id: int) -> bool:
        return block_id in self._blocks

    def protect(self, block_id: int) -> None:
        self._protected.add(int(block_id))

    def unprotect(self, block_id: int) -> None:
        self._protected.discard(int(block_id))

    def protected(self) -> frozenset[int]:
        return frozenset(self._protected)

    def drop(self, block_id: int) -> bool:
        block_id = int(block_id)
        self._protected.discard(block_id)
        present = block_id in self._blocks
        if present:
            del self._blocks[block_id]
        return present

    def resize(self, capacity: int) -> int:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity}")
        self._capacity = capacity
        evicted = 0
        while len(self._blocks) > capacity and self._evict_one():
            evicted += 1
        if evicted and self.metrics is not None:
            self.metrics.inc("buffer.evictions", float(evicted))
        return evicted

    def _evict_one(self) -> bool:
        for block in self._blocks:
            if block not in self._protected:
                del self._blocks[block]
                return True
        return False

    def access(self, block_ids: Iterable[int]) -> float:
        ids = sorted(set(int(b) for b in block_ids))
        if not ids:
            return 0.0
        cached = self._blocks
        missing = [b for b in ids if b not in cached]
        miss_count = len(missing)
        hit_count = len(ids) - miss_count
        self._hits += hit_count
        self._misses += miss_count
        for b in ids:
            if b in cached:
                cached.move_to_end(b)
        elapsed = 0.0
        evicted = 0
        corrupt = None
        if missing:
            try:
                elapsed = self._disk.read(np.asarray(missing, dtype=np.int64))
            except CorruptBlockError as err:
                corrupt = err
                missing = [b for b in missing if b not in set(err.block_ids)]
            for b in missing:
                cached[b] = None
                if len(cached) > self._capacity and self._evict_one():
                    evicted += 1
        m = self.metrics
        if m is not None:
            m.inc("buffer.block_accesses", float(len(ids)))
            m.inc("buffer.hit_blocks", float(hit_count))
            m.inc("buffer.miss_blocks", float(miss_count))
            if evicted:
                m.inc("buffer.evictions", float(evicted))
        if corrupt is not None:
            raise corrupt
        return elapsed

    def state(self) -> dict:
        return {
            "blocks": list(self._blocks),
            "protected": sorted(self._protected),
            "hits": self._hits,
            "misses": self._misses,
            "capacity": self._capacity,
        }

    def restore_state(self, state: dict) -> None:
        self._capacity = int(state["capacity"])
        self._blocks = OrderedDict((int(b), None) for b in state["blocks"])
        self._protected = {int(b) for b in state["protected"]}
        self._hits = int(state["hits"])
        self._misses = int(state["misses"])


class FakeDisk:
    """Records every read; blocks in ``bad`` fail as unrepairable."""

    def __init__(self, bad=()) -> None:
        self.num_blocks = NUM_BLOCKS
        self.bad = set(bad)
        self.reads: list[list[int]] = []

    def read(self, block_ids: np.ndarray) -> float:
        ids = [int(b) for b in block_ids]
        self.reads.append(ids)
        lost = [b for b in ids if b in self.bad]
        if lost:
            raise CorruptBlockError("t", tuple(lost))
        return 0.001 * len(ids) + 0.01 * ids[0]


def _pair(capacity: int, bad=()):
    pools = []
    for cls in (BufferPool, OrderedDictPool):
        disk = FakeDisk(bad)
        pool = cls(capacity, disk)
        pool.metrics = MetricsRegistry()
        pools.append((pool, disk))
    return pools


def _apply(pool, op):
    """Run one operation; returns ``(result, error)`` for comparison."""
    kind, arg = op
    try:
        if kind == "access":
            return pool.access(np.asarray(arg, dtype=np.int64) if len(arg) % 2 else arg), None
        if kind == "protect":
            return pool.protect(arg), None
        if kind == "unprotect":
            return pool.unprotect(arg), None
        if kind == "drop":
            return pool.drop(arg), None
        if kind == "resize":
            return pool.resize(arg), None
        if kind == "roundtrip":
            # A checkpoint capture restored in place mid-run.
            state = pool.state()
            pool.restore_state(state)
            return state, None
    except CorruptBlockError as err:
        return None, ("corrupt", err.block_ids)
    raise AssertionError(kind)  # pragma: no cover


def _observables(pool, disk) -> dict:
    return {
        "state": pool.state(),
        "size": pool.size,
        "capacity": pool.capacity,
        "hits": pool.hits,
        "misses": pool.misses,
        "protected": pool.protected(),
        "resident": [b for b in range(NUM_BLOCKS) if pool.contains(b)],
        "reads": disk.reads,
        "metrics": pool.metrics.snapshot()["counters"],
    }


block = st.integers(0, NUM_BLOCKS - 1)
operations = st.one_of(
    st.tuples(st.just("access"), st.lists(block, max_size=14)),
    st.tuples(st.just("access"), st.lists(block, max_size=3)),
    st.tuples(st.sampled_from(["protect", "unprotect", "drop"]), block),
    st.tuples(st.just("resize"), st.integers(1, 10)),
    st.tuples(st.just("roundtrip"), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 8),
    bad=st.sets(block, max_size=2),
    ops=st.lists(operations, max_size=30),
)
def test_stamp_pool_matches_ordered_dict_pool(capacity, bad, ops):
    (stamp, stamp_disk), (oracle, oracle_disk) = _pair(capacity, bad)
    for op in ops:
        assert _apply(stamp, op) == _apply(oracle, op), op
        assert _observables(stamp, stamp_disk) == _observables(oracle, oracle_disk), op


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 6),
    before=st.lists(st.lists(block, max_size=8), max_size=6),
    pins=st.sets(block, max_size=3),
    after=st.lists(st.lists(block, max_size=8), max_size=6),
)
def test_captures_cross_between_the_two_pools(capacity, before, pins, after):
    """A capture of either pool restores onto the other and runs on equal."""
    (stamp, stamp_disk), (oracle, oracle_disk) = _pair(capacity)
    for ids in before:
        oracle.access(ids)
    for b in pins:
        oracle.protect(b)
    stamp.restore_state(oracle.state())
    assert stamp.state() == oracle.state()
    for ids in after:
        assert stamp.access(ids) == oracle.access(ids)
        assert stamp.state() == oracle.state()
    fresh, _ = _pair(capacity)[1]
    fresh.restore_state(stamp.state())
    assert fresh.state() == oracle.state()


def test_pins_that_fill_the_pool_stop_evictions():
    """An insert with only pinned blocks resident evicts nothing, the next one may."""
    (stamp, stamp_disk), (oracle, oracle_disk) = _pair(1)
    for pool in (stamp, oracle):
        pool.protect(3)
        pool.protect(4)
    for ids in ([3, 4, 5], [6], [3, 4, 7, 8]):
        assert stamp.access(ids) == oracle.access(ids)
        assert _observables(stamp, stamp_disk) == _observables(oracle, oracle_disk)
    assert stamp.metrics.snapshot()["counters"]["buffer.evictions"] == 4


def test_parent_format_capture_restores():
    """A checkpoint written by the ``OrderedDict`` pool, as literal JSON."""
    capture = {"blocks": [7, 2, 11, 4], "protected": [2], "hits": 5, "misses": 9, "capacity": 4}
    (stamp, _), (oracle, _) = _pair(1)
    stamp.restore_state(capture)
    oracle.restore_state(capture)
    assert stamp.state() == capture
    for ids in ([4, 5], [2, 3, 12], [0, 1, 2, 3, 4, 5, 6]):
        assert stamp.access(ids) == oracle.access(ids)
        assert stamp.state() == oracle.state()


def test_out_of_range_block_is_refused_before_any_change():
    (stamp, disk), _ = _pair(4)
    stamp.access([1, 2])
    before = stamp.state()
    with pytest.raises(ValueError, match="out of range"):
        stamp.access([3, NUM_BLOCKS])
    assert stamp.state() == before and disk.reads == [[1, 2]]
