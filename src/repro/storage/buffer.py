"""An LRU buffer pool over the simulated disk.

PostgreSQL's shared buffers (2 GB against a 35 GB table in the paper's
setup, i.e. under 10 % of the data) are what turns dispersed access
patterns into *re-reads*: pages touched early get evicted and fetched
again.  :class:`BufferPool` reproduces this with plain LRU replacement —
close enough to PostgreSQL's clock-sweep for the block-count statistics
that drive Table 2.  :class:`PoolGroup` sums the pools of many served
sessions for reporting; it never resizes them.

Recency is one ``int64`` stamp per disk block (``0`` = not resident),
issued from a counter that only grows, so LRU order is stamp order and
an access is a handful of array operations over the requested ids: a hit
mask, fresh stamps for the hits (in id order), one disk read for the
misses, fresh stamps for them, and the eviction of the oldest
unprotected stamps.  That is exactly the sequential policy — insert each
miss, then evict the least-recently-used unprotected block while the
pool is over capacity — with the same victims, counters and
:meth:`~BufferPool.state` order (``tests/test_buffer_oracle.py`` checks
it against that loop over an ``OrderedDict``).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import CorruptBlockError
from .disk import SimulatedDisk

__all__ = ["BufferPool", "PoolGroup"]


class BufferPool:
    """Fixed-capacity LRU cache of disk blocks.

    The pool holds block *ids* only — block payloads live in the in-memory
    table arrays; what matters for the simulation is which accesses hit
    the disk.  Block ids must lie on the disk (``[0, num_blocks)``).
    """

    def __init__(self, capacity: int, disk: SimulatedDisk) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._disk = disk
        # Recency stamp per disk block; 0 = not resident.
        self._stamps = np.zeros(disk.num_blocks, dtype=np.int64)
        self._tick = 0
        self._size = 0
        self._protected: set[int] = set()
        self._hits = 0
        self._misses = 0
        # Optional observability (repro.obs): attached by Database.
        self.metrics = None

    @property
    def capacity(self) -> int:
        """Maximum number of cached blocks."""
        return self._capacity

    @property
    def size(self) -> int:
        """Number of currently cached blocks."""
        return self._size

    @property
    def hits(self) -> int:
        """Block accesses served from the pool."""
        return self._hits

    @property
    def misses(self) -> int:
        """Block accesses that had to go to disk."""
        return self._misses

    def contains(self, block_id: int) -> bool:
        """Whether a block is cached (does not touch recency)."""
        return 0 <= block_id < self._stamps.size and bool(self._stamps[block_id])

    def protect(self, block_id: int) -> None:
        """Pin a block: eviction will never drop it (quarantine/repair)."""
        self._protected.add(int(block_id))

    def unprotect(self, block_id: int) -> None:
        """Release a pin taken with :meth:`protect`."""
        self._protected.discard(int(block_id))

    def protected(self) -> frozenset[int]:
        """Currently pinned block ids."""
        return frozenset(self._protected)

    def drop(self, block_id: int) -> bool:
        """Discard one cached block (quarantined pages must not serve hits)."""
        block_id = int(block_id)
        self._protected.discard(block_id)
        present = self.contains(block_id)
        if present:
            self._stamps[block_id] = 0
            self._size -= 1
        return present

    def resize(self, capacity: int) -> int:
        """Change capacity (the memory budget); evicts down; returns evictions.

        Shrinking drops least-recently-used *unprotected* blocks until the
        pool fits; pinned blocks survive even if that leaves the pool over
        budget (they are released by the integrity layer, never dropped).
        """
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity}")
        self._capacity = capacity
        evicted = self._evict_oldest(self._size - capacity)
        if evicted and self.metrics is not None:
            self.metrics.inc("buffer.evictions", float(evicted))
        return evicted

    def _evict_oldest(self, count: int) -> int:
        """Drop up to ``count`` least-recently-used unprotected blocks."""
        if count <= 0:
            return 0
        stamps = self._stamps
        resident = np.flatnonzero(stamps)
        if self._protected:
            pinned = np.fromiter(self._protected, dtype=np.int64, count=len(self._protected))
            resident = resident[~np.isin(resident, pinned)]
        if count < resident.size:
            ages = stamps[resident]
            resident = resident[np.argpartition(ages, count - 1)[:count]]
        stamps[resident] = 0
        self._size -= resident.size
        return resident.size

    def _evictions_on_insert(self, misses: np.ndarray) -> int:
        """How many blocks inserting ``misses`` one at a time evicts.

        Each insert that leaves the pool over capacity evicts one
        least-recently-used unprotected block, if any is resident (the
        new block included).  Without pins that is every insert past
        capacity; with pins the sequential count is replayed on ints.
        """
        free = max(0, self._capacity - self._size)
        if not self._protected:
            return max(0, misses.size - free)
        pinned = self._protected
        size = self._size
        # Unprotected residents present before the first insert.
        unpinned = size - sum(1 for b in pinned if self.contains(b))
        evicted = 0
        for block in misses.tolist():
            size += 1
            if block not in pinned:
                unpinned += 1
            if size > self._capacity and unpinned:
                unpinned -= 1
                size -= 1
                evicted += 1
        return evicted

    def access(self, block_ids: Iterable[int] | np.ndarray) -> float:
        """Ensure all blocks are resident; returns elapsed disk seconds.

        Hits are refreshed in id order; misses are fetched from disk in
        one request (sorted), then inserted with LRU eviction.
        """
        ids = np.asarray(list(block_ids) if not isinstance(block_ids, np.ndarray) else block_ids, dtype=np.int64)
        if ids.size == 0:
            return 0.0
        if ids.size > 1 and np.any(np.diff(ids) <= 0):
            ids = np.unique(ids)
        stamps = self._stamps
        if ids[0] < 0 or ids[-1] >= stamps.size:
            raise ValueError(
                f"block ids out of range [0, {stamps.size}): {ids[0]}..{ids[-1]}"
            )
        hit = stamps[ids] != 0
        hit_count = int(np.count_nonzero(hit))
        miss_count = ids.size - hit_count
        self._hits += hit_count
        self._misses += miss_count
        tick = self._tick
        if hit_count:
            refreshed = ids if not miss_count else ids[hit]
            stamps[refreshed] = np.arange(tick + 1, tick + 1 + hit_count)
            tick = self._tick = tick + hit_count
        elapsed = 0.0
        evicted = 0
        corrupt: CorruptBlockError | None = None
        if miss_count:
            missing = ids if not hit_count else ids[~hit]
            try:
                elapsed = self._disk.read(missing)
            except CorruptBlockError as err:
                # Unrepairable blocks are quarantined by the integrity
                # layer and must not be cached; the surviving blocks of
                # the request were read (and repaired) normally.
                corrupt = err
                missing = missing[~np.isin(missing, np.asarray(err.block_ids, dtype=np.int64))]
            if missing.size:
                evicted = self._evictions_on_insert(missing)
                stamps[missing] = np.arange(tick + 1, tick + 1 + missing.size)
                self._tick = tick + missing.size
                self._size += missing.size
                self._evict_oldest(evicted)
        m = self.metrics
        if m is not None:
            # miss_count includes unrepairable blocks: they did go to disk,
            # so the block-accounting identity needs them counted here too.
            m.inc("buffer.block_accesses", float(ids.size))
            m.inc("buffer.hit_blocks", float(hit_count))
            m.inc("buffer.miss_blocks", float(miss_count))
            if evicted:
                m.inc("buffer.evictions", float(evicted))
        if corrupt is not None:
            raise corrupt
        return elapsed

    def reset(self) -> None:
        """Drop every cached block and clear hit/miss counters."""
        self._stamps[:] = 0
        self._size = 0
        self._protected.clear()
        self._hits = 0
        self._misses = 0

    # -- checkpoint support ------------------------------------------------------

    def _lru_order(self) -> np.ndarray:
        """Resident block ids, least recently used first."""
        resident = np.flatnonzero(self._stamps)
        return resident[np.argsort(self._stamps[resident])]

    def state(self) -> dict:
        """Exact pool state (LRU order preserved) for a checkpoint."""
        return {
            "blocks": self._lru_order().tolist(),
            "protected": sorted(self._protected),
            "hits": self._hits,
            "misses": self._misses,
            "capacity": self._capacity,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this pool."""
        blocks = np.asarray([int(b) for b in state["blocks"]], dtype=np.int64)
        self._capacity = int(state["capacity"])
        self._stamps[:] = 0
        self._stamps[blocks] = np.arange(1, blocks.size + 1)
        self._tick = blocks.size
        self._size = blocks.size
        self._protected = {int(b) for b in state["protected"]}
        self._hits = int(state["hits"])
        self._misses = int(state["misses"])


class PoolGroup:
    """Named collection of buffer pools with shared-budget accounting.

    The serving layer runs one pool per session (each session owns its
    database instance), but operators reason about *one* memory budget.
    A group registers member pools under stable names and sums their
    occupancy and hit statistics for reports.
    """

    def __init__(self) -> None:
        self._pools: dict[str, BufferPool] = {}

    def register(self, name: str, pool: BufferPool) -> None:
        """Add a member pool under a unique name."""
        if name in self._pools:
            raise ValueError(f"pool {name!r} already registered")
        self._pools[name] = pool

    def unregister(self, name: str) -> BufferPool | None:
        """Remove and return a member pool (``None`` if absent)."""
        return self._pools.pop(name, None)

    def names(self) -> list[str]:
        """Registered pool names, sorted."""
        return sorted(self._pools)

    def __len__(self) -> int:
        return len(self._pools)

    def totals(self) -> dict[str, int]:
        """Aggregate capacity/occupancy/hit statistics over all members."""
        pools = self._pools.values()
        return {
            "pools": len(self._pools),
            "capacity": sum(p.capacity for p in pools),
            "resident": sum(p.size for p in pools),
            "protected": sum(len(p.protected()) for p in pools),
            "hits": sum(p.hits for p in pools),
            "misses": sum(p.misses for p in pools),
        }
