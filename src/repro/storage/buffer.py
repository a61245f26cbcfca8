"""An LRU buffer pool over the simulated disk.

PostgreSQL's shared buffers (2 GB against a 35 GB table in the paper's
setup, i.e. under 10 % of the data) are what turns dispersed access
patterns into *re-reads*: pages touched early get evicted and fetched
again.  :class:`BufferPool` reproduces this with plain LRU replacement —
close enough to PostgreSQL's clock-sweep for the block-count statistics
that drive Table 2.  :class:`PoolGroup` sums the pools of many served
sessions for reporting; it never resizes them.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from ..errors import CorruptBlockError
from .disk import SimulatedDisk

__all__ = ["BufferPool", "PoolGroup"]


class BufferPool:
    """Fixed-capacity LRU cache of disk blocks.

    The pool holds block *ids* only — block payloads live in the in-memory
    table arrays; what matters for the simulation is which accesses hit
    the disk.
    """

    def __init__(self, capacity: int, disk: SimulatedDisk) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._disk = disk
        self._blocks: OrderedDict[int, None] = OrderedDict()
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
        return len(self._blocks)

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
        return block_id in self._blocks

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
        present = block_id in self._blocks
        if present:
            del self._blocks[block_id]
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
        evicted = 0
        while len(self._blocks) > capacity and self._evict_one():
            evicted += 1
        if evicted and self.metrics is not None:
            self.metrics.inc("buffer.evictions", float(evicted))
        return evicted

    def _evict_one(self) -> bool:
        """Drop the least-recently-used unprotected block; False if none."""
        if not self._protected:
            self._blocks.popitem(last=False)
            return True
        for block in self._blocks:
            if block not in self._protected:
                del self._blocks[block]
                return True
        return False

    def access(self, block_ids: Iterable[int] | np.ndarray) -> float:
        """Ensure all blocks are resident; returns elapsed disk seconds.

        Misses are fetched from disk in one request (sorted), then
        inserted with LRU eviction.  Hits are refreshed.
        """
        ids = np.asarray(list(block_ids) if not isinstance(block_ids, np.ndarray) else block_ids, dtype=np.int64)
        if ids.size == 0:
            return 0.0
        if ids.size > 1 and np.any(np.diff(ids) <= 0):
            ids = np.unique(ids)
        cached = self._blocks
        ids_list = ids.tolist()
        missing = [b for b in ids_list if b not in cached]
        miss_count = len(missing)
        hit_count = ids.size - miss_count
        self._hits += hit_count
        self._misses += miss_count
        # Refresh recency of hits.
        if hit_count:
            move = cached.move_to_end
            for b in ids_list:
                if b in cached:
                    move(b)
        elapsed = 0.0
        evicted = 0
        corrupt: CorruptBlockError | None = None
        if missing:
            try:
                elapsed = self._disk.read(np.asarray(missing, dtype=np.int64))
            except CorruptBlockError as err:
                # Unrepairable blocks are quarantined by the integrity
                # layer and must not be cached; the surviving blocks of
                # the request were read (and repaired) normally.
                corrupt = err
                bad = set(err.block_ids)
                missing = [b for b in missing if b not in bad]
            for b in missing:
                cached[b] = None
                if len(cached) > self._capacity and self._evict_one():
                    evicted += 1
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
        self._blocks.clear()
        self._protected.clear()
        self._hits = 0
        self._misses = 0

    # -- checkpoint support ------------------------------------------------------

    def state(self) -> dict:
        """Exact pool state (LRU order preserved) for a checkpoint."""
        return {
            "blocks": list(self._blocks),
            "protected": sorted(self._protected),
            "hits": self._hits,
            "misses": self._misses,
            "capacity": self._capacity,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this pool."""
        self._capacity = int(state["capacity"])
        self._blocks = OrderedDict((int(b), None) for b in state["blocks"])
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
