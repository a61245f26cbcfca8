"""Diversification: the exploration-vs-exploitation knob (Section 4.4).

Three strategies are evaluated in the paper (Table 3):

* **Utility jumps** — the distance of a window to the known result
  clusters becomes part of its benefit (``B' = (B + dist) / 2``).  When
  the window about to be explored already belongs to a cluster, the next
  highest-utility window with non-zero distance is considered; if its
  modified utility is higher, the search "jumps" to it.  Jumping is
  suppressed for one step after a jump that turned out to be a false
  positive.
* **Dist jumps** — at each step the best ``k`` queue candidates are
  examined and the one furthest from the current clusters is explored.
* **Static sub-areas** — the search area is split into ``X`` even
  sub-areas, each with its own queue; the search round-robins between
  them (a window belongs to the sub-area containing its anchor).

The first two are *jump policies* consulted by the search loop right
before exploring; the third is a *queue layout* (see
:class:`SubAreaQueues`).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .clusters import ClusterTracker
from .pqueue import QueueEntry, SpillableQueue
from .window import Window

__all__ = [
    "Diversification",
    "JumpPolicy",
    "UtilityJumpPolicy",
    "DistJumpPolicy",
    "partition_tiles",
    "subarea_of",
    "SubAreaQueues",
]


class Diversification(Enum):
    """Named diversification strategies."""

    NONE = "none"
    UTILITY_JUMPS = "utility_jumps"
    DIST_JUMPS = "dist_jumps"
    STATIC = "static"


UtilityFn = Callable[[Window], float]


class JumpPolicy:
    """Base: no jumping; benefit is unmodified."""

    def __init__(self, tracker: ClusterTracker) -> None:
        self.tracker = tracker
        self._jump_enabled = True
        self._pending_jump = False

    def modified_benefit(self, window: Window, benefit: float) -> float:
        """Benefit used for utilities under this policy."""
        return benefit

    def select(
        self,
        window: Window,
        utility_fn: UtilityFn,
        queue: SpillableQueue,
        version: int,
    ) -> tuple[Window, bool]:
        """Possibly swap the window about to be explored; returns (window, jumped)."""
        return window, False

    def on_read(self, window: Window, positive: bool, jumped: bool) -> None:
        """Feedback after a disk read: disable jumping after a failed jump."""
        if jumped and not positive:
            self._jump_enabled = False
        elif self._jump_enabled is False:
            # Only one step is suppressed ("turned off at the current step").
            self._jump_enabled = True


class UtilityJumpPolicy(JumpPolicy):
    """Distance-augmented benefit with cluster-escape jumps."""

    def __init__(self, tracker: ClusterTracker, scan_limit: int = 64) -> None:
        super().__init__(tracker)
        if scan_limit < 1:
            raise ValueError(f"scan_limit must be >= 1, got {scan_limit}")
        self.scan_limit = scan_limit

    def modified_benefit(self, window: Window, benefit: float) -> float:
        return (benefit + self.tracker.min_distance(window)) / 2.0

    def select(
        self,
        window: Window,
        utility_fn: UtilityFn,
        queue: SpillableQueue,
        version: int,
    ) -> tuple[Window, bool]:
        if not self._jump_enabled:
            self._jump_enabled = True
            return window, False
        if self.tracker.num_clusters == 0 or not self.tracker.belongs_to_cluster(window):
            return window, False
        # Find the next highest-utility window with non-zero distance.
        held: list[QueueEntry] = []
        target: QueueEntry | None = None
        for _ in range(self.scan_limit):
            entry = queue.pop()
            if entry is None:
                break
            if self.tracker.min_distance(entry[1]) > 0.0:
                target = entry
                break
            held.append(entry)
        for priority, held_window, held_version in held:
            queue.push(priority, held_window, held_version)
        if target is None:
            return window, False
        _, candidate, _ = target
        if utility_fn(candidate) > utility_fn(window):
            queue.push(utility_fn(window), window, version)
            return candidate, True
        queue.push(target[0], candidate, target[2])
        return window, False


class DistJumpPolicy(JumpPolicy):
    """Choose the furthest of the best-k candidates at every step."""

    def __init__(self, tracker: ClusterTracker, k: int = 8) -> None:
        super().__init__(tracker)
        if k < 1:
            raise ValueError(f"candidate count k must be >= 1, got {k}")
        self.k = k

    def select(
        self,
        window: Window,
        utility_fn: UtilityFn,
        queue: SpillableQueue,
        version: int,
    ) -> tuple[Window, bool]:
        if not self._jump_enabled:
            self._jump_enabled = True
            return window, False
        if self.tracker.num_clusters == 0:
            return window, False
        candidates: list[QueueEntry] = [(utility_fn(window), window, version)]
        for _ in range(self.k - 1):
            entry = queue.pop()
            if entry is None:
                break
            candidates.append(entry)
        best_idx = 0
        best_key = (-math.inf, -math.inf)
        for i, (priority, cand, _) in enumerate(candidates):
            key = (self.tracker.min_distance(cand), priority)
            if key > best_key:
                best_key = key
                best_idx = i
        chosen = candidates.pop(best_idx)
        for priority, cand, cand_version in candidates:
            queue.push(priority, cand, cand_version)
        return chosen[1], best_idx != 0


# -- static sub-areas ------------------------------------------------------------


def partition_tiles(num_subareas: int, grid_shape: Sequence[int]) -> tuple[int, ...]:
    """Per-dimension tile counts whose product is ``num_subareas``.

    Chooses the most balanced factorization (e.g. 4 -> 2x2, 9 -> 3x3,
    16 -> 4x4 on a 2-D grid, matching the paper's "X static" layouts).
    """
    if num_subareas < 1:
        raise ValueError(f"need at least one sub-area, got {num_subareas}")
    ndim = len(grid_shape)
    if ndim == 1:
        return (num_subareas,)
    tiles = [1] * ndim
    remaining = num_subareas
    for dim in range(ndim - 1):
        target = round(remaining ** (1.0 / (ndim - dim)))
        # Largest divisor of `remaining` not exceeding target (>= 1).
        choice = 1
        for cand in range(target, 0, -1):
            if remaining % cand == 0:
                choice = cand
                break
        tiles[dim] = choice
        remaining //= choice
    tiles[-1] = remaining
    for count, size in zip(tiles, grid_shape):
        if count > size:
            raise ValueError(
                f"cannot split a dimension of {size} cells into {count} sub-areas"
            )
    return tuple(tiles)


def subarea_of(anchor: Sequence[int], grid_shape: Sequence[int], tiles: Sequence[int]) -> int:
    """Sub-area id of a window anchor under an even tiling."""
    sub = 0
    for a, size, count in zip(anchor, grid_shape, tiles):
        # Even split boundaries: tile t covers [t*size//count, (t+1)*size//count).
        tile = min(count - 1, a * count // size)
        sub = sub * count + tile
    return sub


class SubAreaQueues:
    """One queue per sub-area with round-robin service (the "X static" layout)."""

    def __init__(self, num_subareas: int, grid_shape: Sequence[int], head_capacity: int = 1_000_000) -> None:
        self.tiles = partition_tiles(num_subareas, grid_shape)
        self.grid_shape = tuple(grid_shape)
        self._queues = [SpillableQueue(head_capacity) for _ in range(num_subareas)]
        self._turn = 0
        self._last_served: int | None = None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def queue_of(self, window: Window) -> SpillableQueue:
        """The queue owning a window (by anchor)."""
        return self._queues[subarea_of(window.anchor, self.grid_shape, self.tiles)]

    def push(self, priority: float, window: Window, version: int) -> None:
        """Route the window to its sub-area queue."""
        self.queue_of(window).push(priority, window, version)

    def push_many_arrays(
        self,
        utilities: np.ndarray,
        benefits: np.ndarray,
        lows: np.ndarray,
        his: np.ndarray,
        version: int,
    ) -> None:
        """Bulk insert, each row routed to its anchor's sub-area queue
        (relative order preserved)."""
        subareas = np.zeros(len(lows), dtype=np.int64)
        for anchors, size, count in zip(lows.T, self.grid_shape, self.tiles):
            subareas = subareas * count + np.minimum(count - 1, anchors * count // size)
        for idx, queue in enumerate(self._queues):
            rows = subareas == idx
            if rows.any():
                queue.push_many_arrays(
                    utilities[rows], benefits[rows], lows[rows], his[rows], version
                )

    def pop(self) -> QueueEntry | None:
        """Pop from the next non-empty sub-area, round-robin."""
        n = len(self._queues)
        for offset in range(n):
            idx = (self._turn + offset) % n
            entry = self._queues[idx].pop()
            if entry is not None:
                self._last_served = idx
                self._turn = (idx + 1) % n
                return entry
        self._last_served = None
        return None

    def peek_priority(self) -> float | None:
        """Best priority in the queue that served the last pop."""
        if self._last_served is None:
            return None
        return self._queues[self._last_served].peek_priority()

    def has_stale(self, version: int) -> bool:
        """Whether any sub-area holds an entry scored before ``version``."""
        return any(queue.has_stale(version) for queue in self._queues)

    def drain_arrays(self):
        """Remove every entry: each sub-area's content-ordered rows in turn,
        as ``SpillableQueue.drain_arrays`` parallel arrays."""
        parts = [queue.drain_arrays() for queue in self._queues]
        live = [part for part in parts if part[0].size] or parts[:1]
        return tuple(np.concatenate(column) for column in zip(*live))
