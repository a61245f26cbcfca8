"""Search-area and data partitioning for distributed execution (Section 5).

The search area is split among workers into contiguous slabs along the
first dimension, aligned with grid cells ("partitions must be aligned with
cells", Section 6.7).  A window belongs to the worker whose slab contains
its **anchor** (leftmost point); a grid cell belongs to the worker whose
slab contains it.

Data placement relative to that area partitioning follows the paper's
three cases (Section 6.7):

* ``no_overlap``   — each worker stores exactly its slab's tuples; windows
  crossing a boundary trigger remote cell requests;
* ``full_overlap`` — each worker additionally stores every cell its
  anchored windows can reach (slab extended right by ``max_len - 1``
  cells, derivable only because shape conditions bound window length);
  no remote requests are ever needed;
* ``part_overlap`` — the extension covers half that reach; boundary
  windows need fewer, but still some, remote requests.

Slab boundaries are placed to balance tuple counts (estimated from the
sample in a real deployment; we use the exact histogram, optionally skewed
on purpose for the imbalance experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from ..core.grid import Grid
from ..errors import PartitionError

__all__ = [
    "OverlapMode",
    "OwnershipRouter",
    "PartitionPlan",
    "SuccessorPolicy",
    "plan_partitions",
]


class OverlapMode(Enum):
    """Data-vs-area partitioning overlap cases from Section 6.7."""

    NONE = "no_overlap"
    FULL = "full_overlap"
    PART = "part_overlap"


class SuccessorPolicy(Enum):
    """How a lost anchor run is handed to its adjacent live neighbors.

    Contiguity is the invariant every policy preserves: a worker's owned
    range (and hence its local data range) must stay a single interval,
    so only the run's *adjacent* live neighbors are candidate
    successors.  The policies choose among them:

    * ``SPLIT`` — midpoint split between both neighbors (the PR 2
      behavior); the whole run to the single neighbor when only one side
      is live.
    * ``BALANCE`` — the whole run goes to whichever adjacent neighbor
      currently owns *fewer* anchor cells (ties to the left), keeping
      slab sizes even after repeated failures.
    * ``LEFT`` / ``RIGHT`` — deterministic preference for one side
      (falls back to the other side when that neighbor is dead); useful
      for locality-style placements where one direction is the cheap
      adoption.
    """

    SPLIT = "split"
    BALANCE = "balance"
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class PartitionPlan:
    """Slab boundaries plus the data extension per worker.

    ``boundaries`` has ``num_workers + 1`` entries of dim-0 cell indices;
    worker ``i`` owns anchor cells ``[boundaries[i], boundaries[i+1])``.
    ``data_extension`` is how many cells beyond its right boundary each
    worker's *local data* covers.
    """

    boundaries: tuple[int, ...]
    data_extension: int
    overlap: OverlapMode

    @property
    def num_workers(self) -> int:
        """Number of workers in the plan."""
        return len(self.boundaries) - 1

    def owner_of_cell(self, dim0_index: int) -> int:
        """Worker owning a cell (by its first-dimension index)."""
        for worker in range(self.num_workers):
            if dim0_index < self.boundaries[worker + 1]:
                return worker
        raise PartitionError(f"cell index {dim0_index} beyond grid ({self.boundaries[-1]})")

    def anchor_slab(self, worker: int) -> tuple[int, int]:
        """Anchor cell range ``[lo, hi)`` owned by a worker."""
        self._check_worker(worker)
        return self.boundaries[worker], self.boundaries[worker + 1]

    def data_range(self, worker: int) -> tuple[int, int]:
        """Dim-0 cell range of the worker's *local data* (with overlap)."""
        lo, hi = self.anchor_slab(worker)
        return lo, min(hi + self.data_extension, self.boundaries[-1])

    def covering_workers(self, dim0_index: int) -> tuple[int, ...]:
        """Workers whose *initial* local data covers a cell column.

        Under the overlap modes a boundary cell lives on several workers;
        hedged retransmits use this to pick an alternate server.  Data
        ranges only ever widen after adoption, so the static answer is a
        safe under-approximation of current coverage.
        """
        if not 0 <= dim0_index < self.boundaries[-1]:
            raise PartitionError(
                f"cell index {dim0_index} beyond grid ({self.boundaries[-1]})"
            )
        return tuple(
            w
            for w in range(self.num_workers)
            if self.boundaries[w] <= dim0_index
            < min(self.boundaries[w + 1] + self.data_extension, self.boundaries[-1])
        )

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self.num_workers:
            raise PartitionError(f"worker {worker} out of range [0, {self.num_workers})")


class OwnershipRouter:
    """Mutable cell-ownership map that survives worker loss.

    The static :class:`PartitionPlan` fixes the *initial* anchor slabs;
    the router tracks which live worker currently owns each dim-0 cell
    column, so remote cell requests keep routing correctly after the
    coordinator reassigns a crashed worker's slab.  Each worker's owned
    range stays contiguous: a dead run is handed to its adjacent live
    neighbors under a :class:`SuccessorPolicy`, and a run with no live
    neighbor becomes *lost* (owner ``None``).

    Reassignment is *batched*: an N-death event (crash storm, failure
    domain, fenced partition group) is resolved in one
    :meth:`reassign_batch` pass whose cost is O(lost cells) — the
    per-worker owned ranges are tracked incrementally, so nothing scans
    the full cell axis or the worker list per death.
    """

    _LOST = -1

    def __init__(self, plan: PartitionPlan) -> None:
        self.plan = plan
        sizes = [
            plan.boundaries[w + 1] - plan.boundaries[w]
            for w in range(plan.num_workers)
        ]
        self._owners = np.repeat(np.arange(plan.num_workers), sizes)
        # Incrementally maintained views: per-worker contiguous range
        # (None once dead/empty) and the merged lost runs, so owned_range
        # and lost_slabs are O(1)/O(runs) instead of O(cells).
        self._ranges: list[tuple[int, int] | None] = [
            (plan.boundaries[w], plan.boundaries[w + 1])
            for w in range(plan.num_workers)
        ]
        self._lost: list[tuple[int, int]] = []

    def owner_of_cell(self, dim0_index: int) -> int | None:
        """Current owner of a cell column; ``None`` if its slab is lost."""
        if not 0 <= dim0_index < len(self._owners):
            raise PartitionError(
                f"cell index {dim0_index} beyond grid ({len(self._owners)})"
            )
        owner = int(self._owners[dim0_index])
        return None if owner == self._LOST else owner

    def owned_range(self, worker: int) -> tuple[int, int] | None:
        """Contiguous ``[lo, hi)`` anchor range currently owned, or ``None``."""
        return self._ranges[worker]

    def lost_slabs(self) -> tuple[tuple[int, int], ...]:
        """Contiguous anchor ranges that no live worker owns."""
        return tuple(self._lost)

    def reassign_batch(
        self,
        dead: Iterable[int],
        policy: SuccessorPolicy = SuccessorPolicy.SPLIT,
        alive: Callable[[int], bool] | None = None,
    ) -> list[tuple[int, tuple[int, int], tuple[int, ...]]]:
        """Resolve a batch of deaths in one O(lost cells) pass.

        ``dead`` are the workers declared failed in this batch; ``alive``
        (optional) vetoes candidate successors the caller knows are
        crashed but not yet declared, so adoption never round-trips
        through a doomed worker.  The dead ranges — merged with any
        adjacent already-lost cells — form maximal contiguous *runs*;
        each run is handed to adjacent live neighbors per ``policy``, or
        recorded as lost when no neighbor survives.

        Returns ``[(adopter, (lo, hi), sources), ...]`` in deterministic
        (run, left-to-right) order, where ``sources`` names the dead
        workers whose cells the range contains — the coordinator uses it
        to decide re-seeding per range.
        """
        dead_list = sorted(set(dead))
        ncells = len(self._owners)

        def _is_live(w: int) -> bool:
            if w in dead_list or self._ranges[w] is None:
                return False
            return alive(w) if alive is not None else True

        # Collect the dying ranges (skipping workers that own nothing).
        dying: list[tuple[int, int, int]] = []  # (lo, hi, worker)
        for w in dead_list:
            rng = self._ranges[w]
            if rng is None:
                continue
            dying.append((rng[0], rng[1], w))
            self._ranges[w] = None
        if not dying:
            return []
        dying.sort()

        # Merge into maximal runs: adjacent dying ranges coalesce, and a
        # run absorbs already-lost cells touching either edge (so a
        # cascade keeps lost accounting exact).
        runs: list[tuple[int, int, list[int]]] = []
        for lo, hi, w in dying:
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi, runs[-1][2] + [w])
            else:
                runs.append((lo, hi, [w]))

        assignments: list[tuple[int, tuple[int, int], tuple[int, ...]]] = []
        for lo, hi, sources in runs:
            lo, hi = self._absorb_lost(lo, hi)
            left = int(self._owners[lo - 1]) if lo > 0 else self._LOST
            right = int(self._owners[hi]) if hi < ncells else self._LOST
            if left != self._LOST and not _is_live(left):
                left = self._LOST
            if right != self._LOST and not _is_live(right):
                right = self._LOST
            parts = self._apportion(lo, hi, left, right, policy)
            if not parts:
                self._owners[lo:hi] = self._LOST
                self._record_lost(lo, hi)
                continue
            src = tuple(sources)
            for adopter, (alo, ahi) in parts:
                self._owners[alo:ahi] = adopter
                olo, ohi = self._ranges[adopter]  # adjacent, hence not None
                self._ranges[adopter] = (min(olo, alo), max(ohi, ahi))
                assignments.append((adopter, (alo, ahi), src))
        return assignments

    def _apportion(
        self, lo: int, hi: int, left: int, right: int, policy: SuccessorPolicy
    ) -> list[tuple[int, tuple[int, int]]]:
        """Split one lost run between its live neighbors per the policy."""
        if left == self._LOST and right == self._LOST:
            return []
        if left == self._LOST:
            return [(right, (lo, hi))]
        if right == self._LOST:
            return [(left, (lo, hi))]
        if policy is SuccessorPolicy.SPLIT:
            mid = (lo + hi + 1) // 2
            return [(left, (lo, mid)), (right, (mid, hi))]
        if policy is SuccessorPolicy.LEFT:
            return [(left, (lo, hi))]
        if policy is SuccessorPolicy.RIGHT:
            return [(right, (lo, hi))]
        # BALANCE: whole run to the smaller neighbor, ties to the left.
        lsize = self._range_size(left)
        rsize = self._range_size(right)
        return [(left if lsize <= rsize else right, (lo, hi))]

    def _range_size(self, worker: int) -> int:
        rng = self._ranges[worker]
        return 0 if rng is None else rng[1] - rng[0]

    def _absorb_lost(self, lo: int, hi: int) -> tuple[int, int]:
        """Widen a run over already-lost slabs touching its edges."""
        kept: list[tuple[int, int]] = []
        for llo, lhi in self._lost:
            if lhi == lo:
                lo = llo
            elif llo == hi:
                hi = lhi
            else:
                kept.append((llo, lhi))
        self._lost = kept
        return lo, hi

    def _record_lost(self, lo: int, hi: int) -> None:
        """Insert a lost run, merging with touching neighbors, kept sorted."""
        merged = [(lo, hi)]
        for llo, lhi in self._lost:
            mlo, mhi = merged[0]
            if lhi == mlo:
                merged[0] = (llo, mhi)
            elif mhi == llo:
                merged[0] = (mlo, lhi)
            else:
                merged.append((llo, lhi))
        self._lost = sorted(merged)


def plan_partitions(
    grid: Grid,
    num_workers: int,
    overlap: OverlapMode | str = OverlapMode.NONE,
    max_window_length_dim0: int | None = None,
    cell_weights: np.ndarray | None = None,
    skew: float = 0.0,
) -> PartitionPlan:
    """Choose slab boundaries and the data extension.

    ``cell_weights`` (shape = grid.shape, e.g. per-cell tuple counts from
    the sample) balances the slabs by data volume; by default slabs are
    equal in cells.  ``skew`` in [0, 1) deliberately imbalances the split:
    worker 0's share is scaled by ``1 + skew`` (the Section 6.7 imbalance
    experiment).

    ``max_window_length_dim0`` is required for the overlap modes — the
    paper notes full overlap "is possible only if shape-based conditions
    are known in advance".
    """
    overlap = OverlapMode(overlap) if not isinstance(overlap, OverlapMode) else overlap
    size0 = grid.shape[0]
    if num_workers < 1:
        raise PartitionError(f"need at least one worker, got {num_workers}")
    if num_workers > size0:
        raise PartitionError(
            f"cannot split {size0} cell columns among {num_workers} workers"
        )
    if not 0 <= skew < 1:
        raise PartitionError(f"skew must be in [0, 1), got {skew}")

    if overlap is OverlapMode.NONE:
        extension = 0
    else:
        if max_window_length_dim0 is None:
            raise PartitionError(
                f"{overlap.value} requires max_window_length_dim0 (shape "
                f"conditions must bound window length in advance)"
            )
        reach = max(0, max_window_length_dim0 - 1)
        extension = reach if overlap is OverlapMode.FULL else max(1, reach // 2)

    if cell_weights is None:
        weights = np.ones(size0, dtype=float)
    else:
        weights = np.asarray(cell_weights, dtype=float)
        if weights.shape != grid.shape:
            raise PartitionError(
                f"cell_weights shape {weights.shape} does not match grid {grid.shape}"
            )
        axes = tuple(range(1, grid.ndim))
        weights = weights.sum(axis=axes) if axes else weights

    shares = np.ones(num_workers, dtype=float)
    if skew > 0 and num_workers > 1:
        shares[0] = 1.0 + skew * num_workers
    targets = np.cumsum(shares / shares.sum()) * weights.sum()

    cumulative = np.cumsum(weights)
    boundaries = [0]
    for worker in range(num_workers - 1):
        cut = int(np.searchsorted(cumulative, targets[worker], side="left")) + 1
        cut = max(cut, boundaries[-1] + 1)
        cut = min(cut, size0 - (num_workers - 1 - worker))
        boundaries.append(cut)
    boundaries.append(size0)
    return PartitionPlan(tuple(boundaries), extension, overlap)
