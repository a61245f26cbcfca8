"""The Data Manager: cell cache, sample maintenance, and window reads.

Mirrors the worker component of the same name in the paper's architecture
(Section 5).  It owns, per query:

* **Caching** — objective-function values for every cell read so far; a
  window whose cells are all cached is processed without touching the
  DBMS.
* **Sample maintenance** — the stratified sample's per-cell summaries,
  used to estimate objective values and object counts for unread cells;
  estimates are *replaced by exact values* as reads happen ("we use a
  precomputed sample for the initial estimations and update these
  estimations during the execution as we read data", Section 4.2).
* **DBMS interaction** — a window read is one range-aggregate query over
  the bounding box of the window's unread cells.

Implementation note: all per-cell state lives in grid-shaped numpy arrays,
and every window query is served by :class:`~repro.core.kernels.DataKernels`:
the count-like ones — ``window_count``, ``unread_objects``, ``is_read``
and ``count`` aggregates — as O(2^d) summed-area-table lookups, a stale
table being refilled in place first (see its refill policy).  Real-valued
``sum``/``avg`` are O(window) sums in numpy's own pairwise order, added in
Python over a flat view of the ``eff_sum`` grid for small boxes, and the
``min``/``max`` extrema stay on numpy slice reductions, so every value is
bitwise identical to the naive reference in ``tests/naive_oracle.py``
(see kernels.py for the exactness contract).  The grids are only ever
written in place, which keeps the kernels' flat views current.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from ..sampling.estimators import ObjectiveGrids
from ..sampling.noise import NoiseModel
from ..sampling.stratified import CellSample
from ..storage.database import COUNT_KEY, Database
from .aggregates import CellStats
from .conditions import ContentObjective
from .grid import Grid
from .kernels import DataKernels
from .window import Window

__all__ = ["DataManager"]


@lru_cache(maxsize=16)
def _flat_index(shape: tuple[int, ...]) -> np.ndarray:
    """Row-major flat cell ids shaped like the grid (read-only, shared)."""
    index = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    index.flags.writeable = False
    return index


class DataManager:
    """Per-query cell cache and estimator over one table.

    Parameters
    ----------
    database / table_name:
        The simulated DBMS and the table to query.
    grid:
        The query grid; all cell state is shaped like it.
    objectives:
        Distinct content objectives of the query.
    sample:
        The precomputed stratified sample (its per-cell true counts are
        exact because ratios are stored with it).  Its per-objective
        grids are read through the database's store
        (:meth:`~repro.storage.database.Database.objective_grids`), built
        once per (sample, objective) and shared read-only; the manager's
        estimates start from private copies of them.
    noise:
        Optional estimation-error injection (Section 6.6); applied to
        window estimates while the window still has unread cells.
    """

    def __init__(
        self,
        database: Database,
        table_name: str,
        grid: Grid,
        objectives: Sequence[ContentObjective],
        sample: CellSample,
        noise: NoiseModel | None = None,
        sample_table=None,
    ) -> None:
        self._db = database
        self._table_name = table_name
        self._table = database.table(table_name)
        # The table the sample rows index into.  Distributed workers hold
        # only their partition locally but share the global sample, whose
        # row ids refer to the full table (Section 5: remote sample parts
        # are fetched at query start, offline).
        self._sample_table = sample_table if sample_table is not None else self._table
        self.grid = grid
        self.noise = noise
        self._objectives = {obj.key: obj for obj in objectives}

        shape = grid.shape
        self.read_mask = np.zeros(shape, dtype=bool)
        # Exact per-cell counts, known up front from the stored ratios.
        self.true_count = sample.cell_true_counts.astype(float)
        # Objects not yet read from disk, per cell (drives the cost term).
        self.unread_count = self.true_count.copy()

        self._grids: dict[str, ObjectiveGrids] = {}
        self.eff_sum: dict[str, np.ndarray] = {}
        self.eff_min: dict[str, np.ndarray] = {}
        self.eff_max: dict[str, np.ndarray] = {}
        for key, obj in self._objectives.items():
            grids = database.objective_grids(self._sample_table, grid, sample, obj)
            self._grids[key] = grids
            self.eff_sum[key] = grids.scaled_sum.copy()
            self.eff_min[key] = grids.sample_min.copy()
            self.eff_max[key] = grids.sample_max.copy()

        self.version = 0
        self.reads = 0
        self.cells_read = 0
        self._retired_blocks_read = 0
        # Flat ids of grid cells whose aggregates lost tuples to
        # quarantined (unrepairable) heap pages; empty without an
        # integrity layer.  Feeds the execution report's degradation flag.
        self.degraded_cells: set[int] = set()

        self._kernels: DataKernels | None = None
        # Optional observability (repro.obs); see attach_metrics.
        self.attach_metrics(None)
        # Optional cross-query semantic cache (repro.serve); see attach_cache.
        self._cache = None
        self._cache_table_sig = None
        self._cache_grid_sig = None

    def attach_metrics(self, registry) -> None:
        """Route cache/read accounting into a registry (``None`` detaches)."""
        self.metrics = registry
        if registry is not None and registry.clock is None:
            registry.clock = self._db.clock
        # read_window's span, built once and re-entered per read.
        self._span_read = None if registry is None else registry.span("read", self._db.clock)

    def attach_cache(self, cache, table_sig, grid_sig) -> None:
        """Bind a shared cross-query semantic cache (``None`` detaches).

        ``cache`` is duck-typed (see ``repro.serve.SemanticCache``); cells
        cross it as arrays of row-major flat ids:

        * ``consult(table_sig, grid_sig, flat_ids, require=keys,
          window=window)`` returns ``(hit_ids, {key: (sums, mins,
          maxs)})`` — the requested cells it holds for every key in
          ``require``, values aligned with ``hit_ids``;
        * ``publish(table_sig, grid_sig, ids, counts, per_key)`` takes
          distinct ids, their object counts and ``{key: (sums, mins,
          maxs)}`` aligned with them.

        Once attached, :meth:`read_window` consults the cache for unread
        cells before charging DBMS I/O and promotes every freshly read
        (non-degraded) cell back into it.
        """
        self._cache = cache
        self._cache_table_sig = table_sig
        self._cache_grid_sig = grid_sig

    @property
    def kernels(self) -> DataKernels:
        """The summed-area-table kernel set over this manager's grids."""
        if self._kernels is None:
            self._kernels = DataKernels(self)
        return self._kernels

    # -- introspection -----------------------------------------------------------

    @property
    def clock(self):
        """The shared simulation clock."""
        return self._db.clock

    @property
    def database(self) -> Database:
        """The backing simulated DBMS."""
        return self._db

    @property
    def table_name(self) -> str:
        """Name of the queried table."""
        return self._table_name

    @property
    def total_objects(self) -> float:
        """``n``: the number of objects in the search area."""
        return float(self.true_count.sum())

    def objective(self, key: str) -> ContentObjective:
        """Objective registered under ``key``."""
        return self._objectives[key]

    def objective_grids(self, key: str) -> ObjectiveGrids:
        """The (initial) sample grids for an objective — used for eps."""
        return self._grids[key]

    def box(self, window: Window) -> tuple[slice, ...]:
        """Numpy slice tuple covering the window's cells."""
        return tuple(map(slice, window.lo, window.hi))

    def is_read(self, window: Window) -> bool:
        """Whether every cell of the window is cached."""
        return self.kernels.fully_read(window.lo, window.hi)

    # -- counts and cost inputs -----------------------------------------------------

    def window_count(self, window: Window) -> float:
        """Exact number of objects in the window."""
        return self.kernels.window_count(window)

    def unread_objects(self, window: Window) -> float:
        """``|w|_nc``: objects in the window's non-cached cells."""
        return self.kernels.unread_objects(window)

    # -- estimation --------------------------------------------------------------------

    def estimate(self, objective: ContentObjective, window: Window) -> float:
        """Estimated objective value for the window.

        Exact per-cell values are used where cells are cached; sample
        summaries elsewhere.  Fully-read windows return the exact value
        (and are never noise-perturbed).
        """
        value = self._reduce(objective, window)
        if self.noise is not None and not self.is_read(window):
            value = self.noise.perturb(window.lo, window.hi, value)
        return value

    def exact_value(self, objective: ContentObjective, window: Window) -> float:
        """Exact objective value; requires the window to be fully read."""
        if not self.is_read(window):
            raise ValueError(f"window {window!r} has unread cells; read it first")
        return self._reduce(objective, window)

    def exact_values(self, conditions, window: Window) -> dict[str, float] | None:
        """Exact validation of content conditions over a fully read window.

        ``conditions`` are ``(condition, repr(condition.objective))`` pairs
        in declaration order.  Returns ``{label: value}`` when every
        condition holds and ``None`` at the first one that fails.  The
        window is checked for unread cells once and each distinct
        objective is reduced once — an interval predicate (``avg(v) > a
        AND avg(v) < b``) shares one reduction.  The pass is compiled
        once per list (``DataKernels.validator``).
        """
        return self.kernels.validator(conditions)(window)

    def _reduce(self, objective: ContentObjective, window: Window) -> float:
        return self.kernels.reduce(objective, window)

    # -- reads -------------------------------------------------------------------------

    def unread_box(self, window: Window) -> Window | None:
        """Bounding window of the unread cells inside ``window``.

        ``None`` when everything is cached.  This is the single range the
        DBMS is asked for ("objective function values for non-cached cells
        belonging to the window in a single query").
        """
        return self._bounding_box(window, ~self.read_mask[self.box(window)])

    @staticmethod
    def _bounding_box(window: Window, unread: np.ndarray) -> Window | None:
        """Bounding window of the true cells of ``unread`` (shaped like ``window``)."""
        if not unread.any():
            return None
        coords = np.nonzero(unread)
        lo = tuple(int(c.min()) + window.lo[d] for d, c in enumerate(coords))
        hi = tuple(int(c.max()) + 1 + window.lo[d] for d, c in enumerate(coords))
        return Window(lo, hi)

    def read_window(self, window: Window):
        """Read the window's unread region from the DBMS.

        Updates the cache: every cell in the queried box becomes exact
        (empty cells included), and ``unread_count`` drops to zero there.
        Returns the :class:`~repro.storage.database.CellScan`, or ``None``
        when the window was fully cached (no DBMS call).
        """
        box = self.box(window)
        unread = ~self.read_mask[box]
        if self._cache is not None:
            self._consult_cache(window, box, unread)
        m = self.metrics
        if m is not None:
            requested = window.cardinality
            misses = int(np.count_nonzero(unread))
            m.inc("dm.cell_requests", float(requested))
            m.inc("dm.cache_hit_cells", float(requested - misses))
            m.inc("dm.cache_miss_cells", float(misses))
        target = self._bounding_box(window, unread)
        if target is None:
            return None
        rect = target.rect(self.grid)
        with self._span_read if m is not None else nullcontext():
            scan = self._db.range_cell_aggregates(
                self._table_name, self.grid, rect.lower, rect.upper,
                list(self._objectives.values()),
            )
        if m is not None:
            m.inc("dm.reads")
            m.inc("dm.cells_read", float(target.cardinality))
            m.histogram("dm.cells_per_read").observe(float(target.cardinality))
        self._apply_scan(target, scan.cells_arrays)
        if scan.degraded_cells:
            self.degraded_cells.update(scan.degraded_cells)
        self.version += 1
        self.reads += 1
        self.cells_read += target.cardinality
        if self._cache is not None:
            self._promote_to_cache(target)
        return scan

    def _consult_cache(self, window: Window, box: tuple, unread: np.ndarray) -> None:
        """Install shared-cache cells into this query's cache (lookaside).

        Runs before the DBMS read so cached cells shrink (or eliminate)
        the unread bounding box and are accounted as cache hits: hits
        are cleared from ``unread`` (the window's unread mask) in place.
        Cells are consulted in row-major order and installed without
        metrics — they are cache traffic, not peer shipments — with a
        single version bump for the whole batch.
        """
        flat_ids = _flat_index(self.grid.shape)[box][unread]
        if not flat_ids.size:
            return
        hit_ids, values = self._cache.consult(
            self._cache_table_sig,
            self._cache_grid_sig,
            flat_ids,
            require=tuple(self._objectives),
            window=window,
        )
        if not hit_ids.size:
            return
        self._scatter(hit_ids, values)
        if hit_ids.size == flat_ids.size:
            unread[...] = False
        else:
            # Both id lists ascend, so hits find their mask position by search.
            positions = np.flatnonzero(unread)[np.searchsorted(flat_ids, hit_ids)]
            unread.reshape(-1)[positions] = False
        self.version += 1

    def _promote_to_cache(self, target: Window) -> None:
        """Publish every freshly read cell of ``target`` to the shared cache.

        Degraded cells are withheld — their aggregates lost tuples to
        quarantined pages and must not leak into other sessions.
        """
        box = self.box(target)
        ids = _flat_index(self.grid.shape)[box].ravel()
        counts = self.true_count[box].ravel()
        per_key = {
            key: (self.eff_sum[key][box].ravel(), self.eff_min[key][box].ravel(),
                  self.eff_max[key][box].ravel())
            for key in self._objectives
        }
        if self.degraded_cells:
            keep = ~np.isin(ids, np.fromiter(self.degraded_cells, dtype=np.int64))
            if not keep.any():
                return
            ids, counts = ids[keep], counts[keep]
            per_key = {key: tuple(a[keep] for a in v) for key, v in per_key.items()}
        self._cache.publish(
            self._cache_table_sig, self._cache_grid_sig, ids, counts, per_key
        )

    def _scatter(self, flat_ids: np.ndarray, per_key: Mapping) -> None:
        """Mark cells ``flat_ids`` read with exact ``per_key`` summaries.

        ``per_key`` maps objective keys to ``(sums, mins, maxs)`` aligned
        with ``flat_ids``; an objective it lacks keeps its current
        arrays.  One fancy store per array through its flat view — the
        one write path of scans and cache hits.
        """
        self.read_mask.reshape(-1)[flat_ids] = True
        self.unread_count.reshape(-1)[flat_ids] = 0.0
        for key in self._objectives:
            entry = per_key.get(key)
            if entry is None:
                continue
            sums, mins, maxs = entry
            self.eff_sum[key].reshape(-1)[flat_ids] = sums
            self.eff_min[key].reshape(-1)[flat_ids] = mins
            self.eff_max[key].reshape(-1)[flat_ids] = maxs

    def _apply_scan(self, target: Window, arrays: tuple) -> None:
        box = self.box(target)
        # Default every cell in the box to "read and empty" ...
        self.read_mask[box] = True
        self.unread_count[box] = 0.0
        for key in self._objectives:
            self.eff_sum[key][box] = 0.0
            self.eff_min[key][box] = np.inf
            self.eff_max[key][box] = -np.inf
        # ... then scatter the cells that actually contained tuples,
        # guarding against cells the scan returned outside the target.
        unique_cells, _counts, per_key = arrays
        if not unique_cells.size:
            return
        idx = np.unravel_index(unique_cells, self.grid.shape)
        inside = np.ones(unique_cells.size, dtype=bool)
        for d in range(len(idx)):
            inside &= (idx[d] >= target.lo[d]) & (idx[d] < target.hi[d])
        if not inside.all():
            unique_cells = unique_cells[inside]
            per_key = {key: tuple(a[inside] for a in v) for key, v in per_key.items()}
        self._scatter(unique_cells, per_key)

    # -- distributed support -------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Name of the storage backend serving this manager's reads."""
        return self._db.backend.name

    @property
    def blocks_read_cumulative(self) -> int:
        """Disk blocks read across every table this manager has owned.

        A worker that adopts a crashed peer's slab rebinds to a larger
        table (:meth:`rebind_table`); this counter carries the retired
        tables' reads forward so per-worker I/O reporting stays whole.
        """
        current = self._db.disk(self._table_name).blocks_read
        return self._retired_blocks_read + current

    def rebind_table(self, table) -> None:
        """Swap the backing heap table for a larger one (anchor adoption).

        The per-cell cache (read masks, exact values) carries over
        unchanged — cached cells are exact, and the new table holds the
        same tuples for them — so nothing already read is re-read.  The
        old table's disk is retired; its read counter is preserved in
        :attr:`blocks_read_cumulative`.  Only distributed workers rebind,
        and their managers never attach a semantic cache.
        """
        self._retired_blocks_read += self._db.disk(self._table_name).blocks_read
        # Keep the *backend handle* register() returns, not the raw heap
        # table — under a real backend the two differ, and every later
        # read must go through the handle.
        self._table = self._db.register(table)
        self._table_name = table.name

    def mark_region_empty(self, window: Window) -> None:
        """Cache a region known to hold zero tuples as read-and-empty.

        Used for workers whose slab contains no data: every local cell
        is exact (empty) up front, so the worker quiesces without disk
        reads yet can still answer peers' cell requests immediately.
        """
        box = self.box(window)
        self.read_mask[box] = True
        self.unread_count[box] = 0.0
        for key in self._objectives:
            self.eff_sum[key][box] = 0.0
            self.eff_min[key][box] = np.inf
            self.eff_max[key][box] = -np.inf
        self.version += 1

    # -- checkpoint support ---------------------------------------------------------------

    def state(self) -> dict:
        """Exact cache state for a checkpoint, as independent snapshots.

        Every array is **copied** — the capture must stay byte-stable
        while the live manager keeps reading (the serving layer parks
        sessions on captures and resumes them many reads later), so
        handing out views or references here would be an aliasing
        hazard.  ``true_count`` and the initial sample grids are pure
        functions of the dataset and sample seed, so only the mutable
        overlays are captured.
        """
        return {
            "read_mask": self.read_mask.copy(),
            "unread_count": self.unread_count.copy(),
            "eff_sum": {k: v.copy() for k, v in self.eff_sum.items()},
            "eff_min": {k: v.copy() for k, v in self.eff_min.items()},
            "eff_max": {k: v.copy() for k, v in self.eff_max.items()},
            "version": self.version,
            "reads": self.reads,
            "cells_read": self.cells_read,
            "retired_blocks_read": self._retired_blocks_read,
            "degraded_cells": sorted(self.degraded_cells),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this manager."""
        self.read_mask[...] = state["read_mask"]
        self.unread_count[...] = state["unread_count"]
        for family, store in (
            ("eff_sum", self.eff_sum),
            ("eff_min", self.eff_min),
            ("eff_max", self.eff_max),
        ):
            for key, arr in state[family].items():
                store[key][...] = arr
        self.version = int(state["version"])
        self.reads = int(state["reads"])
        self.cells_read = int(state["cells_read"])
        self._retired_blocks_read = int(state["retired_blocks_read"])
        self.degraded_cells = {int(c) for c in state["degraded_cells"]}
        # Every grid was written in place, so the kernel set and its
        # compiled readers stay valid; only its tables must refill.
        if self._kernels is not None:
            self._kernels.invalidate()

    def is_cell_read(self, index: Sequence[int]) -> bool:
        """Whether a single cell is cached (used for remote requests)."""
        return bool(self.read_mask[tuple(index)])

    def cell_payload(self, index: Sequence[int]) -> dict[str, CellStats]:
        """Exact summaries of one cached cell, for shipping to a peer."""
        idx = tuple(index)
        if not self.read_mask[idx]:
            raise ValueError(f"cell {idx} is not cached yet")
        payload: dict[str, CellStats] = {
            COUNT_KEY: CellStats(int(self.true_count[idx]), float(self.true_count[idx]), 1.0, 1.0)
        }
        for key in self._objectives:
            payload[key] = CellStats(
                int(self.true_count[idx]),
                float(self.eff_sum[key][idx]),
                float(self.eff_min[key][idx]),
                float(self.eff_max[key][idx]),
            )
        return payload

    def install_cell(self, index: Sequence[int], payload: Mapping[str, CellStats]) -> None:
        """Install a peer-provided exact cell into the cache."""
        if self.metrics is not None:
            self.metrics.inc("dist.cells_installed")
        self._install_payload(tuple(index), payload)
        self.version += 1

    def _install_payload(self, idx: tuple[int, ...], payload: Mapping[str, CellStats]) -> None:
        """Mark ``idx`` read with the payload's exact summaries.

        No metrics, no version bump — callers decide how the install is
        accounted (peer shipment vs. semantic-cache traffic) and batch
        their own version bumps.
        """
        self.read_mask[idx] = True
        self.unread_count[idx] = 0.0
        for key in self._objectives:
            st = payload.get(key)
            if st is None:
                self.eff_sum[key][idx] = 0.0
                self.eff_min[key][idx] = np.inf
                self.eff_max[key][idx] = -np.inf
            else:
                self.eff_sum[key][idx] = st.total
                self.eff_min[key][idx] = st.minimum
                self.eff_max[key][idx] = st.maximum
