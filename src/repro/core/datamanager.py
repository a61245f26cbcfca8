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
and ``count`` aggregates — as O(2^d) summed-area-table lookups whenever
the tables are fresh (see its rebuild policy); real-valued ``sum``/``avg``
and the ``min``/``max`` extrema stay on O(window) slice reductions so
every value is bitwise identical to the naive reference in
``tests/naive_oracle.py`` (see kernels.py for the exactness contract).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Mapping, Sequence

import numpy as np

from ..sampling.estimators import ObjectiveGrids, build_objective_grids
from ..sampling.noise import NoiseModel
from ..sampling.stratified import CellSample
from ..storage.database import COUNT_KEY, Database
from .aggregates import CellStats
from .conditions import ContentObjective
from .grid import Grid
from .kernels import DataKernels
from .window import Window

__all__ = ["DataManager"]


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
        exact because ratios are stored with it).
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
            grids = build_objective_grids(
                self._sample_table, grid, sample, obj, metrics=database.metrics
            )
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
        self.metrics = None
        # Optional cross-query semantic cache (repro.serve); see attach_cache.
        self._cache = None
        self._cache_table_sig = None
        self._cache_grid_sig = None

    def attach_metrics(self, registry) -> None:
        """Route cache/read accounting into a registry (``None`` detaches)."""
        self.metrics = registry
        if registry is not None and registry.clock is None:
            registry.clock = self._db.clock

    def attach_cache(self, cache, table_sig, grid_sig) -> None:
        """Bind a shared cross-query semantic cache (``None`` detaches).

        ``cache`` is duck-typed (see ``repro.serve.SemanticCache``): it
        must offer ``consult(table_sig, grid_sig, flat_ids, require)``
        returning ``{flat_id: payload}`` and ``publish(table_sig,
        grid_sig, items)``.  Once attached, :meth:`read_window` consults
        the cache for unread cells before charging DBMS I/O and promotes
        every freshly read cell back into it.
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
        return self.kernels.is_read(window)

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
        AND avg(v) < b``) shares one reduction.
        """
        if not self.is_read(window):
            raise ValueError(f"window {window!r} has unread cells; read it first")
        values: dict[str, float] = {}
        for cond, label in conditions:
            value = values.get(label)
            if value is None:
                value = values[label] = self._reduce(cond.objective, window)
            if not cond.evaluate_value(value):
                return None
        return values

    def _reduce(self, objective: ContentObjective, window: Window) -> float:
        return self.kernels.reduce(objective, window)

    # -- reads -------------------------------------------------------------------------

    def unread_box(self, window: Window) -> Window | None:
        """Bounding window of the unread cells inside ``window``.

        ``None`` when everything is cached.  This is the single range the
        DBMS is asked for ("objective function values for non-cached cells
        belonging to the window in a single query").
        """
        box = self.box(window)
        unread = ~self.read_mask[box]
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
        if self._cache is not None:
            self._consult_cache(window)
        m = self.metrics
        if m is not None:
            requested = window.cardinality
            misses = int((~self.read_mask[self.box(window)]).sum())
            m.inc("dm.cell_requests", float(requested))
            m.inc("dm.cache_hit_cells", float(requested - misses))
            m.inc("dm.cache_miss_cells", float(misses))
        target = self.unread_box(window)
        if target is None:
            return None
        rect = target.rect(self.grid)
        with m.span("read", self._db.clock) if m is not None else nullcontext():
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

    def _consult_cache(self, window: Window) -> None:
        """Install shared-cache cells into this query's cache (lookaside).

        Runs before the DBMS read so cached cells shrink (or eliminate)
        the unread bounding box and are accounted as cache hits.  Cells
        are consulted in row-major order and installed without metrics —
        they are cache traffic, not peer shipments — with a single
        version bump for the whole batch.
        """
        box = self.box(window)
        unread = ~self.read_mask[box]
        if not unread.any():
            return
        flat_ids = [
            self.grid.flat_id(tuple(int(o) + l for o, l in zip(offsets, window.lo)))
            for offsets in zip(*np.nonzero(unread))
        ]
        found = self._cache.consult(
            self._cache_table_sig,
            self._cache_grid_sig,
            flat_ids,
            require=tuple(self._objectives),
            window=window,
        )
        if not found:
            return
        for flat_id in flat_ids:
            payload = found.get(flat_id)
            if payload is not None:
                self._install_payload(self.grid.index_of_flat(flat_id), payload)
        self.version += 1

    def _promote_to_cache(self, target: Window) -> None:
        """Publish every freshly read cell of ``target`` to the shared cache.

        Degraded cells are withheld — their aggregates lost tuples to
        quarantined pages and must not leak into other sessions.
        """
        items = []
        for idx in target.iter_cells():
            flat_id = self.grid.flat_id(idx)
            if flat_id in self.degraded_cells:
                continue
            items.append((flat_id, self.cell_payload(idx)))
        if items:
            self._cache.publish(
                self._cache_table_sig, self._cache_grid_sig, items
            )

    def _apply_scan(self, target: Window, arrays: tuple) -> None:
        box = self.box(target)
        # Default every cell in the box to "read and empty" ...
        self.read_mask[box] = True
        self.unread_count[box] = 0.0
        for key in self._objectives:
            self.eff_sum[key][box] = 0.0
            self.eff_min[key][box] = np.inf
            self.eff_max[key][box] = -np.inf
        # ... then scatter the cells that actually contained tuples, one
        # fancy assignment per objective, guarding against cells the scan
        # returned outside the target.
        unique_cells, _counts, per_key = arrays
        if not unique_cells.size:
            return
        idx = np.unravel_index(unique_cells, self.grid.shape)
        inside = np.ones(unique_cells.size, dtype=bool)
        for d in range(len(idx)):
            inside &= (idx[d] >= target.lo[d]) & (idx[d] < target.hi[d])
        keep = None if inside.all() else inside
        if keep is not None:
            idx = tuple(i[keep] for i in idx)
        for key in self._objectives:
            entry = per_key.get(key)
            if entry is None:
                continue
            sums, mins, maxs = entry
            if keep is not None:
                sums, mins, maxs = sums[keep], mins[keep], maxs[keep]
            self.eff_sum[key][idx] = sums
            self.eff_min[key][idx] = mins
            self.eff_max[key][idx] = maxs

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
        :attr:`blocks_read_cumulative`.  Any attached semantic cache is
        told to drop the old binding: its entries describe a table this
        manager no longer serves, and the adopted table's contents are
        not cell-for-cell equivalent to what was published.
        """
        self._retired_blocks_read += self._db.disk(self._table_name).blocks_read
        if self._cache is not None:
            self._cache.on_table_rebind(self._cache_table_sig)
            self._cache = None
            self._cache_table_sig = None
            self._cache_grid_sig = None
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
        overlays are captured.  The kernels rebuild lazily after restore.
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
        self._kernels = None  # rebuilt lazily against the restored arrays

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
