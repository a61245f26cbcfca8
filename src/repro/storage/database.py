"""The simulated DBMS front-end: range-aggregate queries over heap tables.

This is the PostgreSQL stand-in the SW layer talks to (paper Section 5,
"DBMS Interaction and I/O").  A window read becomes one *range-aggregate
query*: a bitmap index scan (block MBRs) determines the heap pages, the
buffer pool serves hits and charges misses to the simulated disk, and the
touched tuples are aggregated **per grid cell** (the SQL prepared statement
"is basically a range query, defining the window, with a GROUP BY clause to
compute individual cells").

The same front-end exposes the full sequential scan used by the complex-SQL
baseline (Section 3 / Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..clock import SimClock
from ..core.aggregates import CellStats
from ..core.conditions import ContentObjective
from ..core.grid import Grid
from ..costs import CostModel, DEFAULT_COST_MODEL
from ..errors import CorruptBlockError
from .backend import StorageBackend, grid_key, resolve_backend
from .buffer import BufferPool
from .disk import SimulatedDisk
from .integrity import BlockIntegrity, StorageFaultPlan
from .resilience import BackendFaultPlan, ResilienceConfig, ResilientBackend
from .placement import cell_flat_ids
from .table import HeapTable

__all__ = ["CellScan", "Database"]


@dataclass(frozen=True)
class CellScan:
    """Result of one range-aggregate query, grouped by grid cell.

    ``cells_arrays`` is the aggregation, columnar: ``(unique_cells,
    counts, per_key)`` with ``per_key`` mapping an objective's stable key
    to ``(sums, mins, maxs)`` arrays aligned with the ascending flat ids
    in ``unique_cells`` — the Data Manager's cache install scatters them
    directly.  Cells of the queried box with no tuples are absent —
    callers must treat absence as empty.

    ``lost_blocks`` / ``degraded_cells`` are non-empty only when the
    integrity layer quarantined unrepairable pages touched by this scan:
    their tuples are excluded (the storage analogue of
    ``mark_region_empty``) and the named cells may under-count.

    ``backend`` names the storage backend that served the bytes (the
    simulated cost accounting is identical whichever backend did).
    """

    cells_arrays: tuple[np.ndarray, np.ndarray, Mapping[str, tuple]]
    tuples_scanned: int
    blocks_touched: int
    elapsed_s: float
    lost_blocks: tuple[int, ...] = ()
    degraded_cells: tuple[int, ...] = ()
    backend: str = "simulator"

    @cached_property
    def cells(self) -> dict[int, dict[str, CellStats]]:
        """The same aggregation per cell, built on first access.

        Maps flat cell id -> per-objective :class:`CellStats`; the special
        key ``"__count__"`` always carries the tuple count of the cell
        (the paper computes this extra aggregate "for free" to refine
        cost estimates).  What the blocking baseline and tests read.
        """
        unique_cells, counts, per_key = self.cells_arrays
        out: dict[int, dict[str, CellStats]] = {}
        for i, cell in enumerate(unique_cells):
            entry: dict[str, CellStats] = {
                COUNT_KEY: CellStats(int(counts[i]), float(counts[i]), 1.0, 1.0)
            }
            for key, (sums, mins, maxs) in per_key.items():
                entry[key] = CellStats(int(counts[i]), float(sums[i]), float(mins[i]), float(maxs[i]))
            out[int(cell)] = entry
        return out


COUNT_KEY = "__count__"


class Database:
    """A catalog of heap tables, each with its own disk and buffer pool.

    Parameters
    ----------
    cost_model:
        Simulated-time constants shared by all tables.
    clock:
        The simulation clock; one per experiment.
    buffer_fraction:
        Buffer pool capacity as a fraction of each table's block count
        (the paper runs 2 GB shared buffers against 35 GB tables, i.e.
        roughly 6 %; our default of 0.15 is proportionally generous to the
        smaller simulated tables but still forces eviction).
    backend:
        The storage substrate serving table bytes: a
        :class:`~repro.storage.backend.StorageBackend` instance, a URL
        string (``"sqlite:dev.db"``), or ``None`` to resolve via the
        documented precedence (``DATABASE_URL``, else the simulator).
        Whichever backend serves the bytes, simulated I/O costs are
        charged identically — results must be byte-identical.
    """

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        clock: SimClock | None = None,
        buffer_fraction: float = 0.15,
        min_buffer_blocks: int = 16,
        backend: "StorageBackend | str | None" = None,
    ) -> None:
        if not 0 < buffer_fraction <= 1:
            raise ValueError(f"buffer_fraction must be in (0, 1], got {buffer_fraction}")
        self.cost_model = cost_model
        self.clock = clock if clock is not None else SimClock()
        self.backend = resolve_backend(backend)
        self._buffer_fraction = buffer_fraction
        self._min_buffer_blocks = min_buffer_blocks
        # Table *handles* from the backend (HeapTable itself under the
        # simulator); all read paths go through the handle contract.
        self._tables: dict[str, HeapTable] = {}
        self._disks: dict[str, SimulatedDisk] = {}
        self._buffers: dict[str, BufferPool] = {}
        # Optional observability (repro.obs); see attach_metrics.
        self.metrics = None
        # Optional integrity layer (see attach_integrity).
        self._integrity: dict[str, BlockIntegrity] = {}
        self._integrity_plan: StorageFaultPlan | None = None

    # -- catalog ----------------------------------------------------------------

    def register(self, table: HeapTable):
        """Add a table; its disk and buffer pool are created here.

        The table is loaded into the storage backend, and the backend's
        *handle* — what every later read goes through — is stored in the
        catalog and returned.  Under the simulator the handle is the
        table itself.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already registered")
        handle = self.backend.bind_table(table)
        self._tables[table.name] = handle
        disk = SimulatedDisk(table.num_blocks, self.cost_model, self.clock)
        capacity = max(self._min_buffer_blocks, int(table.num_blocks * self._buffer_fraction))
        self._disks[table.name] = disk
        self._buffers[table.name] = BufferPool(capacity, disk)
        if self.metrics is not None:
            disk.metrics = self.metrics
            self._buffers[table.name].metrics = self.metrics
        if self._integrity_plan is not None:
            self._build_integrity(table.name)
        return handle

    # -- observability -----------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Route storage-level counters into a metrics registry.

        Attaches the registry to this database and to every current (and
        future) disk and buffer pool; binds the registry to this
        database's clock if it has none, so profiling spans charge the
        right simulated time.  Pass ``None`` to detach everywhere —
        detached components pay nothing again.
        """
        self.metrics = registry
        if registry is not None and registry.clock is None:
            registry.clock = self.clock
        for disk in self._disks.values():
            disk.metrics = registry
        for buffer in self._buffers.values():
            buffer.metrics = registry
        for integrity in self._integrity.values():
            integrity.metrics = registry
        if getattr(self.backend, "resilient", False):
            self.backend.metrics = registry

    def attach_integrity(self, plan: StorageFaultPlan) -> None:
        """Enable checksummed reads under a (possibly zero-fault) plan.

        Builds a :class:`BlockIntegrity` layer — checksum table, fault
        injector, repair state machine — for every current and future
        table, and hooks it into each disk's read path.  Pass ``None`` to
        detach: reads stop verifying and pay nothing again.
        """
        if plan is None:
            self._integrity_plan = None
            self._integrity.clear()
            for disk in self._disks.values():
                disk.integrity = None
            return
        self._integrity_plan = plan
        for name in self._tables:
            self._build_integrity(name)

    def attach_trace(self, trace) -> None:
        """Route integrity events (CORRUPT/REPAIR/SCRUB) into a search trace."""
        for integrity in self._integrity.values():
            integrity.trace = trace
        if getattr(self.backend, "resilient", False):
            self.backend.trace = trace

    def attach_resilience(
        self,
        plan: BackendFaultPlan,
        config: ResilienceConfig | None = None,
    ) -> None:
        """Wrap the storage backend in the resilience layer.

        Every registered (and future) table handle is re-routed through a
        :class:`~repro.storage.resilience.ResilientBackend` — retry with
        simulated-time backoff, circuit breaker, simulator-mirror
        fallback — under the given seeded fault ``plan``.  Pass ``None``
        to detach: the original backend and its direct handles return.
        """
        if plan is None:
            if getattr(self.backend, "resilient", False):
                self.backend = self.backend.inner
                for name in self._tables:
                    self._tables[name] = self.backend.handle(name)
            return
        if getattr(self.backend, "resilient", False):
            self.backend = self.backend.inner
        wrapper = ResilientBackend(
            self.backend,
            plan,
            config,
            clock=self.clock,
            cost_model=self.cost_model,
            metrics=self.metrics,
        )
        for name, handle in self._tables.items():
            self._tables[name] = wrapper.adopt(name, handle)
        self.backend = wrapper

    def _build_integrity(self, name: str) -> None:
        integrity = BlockIntegrity(
            self._tables[name],
            self._disks[name],
            self._buffers[name],
            self._integrity_plan,
        )
        integrity.metrics = self.metrics
        self._integrity[name] = integrity
        self._disks[name].integrity = integrity

    def integrity(self, name: str) -> BlockIntegrity | None:
        """The integrity layer of a table (``None`` when not attached)."""
        self.table(name)
        return self._integrity.get(name)

    def table(self, name: str) -> HeapTable:
        """Look up a table's backend handle by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r}; registered: {sorted(self._tables)}") from None

    def disk(self, name: str) -> SimulatedDisk:
        """The simulated disk backing a table."""
        self.table(name)
        return self._disks[name]

    def buffer(self, name: str) -> BufferPool:
        """The buffer pool of a table."""
        self.table(name)
        return self._buffers[name]

    def table_names(self) -> tuple[str, ...]:
        """All registered table names."""
        return tuple(sorted(self._tables))

    # -- lifetime -------------------------------------------------------------------

    def close(self) -> None:
        """Close the storage backend (flushing what it buffered); idempotent."""
        self.backend.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries ------------------------------------------------------------------

    def range_cell_aggregates(
        self,
        table_name: str,
        grid: Grid,
        lows: Sequence[float],
        highs: Sequence[float],
        objectives: Sequence[ContentObjective],
    ) -> CellScan:
        """One prepared-statement call: range query + per-cell GROUP BY.

        Reads every heap page whose MBR intersects ``[lows, highs)``
        through the buffer pool, then aggregates in-range tuples by grid
        cell for each objective (plus the free tuple count).
        """
        table = self.table(table_name)
        start = self.clock.now
        # Exact bitmap index scan — only pages holding matching tuples —
        # fused with those tuples' coordinates and objective columns: one
        # backend call per region scan.
        columns = _objective_columns(objectives)
        scan = table.scan_region(lows, highs, columns)
        integ = self._integrity.get(table_name)
        lost: list[int] = []
        lost_rows = np.empty(0, dtype=np.int64)
        if integ is not None and integ.quarantined:
            # Already-quarantined pages (earlier scans or scrub) are gone.
            scan, dropped, rows_dropped = _strip_blocks(table, scan, integ.quarantined)
            lost.extend(int(b) for b in dropped)
            lost_rows = rows_dropped
        try:
            self._buffers[table_name].access(scan[0])
        except CorruptBlockError as err:
            scan, dropped, rows_dropped = _strip_blocks(table, scan, err.block_ids)
            lost.extend(int(b) for b in dropped)
            lost_rows = np.concatenate([lost_rows, rows_dropped])
        blocks, matching_rows, coords, values = scan

        degraded: tuple[int, ...] = ()
        if lost_rows.size and integ is not None:
            flat = cell_flat_ids(table.coordinates_of(lost_rows), grid)
            cells_lost = np.unique(flat[flat >= 0])
            degraded = tuple(int(c) for c in cells_lost)
            integ.record_degraded_cells(degraded)

        # The executor still inspects every tuple on the fetched pages.
        tuples_scanned = int(blocks.size) * table.tuples_per_block
        self.clock.advance(self.cost_model.tuples_s(tuples_scanned))
        if self.metrics is not None:
            self.metrics.inc("db.range_queries")
            self.metrics.inc("db.tuples_scanned", float(tuples_scanned))
            self.metrics.inc(f"db.backend_reads.{self.backend.name}")

        arrays = self._aggregate_rows(
            table,
            grid,
            matching_rows,
            lows,
            highs,
            objectives,
            scanned=(coords, dict(zip(columns, values))),
        )
        self._install_cell_summaries(table_name, grid, arrays[0])
        return CellScan(
            cells_arrays=arrays,
            tuples_scanned=tuples_scanned,
            blocks_touched=int(blocks.size),
            elapsed_s=self.clock.now - start,
            lost_blocks=tuple(sorted(set(lost))),
            degraded_cells=degraded,
            backend=self.backend.name,
        )

    def full_scan_cell_aggregates(
        self,
        table_name: str,
        grid: Grid,
        objectives: Sequence[ContentObjective],
    ) -> CellScan:
        """Sequential scan of the whole heap file with per-cell GROUP BY.

        This is the first stage of the complex-SQL baseline: "PostgreSQL
        did a single read of the data file, and then aggregated and
        processed all windows in memory" (Section 6.1).
        """
        table = self.table(table_name)
        start = self.clock.now
        try:
            self._disks[table_name].sequential_scan()
        except CorruptBlockError:
            pass  # quarantined inside the read; lost rows excluded below
        self.clock.advance(self.cost_model.tuples_s(table.num_rows))
        if self.metrics is not None:
            self.metrics.inc("db.full_scans")
            self.metrics.inc("db.tuples_scanned", float(table.num_rows))
        rows = np.arange(table.num_rows, dtype=np.int64)
        integ = self._integrity.get(table_name)
        lost_blocks: tuple[int, ...] = ()
        degraded: tuple[int, ...] = ()
        if integ is not None and integ.quarantined:
            lost_blocks = tuple(sorted(integ.quarantined))
            row_lost = np.isin(
                rows // table.tuples_per_block,
                np.asarray(lost_blocks, dtype=np.int64),
            )
            flat = cell_flat_ids(table.coordinates_of(rows[row_lost]), grid)
            degraded = tuple(int(c) for c in np.unique(flat[flat >= 0]))
            integ.record_degraded_cells(degraded)
            rows = rows[~row_lost]
        arrays = self._aggregate_rows(
            table, grid, rows, grid.area.lower, grid.area.upper, objectives
        )
        return CellScan(
            cells_arrays=arrays,
            tuples_scanned=table.num_rows,
            blocks_touched=table.num_blocks,
            elapsed_s=self.clock.now - start,
            lost_blocks=lost_blocks,
            degraded_cells=degraded,
            backend=self.backend.name,
        )

    # -- internals ------------------------------------------------------------------

    def _install_cell_summaries(
        self, table_name: str, grid: Grid, flat_ids: np.ndarray
    ) -> None:
        """Record the scanned cells as installed, dedup'd by the backend.

        Every backend dedups against an in-memory set and writes nothing
        here (a persisting one buffers until ``flush_installs``); the
        ``(installed, deduped)`` split feeds the ``db.cell_installs*``
        counters whose sum identity the auditor checks.
        """
        installed, deduped = self.backend.install_cells(table_name, grid_key(grid), flat_ids)
        if self.metrics is not None and installed + deduped:
            self.metrics.inc("db.cell_installs", float(installed + deduped))
            self.metrics.inc("db.cells_installed", float(installed))
            self.metrics.inc("db.cell_installs_deduped", float(deduped))

    def _aggregate_rows(
        self,
        table: HeapTable,
        grid: Grid,
        rows: np.ndarray,
        lows: Sequence[float],
        highs: Sequence[float],
        objectives: Sequence[ContentObjective],
        scanned: tuple[np.ndarray, dict[str, np.ndarray]] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, tuple]]:
        """Group ``rows`` by grid cell and reduce each objective per cell.

        Returns ``(unique_cells, counts, per_key)``, the columnar form
        :class:`CellScan` carries.  ``scanned`` is ``(coordinates,
        {column: values})`` of exactly ``rows`` when a region scan
        already fetched them — and thereby proved every row lies in the
        box; without it coordinates are looked up and filtered here, and
        columns gathered on demand.
        """
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), {})
        fetched: dict[str, np.ndarray] = {}
        if scanned is not None:
            if rows.size == 0:
                return empty
            in_rows = rows
            coords, fetched = scanned
            flat = cell_flat_ids(coords, grid)
        else:
            coords = table.coordinates_of(rows)
            mask = np.ones(rows.size, dtype=bool)
            for d in range(table.ndim):
                mask &= (coords[:, d] >= lows[d]) & (coords[:, d] < highs[d])
            in_rows = rows[mask]
            if in_rows.size == 0:
                return empty
            flat = cell_flat_ids(coords[mask], grid)
        valid = flat >= 0
        if not valid.all():
            in_rows = in_rows[valid]
            flat = flat[valid]
            fetched = {name: column[valid] for name, column in fetched.items()}
        if in_rows.size == 0:
            return empty

        # Group rows by cell with one stable argsort; segment reductions
        # via ``reduceat`` then replace the per-row ``ufunc.at`` scatter
        # (an interpreted loop) for min/max, which are order-insensitive.
        # Sums stay on ``bincount``: its strictly sequential input-order
        # accumulation is the float contract the golden traces pin, and
        # ``add.reduceat`` sums pairwise.
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        boundary = np.empty(sorted_flat.size, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        unique_cells = sorted_flat[starts]
        counts = np.diff(np.append(starts, sorted_flat.size))
        inverse = np.empty(sorted_flat.size, dtype=np.int64)
        inverse[order] = np.cumsum(boundary) - 1

        columns = _RowColumns(table, in_rows, fetched)
        per_objective: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for objective in objectives:
            if not objective.aggregate.needs_values:
                continue
            key = objective.key
            if key in per_objective:
                continue
            values = np.broadcast_to(
                objective.expr.evaluate(columns), in_rows.shape  # type: ignore[union-attr]
            ).astype(float)
            sums = np.bincount(inverse, weights=values, minlength=unique_cells.size)
            values_sorted = values[order]
            mins = np.minimum.reduceat(values_sorted, starts)
            maxs = np.maximum.reduceat(values_sorted, starts)
            per_objective[key] = (sums, mins, maxs)

        return unique_cells, counts, per_objective


def _objective_columns(objectives: Sequence[ContentObjective]) -> tuple[str, ...]:
    """Columns the aggregation of ``objectives`` will read, sorted."""
    names: set[str] = set()
    for objective in objectives:
        if objective.aggregate.needs_values:
            names |= objective.columns()
    return tuple(sorted(names))


class _RowColumns(dict):
    """Lazy per-row column gather for expression evaluation.

    Aggregation only touches the columns an objective expression
    references; gathering the rest of the schema up front is wasted work
    on the read hot path, so columns a region scan did not already fetch
    materialize on first access.
    """

    def __init__(self, table: HeapTable, rows: np.ndarray, fetched: Mapping[str, np.ndarray]) -> None:
        super().__init__(fetched)
        self._table = table
        self._rows = rows

    def __missing__(self, key: str) -> np.ndarray:
        values = self._table.gather(key, self._rows)
        self[key] = values
        return values


def _strip_blocks(
    table: HeapTable,
    scan: tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]],
    bad: Sequence[int] | set,
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Drop quarantined blocks (and their rows) from one region scan.

    ``scan`` is a ``scan_region`` result.  Returns ``(kept_scan,
    dropped_blocks, dropped_rows)`` — one row mask filters rows,
    coordinates and values alike, so they stay aligned; dropped rows
    are the matching tuples this scan can no longer deliver.
    """
    blocks, rows, coords, values = scan
    bad_arr = np.fromiter((int(b) for b in bad), dtype=np.int64, count=len(bad))
    drop_mask = np.isin(blocks, bad_arr)
    dropped = blocks[drop_mask]
    if dropped.size == 0:
        return scan, dropped, np.empty(0, dtype=np.int64)
    row_drop = np.isin(rows // table.tuples_per_block, dropped)
    keep = ~row_drop
    kept = (blocks[~drop_mask], rows[keep], coords[keep], tuple(v[keep] for v in values))
    return kept, dropped, rows[row_drop]
