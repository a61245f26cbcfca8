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
from typing import TYPE_CHECKING, Mapping, Sequence

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
from .table import HeapTable

if TYPE_CHECKING:
    from ..sampling.estimators import ObjectiveGrids
    from ..sampling.source import TableSource
    from ..sampling.stratified import CellSample

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
        cost estimates).  What tests and ``materialize_cells`` read; the
        blocking baseline scatters ``cells_arrays`` directly.
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

    The offline estimation inputs of its tables — a sample per (table,
    sampler, grid geometry, fraction, seed) and the objective grids per
    (sample, objective) — live in the store of each table handle's
    :class:`~repro.sampling.source.TableSource`, shared by every database
    over one placed dataset; the catalog keeps the record of which inputs
    its own engines have taken (:meth:`sample`, :meth:`objective_grids`).

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
        # The offline inputs this database has taken (see sample /
        # objective_grids): (table name, sampler key) -> sample, and
        # id(sample) -> (sample, {objective: grids}); holding the sample
        # keeps its id from being reused while the entry lives.
        self._samples: dict[tuple, CellSample] = {}
        self._grids: dict[int, tuple[CellSample, dict[tuple, ObjectiveGrids]]] = {}
        # The store of a table whose handle carries no source, by name.
        self._private: dict[str, TableSource] = {}

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
        table, and hooks it into each disk's read path.
        """
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

    # -- offline estimation inputs -----------------------------------------------

    def sample(
        self,
        table_name: str,
        grid: Grid,
        fraction: float,
        seed: int,
        sampler: str = "stratified",
        shared=None,
        metrics=None,
    ) -> CellSample:
        """The precomputed sample of a table under a grid.

        Sampling is offline in the paper's protocol, so this charges no
        simulated time.  A sample this database took before is returned
        as is (counted as ``sample.cache_hits``).  Otherwise ``shared`` —
        a cross-session store offering ``sample_lookup`` /
        ``sample_publish``, such as ``repro.serve.SemanticCache`` — is
        consulted, then the store of the table's source (:meth:`inputs`),
        which draws the sample on its first use.  A stored sample records
        the construction counters its draw did, in ``metrics``
        (defaulting to this database's registry), and is published to
        ``shared`` as a drawn one would be.
        """
        if metrics is None:
            metrics = self.metrics
        key = (sampler, grid.key, fraction, seed)
        sample = self._samples.get((table_name, key))
        if sample is not None:
            if metrics is not None:
                metrics.inc("sample.cache_hits")
            return sample
        table = self.table(table_name)
        if shared is not None:
            sample = shared.sample_lookup(table, key)
        if sample is None:
            sample = self.inputs(table).sample(table, grid, key, metrics)
            if shared is not None:
                shared.sample_publish(table, key, sample)
        self._samples[table_name, key] = sample
        return sample

    def objective_grids(
        self,
        table: HeapTable,
        grid: Grid,
        sample: CellSample,
        objective: ContentObjective,
    ) -> ObjectiveGrids:
        """One objective's sample grids over ``sample``.

        ``table`` is the table the sample's rows index into.  Grids
        depend on the objective's expression and on whether its
        aggregate reads values, so those two key them; the store of the
        table's source builds them on their first use.
        """
        _, taken = self._grids.setdefault(id(sample), (sample, {}))
        key = (objective.key, objective.aggregate.needs_values)
        grids = taken.get(key)
        if grids is None:
            grids = taken[key] = self.inputs(table).objective_grids(
                table, grid, sample, objective, self.metrics
            )
        return grids

    def inputs(self, table) -> TableSource:
        """The store of offline inputs that serves ``table``.

        A placed table's handle carries its source (``table.source``),
        shared by every database over the same placed dataset; a handle
        without one — a reopened SQLite table, a resilient wrapper, whose
        every read is a fault-plan operation, or a hand-built table —
        gets a store private to this database.
        """
        source = table.source
        if source is None:
            source = self._private.get(table.name)
            if source is None:
                # Imported here: the sampling package reads tables through storage.
                from ..sampling.source import TableSource

                source = self._private[table.name] = TableSource()
        return source

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
        lost_rows: list[tuple[np.ndarray, np.ndarray]] = []
        if integ is not None and integ.quarantined:
            # Already-quarantined pages (earlier scans or scrub) are gone.
            scan, dropped, rows_dropped = _strip_blocks(table, scan, integ.quarantined)
            lost.extend(int(b) for b in dropped)
            lost_rows.append(rows_dropped)
        try:
            self._buffers[table_name].access(scan[0])
        except CorruptBlockError as err:
            scan, dropped, rows_dropped = _strip_blocks(table, scan, err.block_ids)
            lost.extend(int(b) for b in dropped)
            lost_rows.append(rows_dropped)
        blocks = scan[0]
        degraded = _degraded_cells(integ, table, grid, lost_rows)

        # The executor still inspects every tuple on the fetched pages.
        tuples_scanned = int(blocks.size) * table.tuples_per_block
        self.clock.advance(self.cost_model.tuples_s(tuples_scanned))
        if self.metrics is not None:
            self.metrics.inc("db.range_queries")
            self.metrics.inc("db.tuples_scanned", float(tuples_scanned))
            self.metrics.inc(f"db.backend_reads.{self.backend.name}")

        arrays = _aggregate_rows(table, grid, scan, columns, objectives)
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
        processed all windows in memory" (Section 6.1).  The read is
        charged as one sequential scan of every block; the tuples then
        cross the backend seam as one region scan of the grid's area.
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
        columns = _objective_columns(objectives)
        scan = table.scan_region(grid.area.lower, grid.area.upper, columns)
        integ = self._integrity.get(table_name)
        lost_blocks: tuple[int, ...] = ()
        lost_rows: list[tuple[np.ndarray, np.ndarray]] = []
        if integ is not None and integ.quarantined:
            # The sequential read touched every block: all quarantined
            # pages are lost, whether or not they hold in-area tuples.
            lost_blocks = tuple(sorted(integ.quarantined))
            scan, _dropped, rows_dropped = _strip_blocks(table, scan, integ.quarantined)
            lost_rows.append(rows_dropped)
        degraded = _degraded_cells(integ, table, grid, lost_rows)
        arrays = _aggregate_rows(table, grid, scan, columns, objectives)
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


def _objective_columns(objectives: Sequence[ContentObjective]) -> tuple[str, ...]:
    """Columns the aggregation of ``objectives`` will read, sorted."""
    names: set[str] = set()
    for objective in objectives:
        if objective.aggregate.needs_values:
            names |= objective.columns()
    return tuple(sorted(names))


def _aggregate_rows(
    table: HeapTable,
    grid: Grid,
    scan: tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]],
    columns: Sequence[str],
    objectives: Sequence[ContentObjective],
) -> tuple[np.ndarray, np.ndarray, dict[str, tuple]]:
    """Group scanned tuples by grid cell and reduce each objective per cell.

    ``scan`` is a region scan of ``table`` — ``(block_ids, rows,
    coordinates, values)`` in ascending row order, ``values`` aligned
    with ``columns`` (every column the objectives read).  Each row's cell
    comes from :meth:`~repro.storage.pages.BlockLayout.cell_ids`: the
    table's cell directory when ``grid`` placed it, else the scanned
    coordinates.  Returns ``(unique_cells, counts, per_key)``, the
    columnar form :class:`CellScan` carries.
    """
    _blocks, rows, coords, scanned = scan
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), {})
    if not len(rows):
        return empty
    flat = table.cell_ids(grid, rows, coords)
    values_of = dict(zip(columns, scanned))
    valid = flat >= 0
    if not valid.all():
        flat = flat[valid]
        values_of = {name: values[valid] for name, values in values_of.items()}
    if flat.size == 0:
        return empty

    # Group rows by cell; segment reductions via ``reduceat`` then
    # replace the per-row ``ufunc.at`` scatter (an interpreted loop) for
    # min/max, which are order-insensitive.  Sums stay on ``bincount``:
    # its strictly sequential input-order accumulation is the float
    # contract the golden traces pin, and ``add.reduceat`` sums pairwise.
    # A cluster-placed table's rows arrive grouped by cell already, and
    # then the stable sort is the identity and is skipped.
    if (flat[1:] >= flat[:-1]).all():
        order = None
        sorted_flat = flat
    else:
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
    boundary = np.empty(sorted_flat.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    unique_cells = sorted_flat[starts]
    counts = np.diff(np.append(starts, sorted_flat.size))
    inverse = np.cumsum(boundary) - 1
    if order is not None:
        group, inverse = inverse, np.empty_like(inverse)
        inverse[order] = group

    per_objective: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for objective in objectives:
        if not objective.aggregate.needs_values:
            continue
        key = objective.key
        if key in per_objective:
            continue
        values = np.broadcast_to(
            objective.expr.evaluate(values_of), flat.shape  # type: ignore[union-attr]
        ).astype(float)
        sums = np.bincount(inverse, weights=values, minlength=unique_cells.size)
        values_sorted = values if order is None else values[order]
        mins = np.minimum.reduceat(values_sorted, starts)
        maxs = np.maximum.reduceat(values_sorted, starts)
        per_objective[key] = (sums, mins, maxs)

    return unique_cells, counts, per_objective


def _strip_blocks(
    table: HeapTable,
    scan: tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]],
    bad: Sequence[int] | set,
) -> tuple[tuple, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Drop quarantined blocks (and their rows) from one region scan.

    ``scan`` is a ``scan_region`` result.  Returns ``(kept_scan,
    dropped_blocks, (dropped_rows, dropped_coords))`` — one row mask
    filters rows, coordinates and values alike, so they stay aligned;
    the dropped rows are the matching tuples this scan can no longer
    deliver.
    """
    blocks, rows, coords, values = scan
    bad_arr = np.fromiter((int(b) for b in bad), dtype=np.int64, count=len(bad))
    drop_mask = np.isin(blocks, bad_arr)
    dropped = blocks[drop_mask]
    if dropped.size == 0:
        return scan, dropped, (rows[:0], coords[:0])
    row_drop = np.isin(rows // table.tuples_per_block, dropped)
    keep = ~row_drop
    kept = (blocks[~drop_mask], rows[keep], coords[keep], tuple(v[keep] for v in values))
    return kept, dropped, (rows[row_drop], coords[row_drop])


def _degraded_cells(
    integ: BlockIntegrity | None,
    table: HeapTable,
    grid: Grid,
    lost: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, ...]:
    """Grid cells that lost tuples to stripped pages, recorded on ``integ``.

    ``lost`` holds the dropped ``(rows, coordinates)`` of each strip a
    scan made; a scan that stripped nothing degrades nothing.
    """
    if integ is None or not any(len(rows) for rows, _coords in lost):
        return ()
    rows = np.concatenate([rows for rows, _coords in lost])
    coords = np.concatenate([coords for _rows, coords in lost])
    flat = table.cell_ids(grid, rows, coords)
    degraded = tuple(int(c) for c in np.unique(flat[flat >= 0]))
    integ.record_degraded_cells(degraded)
    return degraded
