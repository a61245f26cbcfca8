"""Shared workload plumbing: datasets, table building, database assembly.

A :class:`Dataset` bundles generated columns with the grid geometry and
ground-truth annotations (e.g. planted cluster footprints) that the
benchmark harness validates against.  :func:`make_database` applies a
physical placement and registers the resulting heap table with a fresh
simulated database — the step the paper performs by loading/clustering the
PostgreSQL table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..clock import SimClock
from ..core.grid import Grid
from ..core.window import Window
from ..costs import CostModel, DEFAULT_COST_MODEL
from ..sampling.source import TableSource
from ..storage.database import Database
from ..storage.placement import Placement, cluster_placement, order_rows
from ..storage.table import HeapTable, TableSchema

__all__ = ["Dataset", "make_table", "make_database"]


@dataclass
class Dataset:
    """Generated tuples plus the grid they are meant to be explored under.

    Attributes
    ----------
    name:
        Dataset label (becomes the table name).
    columns:
        Column name -> value array, all the same length, in generation
        order (no physical placement applied yet).
    schema:
        Table schema (identifies the coordinate columns).
    grid:
        The default exploration grid (queries may use others).
    clusters:
        Ground truth: planted cluster footprints as windows of ``grid``
        (empty for workloads without planted structure).
    meta:
        Free-form extras (per-cluster value levels, target flags, ...).
    """

    name: str
    columns: dict[str, np.ndarray]
    schema: TableSchema
    grid: Grid
    clusters: list[Window] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        """Number of generated tuples."""
        return int(len(next(iter(self.columns.values()))))

    def coordinates(self) -> np.ndarray:
        """``(n, ndim)`` coordinate matrix in generation order."""
        return np.column_stack([self.columns[c] for c in self.schema.coordinate_columns])


# id(dataset) -> {(placement, tuples_per_block, axis_dim, seed): source}.
# Kept beside the datasets rather than on them, so that a copy of a
# dataset is a new source; an entry leaves when its dataset is freed.
_SOURCES: dict[int, dict[tuple, TableSource]] = {}


def _source(dataset: Dataset, *key) -> TableSource:
    """The one source of ``dataset`` placed under ``key``."""
    sources = _SOURCES.get(id(dataset))
    if sources is None:
        sources = _SOURCES[id(dataset)] = {}
        weakref.finalize(dataset, _SOURCES.pop, id(dataset), None).atexit = False
    source = sources.get(key)
    if source is None:
        source = sources[key] = TableSource()
    return source


def make_table(
    dataset: Dataset,
    placement: Placement | str = Placement.CLUSTER,
    tuples_per_block: int = 8,
    axis_dim: int = 0,
    seed: int = 7,
) -> HeapTable:
    """Apply a physical placement and build the heap table.

    A cluster-placed table keeps the placement's cell directory, so it
    knows every row's cell under ``dataset.grid``.  Every table records
    its source — this dataset object under this placement, block size,
    ``axis_dim`` and ``seed`` — whose store of samples and objective
    grids lives while the dataset, or a table placed from it, does
    (``repro.sampling.source``).  A dataset must not change once it has
    been placed.
    """
    placement = Placement(placement)
    source = _source(dataset, placement, tuples_per_block, axis_dim, seed)
    coords = dataset.coordinates()
    directory = None
    if placement is Placement.CLUSTER:
        perm, directory = cluster_placement(coords, dataset.grid)
    else:
        perm = order_rows(placement, coords, grid=dataset.grid, axis_dim=axis_dim, seed=seed)
    ordered = {name: values[perm] for name, values in dataset.columns.items()}
    return HeapTable(
        dataset.name,
        dataset.schema,
        ordered,
        tuples_per_block=tuples_per_block,
        cell_directory=directory,
        source=source,
    )


def make_database(
    dataset: Dataset,
    placement: Placement | str = Placement.CLUSTER,
    tuples_per_block: int = 8,
    axis_dim: int = 0,
    buffer_fraction: float = 0.15,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    seed: int = 7,
    backend=None,
) -> Database:
    """A fresh simulated database holding the dataset under one placement.

    ``backend`` selects the storage substrate (instance, URL string such
    as ``"sqlite:dev.db"``, or ``None`` for the documented
    ``DATABASE_URL``-then-simulator precedence); simulated costs are
    identical whichever backend serves the bytes.
    """
    db = Database(
        cost_model=cost_model,
        clock=SimClock(),
        buffer_fraction=buffer_fraction,
        backend=backend,
    )
    db.register(
        make_table(
            dataset,
            placement,
            tuples_per_block=tuples_per_block,
            axis_dim=axis_dim,
            seed=seed,
        )
    )
    return db
