"""Physical data placements (paper Section 6, "Data Placement Alternatives").

The paper evaluates four orderings of the on-disk tuple sequence:

* ``axis``   — sort by one coordinate (e.g. ``-x``, ``-dec``): windows hit
  pages dispersed across the whole file;
* ``index``  — cluster by the GiST/R-tree leaf order (``-ind``): reduced
  dispersion, but insertion-built R-trees give no ordering guarantee;
* ``hilbert`` — order along a Hilbert space-filling curve (``-H``);
* ``cluster`` — group tuples from the same region of the search area
  (``-clust``): per-cell (or per-generated-cluster) grouping with no
  enforced order between groups.

Two ablations outside the paper: ``random`` (a uniform permutation) and
``str``, the Sort-Tile-Recursive order — a sort that no tree is built for.

Each function returns a permutation of row indices; the
:class:`~repro.storage.table.HeapTable` builder applies it to produce the
physical order.

The cluster placement computes every row's grid cell to sort by it, so
it also returns what the sort leaves behind: the table's
:class:`CellDirectory`, one row count per cell of the placement grid
(DESIGN.md §15).  A table holding one answers "which cell is this row
in" under that grid from O(cells) integers instead of from float
coordinates; every other placement, and every other grid, computes
:func:`cell_flat_ids` from the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..core.grid import Grid
from .hilbert import curve_order
from .rtree import RTree

__all__ = [
    "Placement",
    "axis_order",
    "index_order",
    "hilbert_order",
    "cluster_order",
    "cluster_placement",
    "cluster_by_cell",
    "CellDirectory",
    "order_rows",
]


class Placement(Enum):
    """Named placement strategies (suffixes used in the paper's labels).

    ``STR`` is not in the paper: it orders tuples by the Sort-Tile-Recursive
    sort that packs a bulk-loaded R-tree, instead of the insertion-built
    tree's leaf order, isolating how much of the ``-ind`` penalty comes
    from insertion-order leaf quality (an ablation).
    """

    AXIS = "axis"
    INDEX = "index"
    HILBERT = "hilbert"
    CLUSTER = "cluster"
    RANDOM = "random"
    STR = "str"


def axis_order(coords: np.ndarray, primary_dim: int = 0) -> np.ndarray:
    """Sort rows by one coordinate (ties broken by the remaining dims)."""
    coords = _as_coords(coords)
    if not 0 <= primary_dim < coords.shape[1]:
        raise ValueError(f"primary_dim {primary_dim} out of range for {coords.shape[1]} dims")
    other = [d for d in range(coords.shape[1]) if d != primary_dim]
    keys = [coords[:, d] for d in reversed(other)] + [coords[:, primary_dim]]
    return np.lexsort(keys)


def index_order(coords: np.ndarray, max_entries: int = 64, seed: int = 7) -> np.ndarray:
    """R-tree leaf order after random-order insertion (the ``-ind`` case).

    Random insertion order mirrors real index builds over unordered loads
    and produces the moderate, non-guaranteed locality the paper observes.
    """
    coords = _as_coords(coords)
    n = coords.shape[0]
    rng = np.random.default_rng(seed)
    insert_order = rng.permutation(n)
    tree = RTree(coords.shape[1], max_entries=max_entries)
    for row in insert_order:
        tree.insert(tuple(coords[row]), int(row))
    order = np.asarray(tree.leaf_order(), dtype=np.int64)
    if order.shape[0] != n:
        raise RuntimeError("R-tree leaf order lost rows — index build bug")
    return order


def str_order(coords: np.ndarray, max_entries: int = 64) -> np.ndarray:
    """Sort-Tile-Recursive order (Leutenegger et al.; ablation against ``index_order``).

    Sort on the first coordinate, cut into ``ceil(sqrt(leaves))`` strips
    of equal row count, and sort each strip on the second coordinate.
    Packing this sequence ``max_entries`` rows per leaf gives an
    STR-loaded R-tree whose leaf order is this sequence, so no tree is
    built.  1-d input is a plain sort.
    """
    coords = _as_coords(coords)
    n, ndim = coords.shape
    by_x = np.argsort(coords[:, 0], kind="stable")
    if ndim == 1:
        return by_x
    strips = max(1, math.ceil(math.sqrt(math.ceil(n / max_entries))))
    rows_per_strip = math.ceil(n / strips)
    pieces = []
    for start in range(0, n, rows_per_strip):
        strip = by_x[start : start + rows_per_strip]
        pieces.append(strip[np.argsort(coords[strip, 1], kind="stable")])
    return np.concatenate(pieces)


def hilbert_order(coords: np.ndarray, order_bits: int = 12) -> np.ndarray:
    """Hilbert-curve order over the coordinate bounding box (``-H``)."""
    coords = _as_coords(coords)
    lows = coords.min(axis=0)
    highs = coords.max(axis=0)
    # Guard degenerate extents so quantization stays well-defined.
    spans = np.where(highs > lows, highs - lows, 1.0)
    return curve_order(coords, lows, lows + spans, order=order_bits)


def cluster_order(coords: np.ndarray, grid: Grid) -> np.ndarray:
    """Group tuples by grid cell (``-clust``): same-region tuples contiguous.

    The paper's ``-clust`` clusters "tuples from the same part of the
    search area" together on disk; we use grid cells as the regions, in
    row-major order.
    """
    return cluster_placement(coords, grid)[0]


def cluster_placement(coords: np.ndarray, grid: Grid) -> tuple[np.ndarray, "CellDirectory"]:
    """:func:`cluster_order` and the cell directory of the table it places."""
    coords = _as_coords(coords)
    if coords.shape[1] != grid.ndim:
        raise ValueError("coordinate dimensionality does not match the grid")
    return cluster_by_cell(cell_flat_ids(coords, grid), grid)


def cluster_by_cell(cells: np.ndarray, grid: Grid) -> tuple[np.ndarray, "CellDirectory"]:
    """Cluster rows whose flat cell ids (``-1`` outside the area) are known.

    Returns the stable sort of ``cells`` — rows outside the area first,
    then cell 0's rows, cell 1's, ... each run in input order — and the
    :class:`CellDirectory` of the rows in that order.
    """
    cells = np.asarray(cells, dtype=np.int64)
    # One count per cell, with the outside rows' -1 shifted into slot 0.
    counts = np.bincount(cells + 1, minlength=grid.num_cells + 1)
    directory = CellDirectory(grid.key, int(counts[0]), counts[1:])
    return np.argsort(cells, kind="stable"), directory


@dataclass(frozen=True, eq=False)
class CellDirectory:
    """Where each grid cell's rows sit in a cluster-placed table.

    The cluster placement stores rows outside the grid's area first, then
    each cell's rows contiguously in flat-id order.  So ``first`` (the
    first in-area row) and ``counts`` (rows per cell) fix every row's
    cell: row ``r`` lies in cell ``c`` exactly when ``ends[c - 1] <= r <
    ends[c]``, with ``ends = first + cumsum(counts)``.  ``grid_key`` is
    the placement grid's :attr:`~repro.core.grid.Grid.key`; a grid with
    the same key computes the same cells from the coordinates, because
    :func:`cell_flat_ids` reads nothing but the key's geometry.  The
    directory holds O(cells) integers and no per-row array.
    """

    grid_key: tuple
    first: int
    counts: np.ndarray
    ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ends = self.first + np.cumsum(self.counts, dtype=np.int64)
        object.__setattr__(self, "ends", ends)
        self.counts.setflags(write=False)
        ends.setflags(write=False)

    @property
    def num_rows(self) -> int:
        """Rows of the table this directory describes."""
        return int(self.ends[-1])

    def cell_ids(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Flat cell id of each of ``rows`` (all rows when ``None``); ``-1`` outside."""
        if rows is None:
            out = np.empty(self.num_rows, dtype=np.int64)
            out[: self.first] = -1
            out[self.first :] = np.repeat(np.arange(self.counts.size, dtype=np.int64), self.counts)
            return out
        rows = np.asarray(rows, dtype=np.int64)
        out = np.searchsorted(self.ends, rows, side="right")
        out[rows < self.first] = -1
        return out


def random_order(num_rows: int, seed: int = 13) -> np.ndarray:
    """A uniformly random permutation (worst-case placement, for ablations)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(num_rows).astype(np.int64)


def cell_flat_ids(coords: np.ndarray, grid: Grid) -> np.ndarray:
    """Vectorized grid-cell flat id per row (rows outside the area get -1)."""
    coords = _as_coords(coords)
    flat = np.zeros(coords.shape[0], dtype=np.int64)
    inside = np.ones(coords.shape[0], dtype=bool)
    for dim in range(grid.ndim):
        lo = grid.area[dim].lo
        hi = grid.area[dim].hi
        # One contiguous copy of the column, then passes that reuse their
        # buffers: row-sized temporaries cost more than the arithmetic.
        values = np.ascontiguousarray(coords[:, dim])
        inside &= values >= lo
        inside &= values < hi
        # Only rows outside the area (set to -1 below) can overflow to
        # +-inf here; an in-area value scales to at most the cell count.
        with np.errstate(over="ignore"):
            scaled = values - lo
            scaled /= grid.steps[dim]
        # Clamp before the cast: NaN, +-inf and far values would
        # overflow ``int64``.  ``fmin``/``fmax`` take NaN to the bound.
        np.fmin(scaled, grid.shape[dim] - 1, out=scaled)
        np.fmax(scaled, 0.0, out=scaled)
        flat *= grid.shape[dim]
        flat += scaled.astype(np.int64)
    flat[~inside] = -1
    return flat


def order_rows(
    placement: Placement | str,
    coords: np.ndarray,
    grid: Grid | None = None,
    axis_dim: int = 0,
    seed: int = 7,
) -> np.ndarray:
    """Dispatch to the named placement; returns a row permutation."""
    placement = Placement(placement) if not isinstance(placement, Placement) else placement
    if placement is Placement.AXIS:
        return axis_order(coords, primary_dim=axis_dim)
    if placement is Placement.INDEX:
        return index_order(coords, seed=seed)
    if placement is Placement.HILBERT:
        return hilbert_order(coords)
    if placement is Placement.CLUSTER:
        if grid is None:
            raise ValueError("cluster placement requires the grid")
        return cluster_order(coords, grid)
    if placement is Placement.RANDOM:
        return random_order(np.asarray(coords).shape[0], seed=seed)
    if placement is Placement.STR:
        return str_order(coords)
    raise ValueError(f"unknown placement {placement}")  # pragma: no cover


def _as_coords(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or coords.shape[0] == 0:
        raise ValueError("coords must be a non-empty (n_rows, ndim) array")
    return coords


__all__.append("random_order")
__all__.append("cell_flat_ids")
__all__.append("str_order")
