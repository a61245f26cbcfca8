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

Each function returns a permutation of row indices; the
:class:`~repro.storage.table.HeapTable` builder applies it to produce the
physical order.
"""

from __future__ import annotations

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
    "order_rows",
]


class Placement(Enum):
    """Named placement strategies (suffixes used in the paper's labels).

    ``STR`` is not in the paper: it orders tuples by a bulk-loaded
    (Sort-Tile-Recursive) R-tree instead of the insertion-built one,
    isolating how much of the ``-ind`` penalty comes from insertion-order
    leaf quality (an ablation).
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
    """STR-bulk-loaded R-tree leaf order (ablation against ``index_order``)."""
    coords = _as_coords(coords)
    tree = RTree.bulk_load_str(coords, max_entries=max_entries)
    order = np.asarray(tree.leaf_order(), dtype=np.int64)
    if order.shape[0] != coords.shape[0]:
        raise RuntimeError("STR leaf order lost rows — bulk-load bug")
    return order


def hilbert_order(coords: np.ndarray, order_bits: int = 12) -> np.ndarray:
    """Hilbert-curve order over the coordinate bounding box (``-H``)."""
    coords = _as_coords(coords)
    lows = coords.min(axis=0)
    highs = coords.max(axis=0)
    # Guard degenerate extents so quantization stays well-defined.
    spans = np.where(highs > lows, highs - lows, 1.0)
    return curve_order(coords, lows, lows + spans, order=order_bits)


def cluster_order(coords: np.ndarray, grid: Grid, shuffle_groups: bool = False, seed: int = 11) -> np.ndarray:
    """Group tuples by grid cell (``-clust``): same-region tuples contiguous.

    The paper's ``-clust`` clusters "tuples from the same part of the
    search area" together on disk; we use grid cells as the regions, in
    row-major order.  ``shuffle_groups=True`` additionally randomizes the
    group order ("no locality is enforced between the clusters") — a
    strictly worse variant kept for ablations.
    """
    coords = _as_coords(coords)
    if coords.shape[1] != grid.ndim:
        raise ValueError("coordinate dimensionality does not match the grid")
    flat_ids = cell_flat_ids(coords, grid)
    group_keys = flat_ids
    if shuffle_groups:
        rng = np.random.default_rng(seed)
        remap = rng.permutation(grid.num_cells)
        group_keys = remap[flat_ids]
    return np.argsort(group_keys, kind="stable")


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
        scaled = values - lo
        scaled /= grid.steps[dim]
        idx = scaled.astype(np.int64)
        np.clip(idx, 0, grid.shape[dim] - 1, out=idx)
        flat *= grid.shape[dim]
        flat += idx
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
        return cluster_order(coords, grid, seed=seed)
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
