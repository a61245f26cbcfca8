"""Column-stored heap tables with block metadata.

A :class:`HeapTable` is the unit the simulated DBMS stores: named columns
(numpy arrays) in one physical row order, split into fixed-size blocks.
Alongside the data it keeps per-block MBRs over the coordinate columns —
exactly the information a bitmap index scan extracts from a GiST index
before touching the heap (the paper's range queries "result in a bitmap
index scan, reading the data pages determined during the scan").
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

__all__ = ["TableSchema", "HeapTable", "block_bounds", "intersecting_blocks"]


def block_bounds(
    coords: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block ``(mins, maxs)`` of ``coords``, blocks starting at rows ``starts``.

    Blocks are consecutive row runs: one segmented reduction per bound
    covers them all, and ``reduceat`` ends the last (possibly short)
    segment at the end of the array.  The reductions ignore NaN, so one
    NaN coordinate does not blank its block's MBR and hide the block's
    other rows from every scan; a block NaN in every row of a dimension
    keeps a NaN bound there.
    """
    return (
        np.fmin.reduceat(coords, starts, axis=0),
        np.fmax.reduceat(coords, starts, axis=0),
    )


def intersecting_blocks(
    min_cols: Sequence[np.ndarray],
    max_cols: Sequence[np.ndarray],
    lows: Sequence[float],
    highs: Sequence[float],
) -> np.ndarray:
    """Sorted ids of the blocks whose MBR intersects the half-open box.

    ``min_cols[d]`` / ``max_cols[d]`` hold every block's lower / upper
    bound in dimension ``d`` (the test runs one dimension at a time
    across all blocks, fastest over contiguous columns).  A block whose
    bound is NaN — every coordinate of that dimension NaN — matches
    nothing.  Every table handle's MBR prefilter is this one predicate.
    """
    if len(lows) != len(min_cols) or len(highs) != len(min_cols):
        raise ValueError("query box dimensionality mismatch")
    mask = min_cols[0] < highs[0]
    mask &= max_cols[0] >= lows[0]
    for d in range(1, len(min_cols)):
        mask &= min_cols[d] < highs[d]
        mask &= max_cols[d] >= lows[d]
    return np.flatnonzero(mask).astype(np.int64, copy=False)


class TableSchema:
    """Schema: ordered column names with the coordinate columns flagged."""

    def __init__(self, columns: Sequence[str], coordinate_columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns}")
        missing = [c for c in coordinate_columns if c not in columns]
        if missing:
            raise ValueError(f"coordinate columns not in schema: {missing}")
        if not coordinate_columns:
            raise ValueError("a table needs at least one coordinate column")
        self.columns = tuple(columns)
        self.coordinate_columns = tuple(coordinate_columns)

    @property
    def attribute_columns(self) -> tuple[str, ...]:
        """Non-coordinate columns (the measurement attributes)."""
        return tuple(c for c in self.columns if c not in self.coordinate_columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableSchema(columns={self.columns}, coords={self.coordinate_columns})"


class HeapTable:
    """An immutable column-store heap file with per-block MBRs.

    Parameters
    ----------
    name:
        Table name (for error messages and the SQL layer's catalog).
    schema:
        Column layout.
    columns:
        Mapping of column name -> 1-D numpy array; all must share a length.
        Arrays are stored in the *physical* order given (apply a placement
        permutation before constructing).
    tuples_per_block:
        Rows per block; determines the block count and thus all simulated
        I/O.
    """

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        columns: Mapping[str, np.ndarray],
        tuples_per_block: int = 64,
    ) -> None:
        if tuples_per_block <= 0:
            raise ValueError(f"tuples_per_block must be positive, got {tuples_per_block}")
        missing = [c for c in schema.columns if c not in columns]
        if missing:
            raise ValueError(f"missing column data: {missing}")
        lengths = {c: len(columns[c]) for c in schema.columns}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        num_rows = next(iter(lengths.values()))
        if num_rows == 0:
            raise ValueError("a heap table cannot be empty")

        self.name = name
        self.schema = schema
        self.tuples_per_block = tuples_per_block
        self._data = {c: np.ascontiguousarray(columns[c], dtype=float) for c in schema.columns}
        self._num_rows = num_rows
        self._num_blocks = math.ceil(num_rows / tuples_per_block)
        self._coords = np.column_stack(
            [self._data[c] for c in schema.coordinate_columns]
        )
        # Contiguous per-dimension coordinate columns: the bitmap scan
        # gathers these one dimension at a time, which beats a strided
        # 2-D fancy-index of ``_coords`` on the read hot path.
        self._coord_cols = tuple(self._data[c] for c in schema.coordinate_columns)
        self._block_mins, self._block_maxs = self._build_block_mbrs()
        # Same trick for the block MBRs: the bitmap prefilter compares
        # one dimension at a time across all blocks on every read.
        self._bmin_cols = tuple(
            np.ascontiguousarray(self._block_mins[:, d]) for d in range(self.ndim)
        )
        self._bmax_cols = tuple(
            np.ascontiguousarray(self._block_maxs[:, d]) for d in range(self.ndim)
        )

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Total tuples."""
        return self._num_rows

    @property
    def num_blocks(self) -> int:
        """Total blocks in the heap file."""
        return self._num_blocks

    @property
    def ndim(self) -> int:
        """Number of coordinate columns."""
        return len(self.schema.coordinate_columns)

    # -- column access ----------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Full column array in physical order (read-only view)."""
        try:
            view = self._data[name].view()
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns: {self.schema.columns}"
            ) from None
        view.setflags(write=False)
        return view

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Values of one column for the given physical row ids.

        The narrow row-access API of the storage-backend handle contract
        (see :mod:`repro.storage.backend`): callers that need a few rows
        ask for exactly those instead of slicing a full column, so a
        remote backend only ships what the caller touches.  ``rows`` may
        be unsorted and may contain duplicates; the result aligns with it
        position by position.
        """
        try:
            column = self._data[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns: {self.schema.columns}"
            ) from None
        return column[np.asarray(rows, dtype=np.int64)]

    def coordinates(self) -> np.ndarray:
        """``(num_rows, ndim)`` coordinate matrix in physical order (cached)."""
        return self._coords

    def coordinates_of(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), ndim)`` coordinate rows for the given row ids."""
        return self._coords[np.asarray(rows, dtype=np.int64)]

    def block_mbrs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-block coordinate MBRs as ``(mins, maxs)`` arrays.

        Shape ``(num_blocks, ndim)`` each — the BRIN-style metadata the
        bitmap prefilter runs on, exposed for backends that persist it.
        """
        return self._block_mins, self._block_maxs

    def block_rows(self, block_id: int) -> slice:
        """Physical row slice stored in the given block."""
        if not 0 <= block_id < self._num_blocks:
            raise ValueError(f"block {block_id} out of range [0, {self._num_blocks})")
        start = block_id * self.tuples_per_block
        return slice(start, min(start + self.tuples_per_block, self._num_rows))

    def rows_of_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Physical row indices contained in the given blocks (vectorized).

        ``block_ids`` is expected sorted ascending and duplicate-free
        (the bitmap scan's output).
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        tpb = self.tuples_per_block
        first = int(block_ids[0])
        last = int(block_ids[-1])
        if last - first + 1 == block_ids.size:
            # Contiguous run of blocks: one arange instead of repeat/cumsum.
            return np.arange(
                first * tpb, min(last * tpb + tpb, self._num_rows), dtype=np.int64
            )
        starts = block_ids * tpb
        counts = np.minimum(starts + tpb, self._num_rows) - starts
        total = int(counts.sum())
        cum = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        return np.repeat(starts, counts) + offsets

    # -- bitmap "index scan" -----------------------------------------------------

    def blocks_intersecting(self, lows: Sequence[float], highs: Sequence[float]) -> np.ndarray:
        """Sorted block ids whose MBR intersects the half-open box.

        A cheap prefilter over the exact bitmap (see
        :meth:`blocks_matching`); the MBRs are what a BRIN-style index
        would hold.
        """
        return intersecting_blocks(self._bmin_cols, self._bmax_cols, lows, highs)

    def blocks_matching(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact bitmap-index scan: pages holding >= 1 matching tuple.

        This mirrors a GiST bitmap scan over point data: the index knows
        the exact matching tuples, so only pages that contain at least one
        are fetched.  Under an axis ordering this creates the scattered
        "holes" responsible for the paper's seek-dominated reads.

        Returns ``(block_ids, matching_rows)`` — both sorted.
        """
        candidates = self.blocks_intersecting(lows, highs)
        if candidates.size == 0:
            return candidates, np.empty(0, dtype=np.int64)
        rows = self.rows_of_blocks(candidates)
        # Filter dimension by dimension so later gathers only touch the
        # surviving rows (the first dimension is usually the selective
        # one under an axis ordering).
        for d, col in enumerate(self._coord_cols):
            vals = col[rows]
            m = (vals >= lows[d]) & (vals < highs[d])
            if not m.all():
                rows = rows[m]
        matching = rows
        # ``rows`` ascends, so the block ids of ``matching`` are already
        # sorted — deduplicate by run boundaries instead of re-sorting.
        bids = matching // self.tuples_per_block
        if bids.size:
            keep = np.empty(bids.size, dtype=bool)
            keep[0] = True
            np.not_equal(bids[1:], bids[:-1], out=keep[1:])
            bids = bids[keep]
        return bids, matching

    def scan_region(
        self,
        lows: Sequence[float],
        highs: Sequence[float],
        columns: Sequence[str] = (),
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """One region scan: the bitmap scan plus what aggregation reads.

        Returns ``(block_ids, rows, coordinates, values)``: the first two
        are :meth:`blocks_matching`'s, ``coordinates`` is
        ``coordinates_of(rows)`` and ``values`` holds ``gather(c, rows)``
        for each requested column, in request order (a name may repeat,
        and may be a coordinate column).  A remote backend answers all of
        it in one read of the candidate blocks instead of one round trip
        per piece.
        """
        block_ids, rows = self.blocks_matching(lows, highs)
        values = tuple(self.gather(name, rows) for name in columns)
        return block_ids, rows, self._coords[rows], values

    def _build_block_mbrs(self) -> tuple[np.ndarray, np.ndarray]:
        starts = np.arange(0, self._num_rows, self.tuples_per_block)
        return block_bounds(self._coords, starts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeapTable({self.name!r}, rows={self._num_rows}, "
            f"blocks={self._num_blocks}x{self.tuples_per_block})"
        )
