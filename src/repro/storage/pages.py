"""Block (page) layout of heap tables.

A heap table stores tuples in physical order, split into fixed-size blocks
of ``tuples_per_block`` rows (PostgreSQL's 8 KB pages hold a comparable
number of the paper's tuples).  :class:`BlockLayout` is the one place that
decides which rows live in which block; every table handle — the
simulator's :class:`~repro.storage.table.HeapTable`, the SQLite handle
and the resilience wrapper — inherits it, and with it the one answer to
"which grid cell is this row in" (:meth:`BlockLayout.cell_ids`).
:func:`coalesce_runs` groups block id sets into contiguous *runs*, the
unit at which the simulated disk charges seeks and the SQLite backend
issues range reads.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .placement import CellDirectory, cell_flat_ids

__all__ = ["BlockLayout", "coalesce_runs"]


class BlockLayout:
    """Identity, shape and row↔block arithmetic of one stored table.

    ``num_rows`` rows in physical order, ``tuples_per_block`` to a block;
    the last block may be short.  ``schema`` is the table's
    :class:`~repro.storage.table.TableSchema`.  ``cell_directory`` is the
    cluster placement's :class:`~repro.storage.placement.CellDirectory`
    of these rows, or ``None`` for any other placement.  ``source`` is
    the :class:`~repro.sampling.source.TableSource` the rows were placed
    from, whose store of samples and objective grids every handle on
    those rows shares, or ``None`` when the rows' origin is unknown.
    """

    def __init__(
        self,
        name: str,
        schema,
        tuples_per_block: int,
        num_rows: int,
        cell_directory: CellDirectory | None = None,
        source=None,
    ) -> None:
        if tuples_per_block <= 0:
            raise ValueError(f"tuples_per_block must be positive, got {tuples_per_block}")
        if cell_directory is not None and cell_directory.num_rows != num_rows:
            raise ValueError(
                f"cell directory covers {cell_directory.num_rows} rows, table has {num_rows}"
            )
        self.name = name
        self.schema = schema
        self.tuples_per_block = tuples_per_block
        self.num_rows = num_rows
        self.num_blocks = -(-num_rows // tuples_per_block)
        self.ndim = len(schema.coordinate_columns)
        self.cell_directory = cell_directory
        self.source = source

    def cell_ids(
        self, grid, rows: np.ndarray | None = None, coords: np.ndarray | None = None
    ) -> np.ndarray:
        """Flat cell id under ``grid`` of each of ``rows`` (all rows when ``None``).

        Rows outside the grid's area get ``-1``.  A table placed by this
        grid answers from its cell directory without reading a
        coordinate; otherwise the ids are computed from ``coords``, the
        rows' coordinates when the caller already holds them, else read
        through the handle (``coordinates`` / ``coordinates_of``).
        """
        directory = self.cell_directory
        if directory is not None and directory.grid_key == grid.key:
            return directory.cell_ids(rows)
        if rows is not None and not len(rows):
            return np.empty(0, dtype=np.int64)
        if coords is None:
            coords = self.coordinates() if rows is None else self.coordinates_of(rows)
        return cell_flat_ids(coords, grid)

    def block_rows(self, block_id: int) -> slice:
        """Physical row slice stored in the given block."""
        if not 0 <= block_id < self.num_blocks:
            raise ValueError(f"block {block_id} out of range [0, {self.num_blocks})")
        start = block_id * self.tuples_per_block
        return slice(start, min(start + self.tuples_per_block, self.num_rows))

    def rows_of_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Physical row ids contained in the given blocks (vectorized).

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
                first * tpb, min(last * tpb + tpb, self.num_rows), dtype=np.int64
            )
        starts = block_ids * tpb
        counts = np.minimum(starts + tpb, self.num_rows) - starts
        total = int(counts.sum())
        cum = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        return np.repeat(starts, counts) + offsets

    def blocks_of(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Distinct block ids of ascending row ids, in ascending order.

        The rows ascend, so their block ids do too: deduplicate by run
        boundaries instead of re-sorting.
        """
        bids = sorted_rows // self.tuples_per_block
        if bids.size:
            keep = np.empty(bids.size, dtype=bool)
            keep[0] = True
            np.not_equal(bids[1:], bids[:-1], out=keep[1:])
            bids = bids[keep]
        return bids

    def check_column(self, name: str) -> None:
        """Raise ``KeyError`` naming the schema when ``name`` is no column."""
        if name not in self.schema.columns:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns: {self.schema.columns}"
            )


def coalesce_runs(block_ids: Sequence[int] | np.ndarray) -> Iterator[tuple[int, int]]:
    """Group block ids into maximal contiguous runs ``(start, count)``.

    The simulated disk charges one seek per run plus one transfer per
    block, so run structure is what distinguishes clustered placements
    (few long runs) from dispersed ones (many single-block runs).

    Input is normalized: an empty sequence yields no runs, unsorted or
    duplicated ids are sorted and deduplicated first (a request reads a
    *set* of blocks), and negative ids are rejected.
    """
    ids = np.asarray(block_ids, dtype=np.int64)
    if ids.size == 0:
        return
    if ids.min() < 0:
        raise ValueError(f"block ids must be non-negative, got min {ids.min()}")
    if np.any(np.diff(ids) <= 0):
        ids = np.unique(ids)
    breaks = np.nonzero(np.diff(ids) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [ids.size - 1]))
    for s, e in zip(starts, ends):
        yield int(ids[s]), int(e - s + 1)
