"""Stratified sampling over grid cells (paper Section 6, "Stratified Sampling").

The paper samples each grid cell independently with SRS under a per-cell
budget ``t = n / m`` (total budget over cell count); cells holding fewer
than ``t`` tuples contribute everything and their unused budget is
redistributed among the remaining cells.  Each sampled tuple stores its
cell's sampling ratio so estimates can be scaled correctly — "the common
way to do this" (cf. congressional sampling / fundamental regions).

:class:`StratifiedSampler` implements exactly that budgeting (iterative
water-filling), and :class:`CellSample` is the resulting per-(table, grid)
artifact: sampled row ids, their cells, and per-cell true/sampled counts.
Sampling happens *offline* in the paper's protocol, so building a sample
advances no simulated time and reads the table arrays directly.

Each row's cell comes from the table handle's
:meth:`~repro.storage.pages.BlockLayout.cell_ids`: a table that the
sampling grid cluster-placed answers from its cell directory, reading no
coordinate; any other table computes the ids from its coordinates.  The
stratified draw then orders the in-area rows by ``(cell, random key)``
with one sort of the composite ``cell + key`` (:func:`cell_key_order`),
exact whenever the composites are distinct, and falls back to the
two-key ``lexsort`` when two of them tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import Grid
from ..storage.table import HeapTable

__all__ = ["CellSample", "StratifiedSampler", "cell_key_order", "uniform_sample"]


@dataclass(frozen=True)
class CellSample:
    """A stratified sample of one table under one grid.

    Attributes
    ----------
    rows:
        Physical row indices of sampled tuples (into the table arrays).
    cells:
        Flat cell id of each sampled tuple (aligned with ``rows``);
        ascending in a stratified sample, in row order in a uniform one.
    cell_true_counts:
        Exact tuple count per cell, shape ``grid.shape`` — known because
        the stratified ratios are stored with the sample.
    cell_sample_counts:
        Sampled tuple count per cell, shape ``grid.shape``.

    The arrays are read-only: one sample is shared by every engine over
    its database, so an in-place write would corrupt later estimates.
    """

    rows: np.ndarray
    cells: np.ndarray
    cell_true_counts: np.ndarray
    cell_sample_counts: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.rows, self.cells, self.cell_true_counts, self.cell_sample_counts):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        """Number of sampled tuples."""
        return int(self.rows.size)

    def ratios(self) -> np.ndarray:
        """Per-cell sampling ratio (`sampled / true`, 1.0 for empty cells)."""
        true = self.cell_true_counts
        out = np.ones_like(true, dtype=float)
        nonzero = true > 0
        out[nonzero] = self.cell_sample_counts[nonzero] / true[nonzero]
        return out


class StratifiedSampler:
    """Budgeted per-cell SRS with redistribution of unused budget."""

    def __init__(self, fraction: float = 0.01, seed: int = 17) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.seed = seed

    def sample(
        self, table: HeapTable, grid: Grid, metrics=None, cells: np.ndarray | None = None
    ) -> CellSample:
        """Draw the stratified sample for ``table`` under ``grid``.

        ``metrics`` (optional) records sample-construction counters;
        building is an offline step, so no simulated time is charged
        either way.  ``cells`` is ``table.cell_ids(grid)`` when the
        caller already holds it.
        """
        rows_inside, cells_inside, true_counts = _rows_by_cell(table, grid, cells)
        budget = max(1, int(round(self.fraction * rows_inside.size)))
        quotas = allocate_budget(true_counts, budget)

        # Random tie-break key, then order by (cell, key): the first
        # quota[c] rows of each cell's run form its SRS.
        keys = np.random.default_rng(self.seed).random(rows_inside.size)
        order = cell_key_order(cells_inside, keys)

        # Cell c's run starts after all smaller cells' rows; its picks are
        # the first quotas[c] positions of that run.
        starts = np.cumsum(true_counts) - true_counts
        before = np.cumsum(quotas) - quotas
        pick = np.arange(int(quotas.sum())) + np.repeat(starts - before, quotas)

        out = CellSample(
            rows=rows_inside[order[pick]],
            cells=np.repeat(np.arange(grid.num_cells, dtype=np.int64), quotas),
            cell_true_counts=true_counts.reshape(grid.shape),
            cell_sample_counts=quotas.reshape(grid.shape),
        )
        if metrics is not None:
            _record_sample_metrics(metrics, out)
        return out


def cell_key_order(cells: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.lexsort((keys, cells))``: positions by cell, then key, then position.

    ``cells`` are non-negative integer ids and ``keys`` lie in ``[0, 1)``,
    so ``cell + key`` orders pairs exactly as ``(cell, key)`` does before
    rounding, and rounding to float64 is monotone: it can merge two
    composites but never swap them.  When every rounded composite is
    distinct, one sort of them is therefore the lexsort order.  Any tie —
    equal keys in one cell, ``1 - 2**-53`` at the end of cell ``c``
    rounding onto ``0.0`` in cell ``c + 1``, or large ids leaving keys
    fewer bits — falls back to the two-key lexsort, which orders ties by
    position.
    """
    composite = cells + keys
    order = np.argsort(composite)
    ranked = composite[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.lexsort((keys, cells))
    return order


def _rows_by_cell(
    table: HeapTable, grid: Grid, cells: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows inside the grid's area, their flat cell ids, and per-cell counts.

    Tuples outside the search area cannot belong to any window, so both
    samplers exclude them from the budget and the sample.  ``cells``,
    when given, is ``table.cell_ids(grid)``.
    """
    flat = table.cell_ids(grid) if cells is None else cells
    inside = flat >= 0
    cells_inside = flat[inside]
    true_counts = np.bincount(cells_inside, minlength=grid.num_cells).astype(np.int64)
    return np.nonzero(inside)[0], cells_inside, true_counts


def allocate_budget(cell_counts: np.ndarray, budget: int) -> np.ndarray:
    """Water-fill a sample budget over cells.

    Each cell gets at most its own tuple count; the remaining budget is
    repeatedly spread evenly over cells that can still absorb it, exactly
    as the paper describes ("the remaining cell budget is distributed
    among other cells").
    """
    counts = np.asarray(cell_counts, dtype=np.int64)
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    total = int(counts.sum())
    if budget >= total:
        return counts.copy()

    quotas = np.zeros_like(counts)
    remaining = budget
    open_cells = counts > 0
    while remaining > 0 and open_cells.any():
        share = remaining // int(open_cells.sum())
        if share == 0:
            # Hand out the last few one by one, deterministically by index.
            quotas[np.nonzero(open_cells)[0][:remaining]] += 1
            break
        grant = np.minimum(counts - quotas, share) * open_cells
        quotas += grant
        remaining -= int(grant.sum())
        open_cells = quotas < counts
    return quotas


def _record_sample_metrics(metrics, sample: CellSample) -> None:
    """Charge sample-construction counters to an observability registry."""
    metrics.inc("sample.builds")
    metrics.inc("sample.rows", float(sample.size))
    metrics.inc(
        "sample.populated_cells", float(np.count_nonzero(sample.cell_sample_counts))
    )


def uniform_sample(
    table: HeapTable,
    grid: Grid,
    fraction: float = 0.01,
    seed: int = 17,
    metrics=None,
) -> CellSample:
    """Plain SRS over the whole table (the ablation baseline to stratified).

    Returned in the same :class:`CellSample` shape; per-cell true counts
    are still exact (the comparison isolates *value* estimation quality).
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
    rows_inside, cells_inside, true_counts = _rows_by_cell(table, grid)
    rng = np.random.default_rng(seed)
    budget = max(1, int(round(fraction * rows_inside.size)))
    pick = rng.choice(rows_inside.size, size=min(budget, rows_inside.size), replace=False)
    pick.sort()
    out = CellSample(
        rows=rows_inside[pick],
        cells=cells_inside[pick],
        cell_true_counts=true_counts.reshape(grid.shape),
        cell_sample_counts=np.bincount(cells_inside[pick], minlength=grid.num_cells)
        .reshape(grid.shape)
        .astype(np.int64),
    )
    if metrics is not None:
        _record_sample_metrics(metrics, out)
    return out
