"""Window enumeration over materialized cell aggregates.

This is the in-memory half of the complex-SQL baseline (paper Section 3):
once every cell's aggregates are computed (step 1, a GROUP BY over the
scan), every possible window is generated by combining adjacent cells
(step 2, the recursive CTEs) and filtered against the conditions (step 3).

The combination step scores every placement of one window shape in a
single array pass: ``count`` comes from the kernels' summed-area table
(``SummedAreaTable.placement_sums``, 2^n shifted slices of the prefix
array; integer counts are exact there), ``sum`` and ``avg``'s sum from
``sliding_reduce`` over the cells' sums — numpy's slice sum of the
window's cells, the one definition of a real window sum the search uses
too (DESIGN.md §8) — and ``min``/``max`` from ``sliding_reduce`` over the
±inf-filled cell grids.  Only qualifying placements become windows.

The enumeration respects the shape bounds implied by the conditions, as a
competent SQL author would push those predicates into the recursive step;
``pushdown=False`` generates every window of the grid instead (the naive
CTE, an ablation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.aggregates import CellStats
from ..core.conditions import ContentObjective
from ..core.grid import Grid
from ..core.kernels import SummedAreaTable, sliding_reduce
from ..core.query import ResultWindow, SWQuery
from ..core.window import Window
from ..storage.database import COUNT_KEY

__all__ = [
    "CellGrids",
    "materialize_cells",
    "enumerate_windows_filtered",
    "qualifying_masks",
]


@dataclass(frozen=True)
class CellGrids:
    """Materialized per-cell aggregates, shaped like the grid."""

    counts: np.ndarray
    sums: dict[str, np.ndarray]
    mins: dict[str, np.ndarray]
    maxs: dict[str, np.ndarray]

    @classmethod
    def from_arrays(
        cls, grid: Grid, cells_arrays: tuple, objective_keys: Sequence[str]
    ) -> "CellGrids":
        """Scatter a scan's columnar ``CellScan.cells_arrays`` into dense
        grid arrays; cells the scan did not return stay empty (count 0,
        sum 0, min +inf, max -inf)."""
        unique_cells, counts, per_key = cells_arrays
        out = cls(
            counts=np.zeros(grid.shape, dtype=float),
            sums={k: np.zeros(grid.shape, dtype=float) for k in objective_keys},
            mins={k: np.full(grid.shape, np.inf) for k in objective_keys},
            maxs={k: np.full(grid.shape, -np.inf) for k in objective_keys},
        )
        out.counts.flat[unique_cells] = counts
        for key in objective_keys:
            for dense, column in zip((out.sums, out.mins, out.maxs), per_key.get(key, ())):
                dense[key].flat[unique_cells] = column
        return out


def materialize_cells(
    grid: Grid,
    scan_cells: Mapping[int, Mapping[str, CellStats]],
    objective_keys: Sequence[str],
) -> CellGrids:
    """Spread a full-scan's per-cell stats (``CellScan.cells``) into dense
    grid arrays — :meth:`CellGrids.from_arrays` over the dict view.  The
    scan carries values only for aggregates that read them, so a key the
    cells lack (``count()``'s) keeps its empty grids."""
    stats = list(scan_cells.values())
    per_key = {
        key: tuple(
            np.array([getattr(cell[key], field) for cell in stats], dtype=float)
            for field in ("total", "minimum", "maximum")
        )
        for key in objective_keys
        if stats and key in stats[0]
    }
    counts = np.array([cell[COUNT_KEY].count for cell in stats], dtype=float)
    unique_cells = np.fromiter(scan_cells, dtype=np.int64, count=len(stats))
    return CellGrids.from_arrays(grid, (unique_cells, counts, per_key), objective_keys)


def enumerate_windows_filtered(
    query: SWQuery, cells: CellGrids, pushdown: bool = True
) -> tuple[list[ResultWindow], int]:
    """Generate + filter every window within the condition shape bounds.

    Returns the qualifying windows (times left at 0; the caller stamps
    them with the blocking completion time) in shape-major,
    ``lo``-lexicographic order, and the number of windows enumerated (the
    CPU-charge basis).  ``pushdown=False`` generates every window of the
    grid (the naive CTE), relying purely on the final filter.
    """
    grid = query.grid
    results: list[ResultWindow] = []
    enumerated = 0
    for shape, placements, mask, values in qualifying_masks(query, cells, pushdown):
        enumerated += placements
        if mask is None:
            continue
        for lo in zip(*(axis.tolist() for axis in np.nonzero(mask))):
            window = Window(lo, tuple(l + s for l, s in zip(lo, shape)))
            results.append(
                ResultWindow(
                    window=window,
                    bounds=window.rect(grid),
                    objective_values={k: v.item(lo) for k, v in values.items()},
                    time=0.0,
                )
            )
    return results, enumerated


def qualifying_masks(
    query: SWQuery, cells: CellGrids, pushdown: bool = True
) -> Iterator[tuple[tuple[int, ...], int, np.ndarray | None, dict[str, np.ndarray]]]:
    """Per shape of the enumerated space, in shape-major order:
    ``(shape, placements, mask, values)``.

    ``mask`` flags the placements (by ``lo``) that satisfy every
    condition, or is ``None`` when the shape conditions fail;
    ``values`` holds the exact objective values of every placement,
    keyed by ``repr(objective)``.  A caller that stops early scores no
    further shape.
    """
    grid = query.grid
    conditions = query.conditions
    if pushdown:
        max_lengths = conditions.max_lengths(grid.shape)
        min_lengths = conditions.min_lengths(grid.shape)
        max_card = conditions.max_cardinality(grid.shape)
    else:
        max_lengths = grid.shape
        min_lengths = (1,) * grid.ndim
        max_card = None

    count_sat = SummedAreaTable(cells.counts)
    for shape in _shapes(grid.shape, min_lengths, max_lengths, max_card):
        positions = tuple(s - l + 1 for s, l in zip(grid.shape, shape))
        # Shape conditions read only the lengths: one check per shape.
        if not conditions.shape_satisfied(Window((0,) * grid.ndim, shape)):
            yield shape, math.prod(positions), None, {}
            continue
        values: dict[str, np.ndarray] = {}
        mask = np.ones(positions, dtype=bool)
        for cond in conditions.content_conditions:
            name = repr(cond.objective)
            if name not in values:
                values[name] = _placement_values(cond.objective, shape, cells, count_sat)
            mask &= cond.op.test(values[name], cond.value)
        yield shape, math.prod(positions), mask, values


def _shapes(
    grid_shape: Sequence[int],
    min_lengths: Sequence[int],
    max_lengths: Sequence[int],
    max_card: int | None,
) -> Iterator[tuple[int, ...]]:
    spans = [
        range(min_lengths[d], min(max_lengths[d], grid_shape[d]) + 1)
        for d in range(len(grid_shape))
    ]
    for shape in itertools.product(*spans):
        if max_card is not None and math.prod(shape) > max_card:
            continue
        yield shape


def _placement_values(
    objective: ContentObjective,
    shape: tuple[int, ...],
    cells: CellGrids,
    count_sat: SummedAreaTable,
) -> np.ndarray:
    """Exact objective values of every placement of ``shape``."""
    agg = objective.aggregate.name
    key = objective.key
    if agg == "count":
        return count_sat.placement_sums(shape)
    if agg == "sum":
        return sliding_reduce(cells.sums[key], shape, "sum")
    if agg == "avg":
        count = count_sat.placement_sums(shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                count > 0, sliding_reduce(cells.sums[key], shape, "sum") / count, math.nan
            )
    if agg in ("min", "max"):
        grids = cells.mins if agg == "min" else cells.maxs
        value = sliding_reduce(grids[key], shape, agg)
        return np.where(np.isfinite(value), value, math.nan)
    raise ValueError(f"unsupported aggregate {agg!r}")  # pragma: no cover
