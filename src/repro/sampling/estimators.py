"""Sample-based estimation of objective-function values (Section 4.2).

Given a :class:`~repro.sampling.stratified.CellSample` and a content
objective, :func:`build_objective_grids` evaluates the objective's
attribute expression over the sampled tuples and produces per-cell summary
grids, scaled by the stored stratified ratios:

* ``sum``  — per-cell scaled sum estimate (``sample_sum / ratio``),
* ``min`` / ``max`` — per-cell sample extrema (the natural plug-in
  estimators; they under/over-shoot, which is part of why the paper's
  search tolerates estimation error),
* cell counts are known exactly (ratios are stored with the sample).

Window-level estimates are box reductions over these grids; the Data
Manager overlays exact per-cell values as reads happen, so these grids are
only the *initial* state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.conditions import ContentCondition, ContentObjective
from ..core.grid import Grid
from ..storage.table import HeapTable
from .stratified import CellSample

__all__ = ["ObjectiveGrids", "build_objective_grids", "default_eps"]


@dataclass(frozen=True)
class ObjectiveGrids:
    """Per-cell sample summaries for one objective, shaped like the grid.

    ``scaled_sum`` is the ratio-corrected sum estimate; ``sample_min`` /
    ``sample_max`` hold ``+inf`` / ``-inf`` for cells without sampled
    tuples (the reduction identities).  ``value_min``/``value_max`` are the
    global sample extrema of the expression, used to derive the default
    benefit precision ``eps``.  The arrays are read-only: the grids are
    shared by every Data Manager over the same sample and objective.
    """

    scaled_sum: np.ndarray
    sample_min: np.ndarray
    sample_max: np.ndarray
    value_min: float
    value_max: float

    def __post_init__(self) -> None:
        for array in (self.scaled_sum, self.sample_min, self.sample_max):
            array.setflags(write=False)


def build_objective_grids(
    table: HeapTable,
    grid: Grid,
    sample: CellSample,
    objective: ContentObjective,
    metrics=None,
) -> ObjectiveGrids:
    """Evaluate one objective over the sample and grid the summaries.

    ``metrics`` (optional observability registry) counts grid builds and
    the sampled tuples scanned to produce them; estimation setup is
    offline, so no simulated time is involved.

    A stratified sample's ``cells`` ascend by construction (it is
    ``np.repeat(arange(cells), quotas)``), so its rows are grouped by
    cell as they stand; only a uniform sample, whose cells follow row
    order, is sorted by cell first.
    """
    if metrics is not None:
        _record_grid_metrics(metrics, sample)
    m = grid.num_cells
    shape = grid.shape
    scaled_sum = np.zeros(m, dtype=float)
    sample_min = np.full(m, np.inf)
    sample_max = np.full(m, -np.inf)
    value_min, value_max = np.inf, -np.inf

    if objective.aggregate.needs_values and sample.size > 0:
        # Only the columns the expression reads: on a SQL backend every
        # gather is a round of chunked statements.
        wanted = sorted(objective.columns())
        unknown = [c for c in wanted if c not in table.schema.columns]
        if unknown:
            raise KeyError(
                f"expression references unknown column {unknown[0]!r}; "
                f"available: {sorted(table.schema.columns)}"
            )
        columns = {c: table.gather(c, sample.rows) for c in wanted}
        values = np.broadcast_to(
            objective.expr.evaluate(columns), sample.rows.shape  # type: ignore[union-attr]
        ).astype(float)
        sums = np.bincount(sample.cells, weights=values, minlength=m)
        if values.size:
            # Segmented extrema via reduceat over rows grouped by cell:
            # identical values to np.minimum.at/np.maximum.at (min/max
            # are order-insensitive) but one vectorized pass instead of an
            # unbuffered per-element scatter, the slow path of ufunc.at.
            sorted_cells, sorted_values = sample.cells, values
            if (sorted_cells[1:] < sorted_cells[:-1]).any():
                order = np.argsort(sorted_cells, kind="stable")
                sorted_cells, sorted_values = sorted_cells[order], values[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_cells)) + 1)
            )
            occupied = sorted_cells[starts]
            sample_min[occupied] = np.minimum.reduceat(sorted_values, starts)
            sample_max[occupied] = np.maximum.reduceat(sorted_values, starts)
            value_min = float(values.min())
            value_max = float(values.max())
        ratios = sample.ratios().reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled_sum = np.where(ratios > 0, sums / ratios, 0.0)

    return ObjectiveGrids(
        scaled_sum=scaled_sum.reshape(shape),
        sample_min=sample_min.reshape(shape),
        sample_max=sample_max.reshape(shape),
        value_min=value_min,
        value_max=value_max,
    )


def _record_grid_metrics(metrics, sample: CellSample) -> None:
    """Charge one objective-grid build over ``sample`` to a registry."""
    metrics.inc("sample.objective_grids")
    metrics.inc("sample.grid_rows_scanned", float(sample.size))


def default_eps(condition: ContentCondition, grids: ObjectiveGrids, total_count: float) -> float:
    """The benefit precision ``eps`` for a condition (Section 4.2).

    For ``avg``-like aggregates the paper suggests
    ``max(|val - min(a)|, |val - max(a)|)``; we apply the same recipe using
    the sample extrema.  For ``sum``/``count`` the attainable range scales
    with the data size, so we use the larger of the value-based recipe and
    the magnitude of ``val`` itself ("a value of the magnitude of val").
    """
    val = condition.value
    lo, hi = grids.value_min, grids.value_max
    agg = condition.objective.aggregate.name
    if np.isfinite(lo) and np.isfinite(hi):
        value_based = max(abs(val - lo), abs(val - hi))
    else:
        value_based = 0.0
    if agg in ("sum", "count"):
        scale = max(abs(val), value_based * max(1.0, total_count), 1.0)
        return scale
    eps = max(value_based, abs(val) * 0.5, 1e-9)
    return eps
