"""``CellScan.cells`` is a view of the columnar scan, bit for bit.

A scan crosses the ``Database`` seam in one form — ``(unique_cells,
counts, per_key)`` arrays — and ``CellScan.cells`` rebuilds the per-cell
dict of ``CellStats`` from them on first access.  The oracle below is the
dict builder ``Database._aggregate_rows`` carried before the arrays
became the only form, copied here and fed the source table directly: the
view must equal it key for key, type for type and bit for bit, on both
scan kinds and both backends.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ContentObjective, Grid, Rect, col
from repro.core.aggregates import CellStats
from repro.storage import COUNT_KEY, Database, HeapTable, TableSchema
from repro.storage.placement import cell_flat_ids


def _dict_builder(table, grid, rows, lows, highs, objectives):
    """The per-cell dict as built before the columnar form was the only one."""
    coords = table.coordinates_of(rows)
    mask = np.ones(rows.size, dtype=bool)
    for d in range(table.ndim):
        mask &= (coords[:, d] >= lows[d]) & (coords[:, d] < highs[d])
    in_rows = rows[mask]
    if in_rows.size == 0:
        return {}
    flat = cell_flat_ids(coords[mask], grid)
    valid = flat >= 0
    if not valid.all():
        in_rows = in_rows[valid]
        flat = flat[valid]
    if in_rows.size == 0:
        return {}

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

    columns = {name: table.gather(name, in_rows) for name in table.schema.columns}
    per_objective = {}
    for objective in objectives:
        if not objective.aggregate.needs_values:
            continue
        key = objective.key
        if key in per_objective:
            continue
        values = np.broadcast_to(objective.expr.evaluate(columns), in_rows.shape).astype(float)
        sums = np.bincount(inverse, weights=values, minlength=unique_cells.size)
        values_sorted = values[order]
        mins = np.minimum.reduceat(values_sorted, starts)
        maxs = np.maximum.reduceat(values_sorted, starts)
        per_objective[key] = (sums, mins, maxs)

    out = {}
    for i, cell in enumerate(unique_cells):
        entry = {COUNT_KEY: CellStats(int(counts[i]), float(counts[i]), 1.0, 1.0)}
        for key, (sums, mins, maxs) in per_objective.items():
            entry[key] = CellStats(int(counts[i]), float(sums[i]), float(mins[i]), float(maxs[i]))
        out[int(cell)] = entry
    return out


def _bits(cells):
    """Keys, field types and float bit patterns — NaN-safe, order included."""
    return [
        (
            type(cell),
            cell,
            [
                (key, type(s.count), s.count)
                + tuple(np.float64(v).tobytes() for v in (s.total, s.minimum, s.maximum))
                + tuple(type(v) for v in (s.total, s.minimum, s.maximum))
                for key, s in entry.items()
            ],
        )
        for cell, entry in cells.items()
    ]


_OBJECTIVES = [
    ContentObjective.of("count"),
    ContentObjective.of("avg", col("v")),
    ContentObjective.of("sum", col("v") * col("w")),
]


@given(
    ndim=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 120),
    nan_every=st.integers(2, 9),
    step=st.sampled_from((1.0, 2.5, 5.0)),
    box=st.tuples(st.floats(-2.0, 11.0), st.floats(0.0, 8.0)),
    backend=st.sampled_from(("simulator", "sqlite:")),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cells_view_equals_the_dict_builder(ndim, seed, rows, nan_every, step, box, backend):
    rng = np.random.default_rng(seed)
    names = [f"c{d}" for d in range(ndim)]
    # Coordinates spill over the grid's [0, 10) area on both sides.
    data = {name: rng.uniform(-2.0, 12.0, rows) for name in names}
    data["v"] = rng.normal(0.0, 3.0, rows)
    data["v"][::nan_every] = np.nan
    data["w"] = rng.integers(-2, 3, rows).astype(float)
    table = HeapTable("t", TableSchema([*names, "v", "w"], names), data, tuples_per_block=8)
    grid = Grid(Rect.from_bounds([(0.0, 10.0)] * ndim), (step,) * ndim)
    lows = [box[0]] * ndim
    highs = [box[0] + box[1]] * ndim  # width 0: an empty box
    all_rows = np.arange(rows, dtype=np.int64)

    with Database(backend=backend) as db:
        db.register(table)
        ranged = db.range_cell_aggregates("t", grid, lows, highs, _OBJECTIVES)
        full = db.full_scan_cell_aggregates("t", grid, _OBJECTIVES)
        assert _bits(ranged.cells) == _bits(
            _dict_builder(table, grid, all_rows, lows, highs, _OBJECTIVES)
        )
        assert _bits(full.cells) == _bits(
            _dict_builder(table, grid, all_rows, grid.area.lower, grid.area.upper, _OBJECTIVES)
        )
        assert ranged.cells is ranged.cells, "built once, on first access"
        assert list(ranged.cells) == ranged.cells_arrays[0].tolist()
