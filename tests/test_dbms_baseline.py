"""Unit tests for the complex-SQL baseline and its window enumerator."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    SWEngine,
    SWQuery,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    col,
)
from repro.core.kernels import SummedAreaTable, placement_bounds
from repro.dbms import CellGrids, materialize_cells, run_sql_baseline
from repro.core.window import Window
from repro.storage import Database, HeapTable, TableSchema
from repro.storage.integrity import StorageFaultPlan

from .naive_oracle import _box_sum, _prefix


def sat_box_sum(values: np.ndarray, window: Window) -> float:
    """The baseline's box sum: one row of ``SummedAreaTable.box_sums``."""
    lows, his = np.array([window.lo]), np.array([window.hi])
    return float(SummedAreaTable(values).box_sums(lows, his)[0])


class TestPrefixSums:
    """The kernels' summed-area table against the oracle's prefix sums."""

    def test_prefix_box_sum_2d(self):
        values = np.arange(12, dtype=float).reshape(3, 4)
        w = Window((1, 1), (3, 3))
        assert sat_box_sum(values, w) == _box_sum(_prefix(values), w) == values[1:3, 1:3].sum()

    def test_prefix_box_sum_full(self):
        values = np.arange(6, dtype=float).reshape(2, 3)
        w = Window((0, 0), (2, 3))
        assert sat_box_sum(values, w) == _box_sum(_prefix(values), w) == values.sum()

    def test_prefix_box_sum_1d(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        w = Window((1,), (3,))
        assert sat_box_sum(values, w) == _box_sum(_prefix(values), w) == 5.0

    @pytest.mark.parametrize("shape", [(9,), (6, 7), (4, 5, 3), (3, 4, 3, 2)])
    def test_real_valued_sums_bit_equal_to_oracle(self, shape):
        # Real-valued corner sums round by the order the corners are
        # added in; the table adds them in the oracle's order, dim 0 most
        # significant, so every placement's sum is the same float.
        rng = np.random.default_rng(29)
        values = rng.normal(0.0, 100.0, size=shape)
        sat = SummedAreaTable(values)
        prefix = _prefix(values)
        for lengths in itertools.product(*(range(1, s + 1) for s in shape)):
            lows, his = placement_bounds(shape, lengths)
            want = np.array([
                _box_sum(prefix, Window(tuple(lo), tuple(hi)))
                for lo, hi in zip(lows.tolist(), his.tolist())
            ])
            assert sat.placement_sums(lengths).reshape(-1).tobytes() == want.tobytes()
            assert sat.box_sums(lows, his).tobytes() == want.tobytes()


NAN = float("nan")


@pytest.mark.parametrize("op", list(ComparisonOp))
def test_comparison_on_arrays_equals_scalar_results(op):
    left = np.array([-1.0, 0.0, 1.0, 2.5, NAN, np.inf, -np.inf])
    for right in (0.0, 1.0, 2.5, NAN, np.inf):
        got = op.test(left, right)
        assert got.dtype == np.bool_
        assert got.tolist() == [op.test(value, right) for value in left.tolist()]
    for value in left.tolist():
        assert op.test(value, NAN) is False


class TestBaseline:
    def test_matches_sw_engine(self, tiny_dataset, tiny_query, tiny_db):
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        from repro.workloads import make_database

        db2 = make_database(tiny_dataset, "cluster")
        engine_run = SWEngine(db2, tiny_dataset.name, sample_fraction=0.3).execute(tiny_query)
        assert {r.window for r in baseline.results} == {
            r.window for r in engine_run.run.results
        }

    def test_blocking_output(self, tiny_dataset, tiny_query, tiny_db):
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        assert baseline.num_results > 0
        assert all(r.time == baseline.total_time_s for r in baseline.results)

    def test_time_decomposition(self, tiny_dataset, tiny_query, tiny_db):
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        assert baseline.io_time_s > 0
        assert baseline.cpu_time_s > 0
        assert baseline.total_time_s == pytest.approx(
            baseline.io_time_s + baseline.cpu_time_s, rel=0.05
        )

    def test_single_sequential_read(self, tiny_dataset, tiny_query, tiny_db):
        run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        disk = tiny_db.disk(tiny_dataset.name)
        assert disk.seeks == 1
        assert disk.blocks_read == disk.num_blocks

    def test_enumeration_respects_shape_bounds(self, tiny_dataset, tiny_query, tiny_db):
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        grid = tiny_query.grid
        # All card<10 shapes: count enumerated windows is far below the
        # unbounded window count.
        from repro.core import enumerate_windows

        unbounded = sum(1 for _ in enumerate_windows(grid))
        assert 0 < baseline.windows_enumerated < unbounded

    def test_objective_values_exact(self, tiny_dataset, tiny_query, tiny_db):
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, tiny_query)
        for result in baseline.results:
            assert 20.0 < result.objective_values["avg(value)"] < 30.0

    def test_min_max_aggregates_supported(self, tiny_dataset, tiny_db):
        grid = tiny_dataset.grid
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
            steps=grid.steps,
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 4),
                ContentCondition(ContentObjective.of("max", col("value")), ComparisonOp.LT, 30.0),
                ContentCondition(ContentObjective.of("min", col("value")), ComparisonOp.GT, 15.0),
            ],
        )
        baseline = run_sql_baseline(tiny_db, tiny_dataset.name, query)
        for result in baseline.results:
            assert result.objective_values["max(value)"] < 30.0
            assert result.objective_values["min(value)"] > 15.0


def test_materialized_cells_equal_scattered_arrays(tiny_dataset, tiny_db):
    """The dict view and the columnar scan give byte-equal grids, also for
    ``count()``, whose key the scan's cells do not carry."""
    objectives = [ContentObjective.of("count")] + [
        ContentObjective.of(agg, col("value")) for agg in ("sum", "avg", "min", "max")
    ]
    grid = tiny_dataset.grid
    scan = tiny_db.full_scan_cell_aggregates(tiny_dataset.name, grid, objectives)
    keys = [obj.key for obj in objectives]
    assert "*" in keys and scan.cells
    got = materialize_cells(grid, scan.cells, keys)
    want = CellGrids.from_arrays(grid, scan.cells_arrays, keys)
    assert got.counts.tobytes() == want.counts.tobytes()
    for field in ("sums", "mins", "maxs"):
        got_grids, want_grids = getattr(got, field), getattr(want, field)
        assert got_grids.keys() == want_grids.keys() == set(keys)
        for key in keys:
            assert got_grids[key].tobytes() == want_grids[key].tobytes()


class TestPushdownAblation:
    def test_naive_enumeration_agrees_and_costs_more(self, tiny_dataset, tiny_query):
        from repro.workloads import make_database

        db1 = make_database(tiny_dataset, "cluster")
        pushed = run_sql_baseline(db1, tiny_dataset.name, tiny_query)
        db2 = make_database(tiny_dataset, "cluster")
        naive = run_sql_baseline(db2, tiny_dataset.name, tiny_query, pushdown=False)
        assert {r.window for r in pushed.results} == {r.window for r in naive.results}
        assert naive.windows_enumerated > 2 * pushed.windows_enumerated
        assert naive.cpu_time_s > pushed.cpu_time_s


# -- the full scan against a per-row group-by ---------------------------------


_FULL_SCAN_OBJECTIVES = [
    ContentObjective.of("count"),
    ContentObjective.of("avg", col("v")),
    ContentObjective.of("sum", col("v") * col("w")),
    ContentObjective.of("max", col("w")),
]


def _group_by_rows(table, grid, objectives, lost_blocks):
    """``cells_arrays`` of a full scan, one row at a time in row order.

    Reads every column once through ``HeapTable.column``; a row counts
    when each coordinate lies in the grid's half-open area and its block
    is not lost.  Cell ids, sums (accumulated in row order, as the scan
    promises) and NaN-propagating minima and maxima are computed in plain
    Python, independently of the program's numpy grouping.
    """
    coords = [table.column(c) for c in table.schema.coordinate_columns]
    data = {c: table.column(c) for c in table.schema.columns}
    keyed = {o.key: o for o in objectives if o.aggregate.needs_values}
    cells: dict[int, list] = {}
    for row in range(table.num_rows):
        if row // table.tuples_per_block in lost_blocks:
            continue
        flat = 0
        for d, interval in enumerate(grid.area.intervals):
            x = float(coords[d][row])
            if not interval.lo <= x < interval.hi:
                break
            flat = flat * grid.shape[d] + min(
                int((x - interval.lo) / grid.steps[d]), grid.shape[d] - 1
            )
        else:
            entry = cells.setdefault(flat, [0, {}])
            entry[0] += 1
            one_row = {c: data[c][row : row + 1] for c in data}
            for key, objective in keyed.items():
                value = float(objective.expr.evaluate(one_row)[0])
                if key not in entry[1]:
                    entry[1][key] = [0.0 + value, value, value]
                    continue
                acc = entry[1][key]
                acc[0] += value
                if not np.isnan(acc[1]) and (np.isnan(value) or value < acc[1]):
                    acc[1] = value
                if not np.isnan(acc[2]) and (np.isnan(value) or value > acc[2]):
                    acc[2] = value
    order = sorted(cells)
    per_key = {
        key: tuple(np.array([cells[c][1][key][i] for c in order]) for i in range(3))
        for key in (keyed if cells else ())
    }
    return np.array(order, dtype=np.int64), np.array([cells[c][0] for c in order]), per_key


@given(
    ndim=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 150),
    tpb=st.integers(1, 16),
    nan_every=st.integers(2, 9),
    lost=st.sets(st.integers(0, 20), max_size=4),
    backend=st.sampled_from(("simulator", "sqlite:")),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_full_scan_equals_a_per_row_group_by(ndim, seed, rows, tpb, nan_every, lost, backend):
    rng = np.random.default_rng(seed)
    names = [f"c{d}" for d in range(ndim)]
    # Coordinates spill over the grid's [0, 10) area on both sides, and
    # some are NaN.
    data = {name: rng.uniform(-2.0, 12.0, rows) for name in names}
    data[names[-1]][::nan_every] = np.nan
    data["v"] = rng.normal(0.0, 3.0, rows)
    data["v"][1::nan_every] = np.nan
    # No zero factor: the minimum of 0.0 and -0.0 is numpy's choice.
    data["w"] = rng.choice([-2.0, -1.0, 1.0, 2.0], rows)
    table = HeapTable("t", TableSchema([*names, "v", "w"], names), data, tpb)
    grid = Grid(Rect.from_bounds([(0.0, 10.0)] * ndim), (2.5,) * ndim)
    lost = {b for b in lost if b < table.num_blocks}

    with Database(backend=backend) as db:
        db.register(table)
        if lost:
            # Torn pages with no replica and no re-read: the sequential
            # read quarantines every one of them.
            db.attach_integrity(
                StorageFaultPlan(
                    corrupt_blocks=tuple((b, "torn") for b in sorted(lost)),
                    replicas=0,
                    max_rereads=0,
                )
            )
        scan = db.full_scan_cell_aggregates("t", grid, _FULL_SCAN_OBJECTIVES)

    cells, counts, per_key = _group_by_rows(table, grid, _FULL_SCAN_OBJECTIVES, lost)
    got_cells, got_counts, got_per_key = scan.cells_arrays
    assert got_cells.tobytes() == cells.tobytes()
    assert got_counts.astype(np.int64).tobytes() == counts.astype(np.int64).tobytes()
    assert got_per_key.keys() == per_key.keys()
    for key, want in per_key.items():
        for got_part, want_part in zip(got_per_key[key], want):
            assert np.asarray(got_part, dtype=float).tobytes() == want_part.astype(float).tobytes()
    assert scan.lost_blocks == tuple(sorted(lost))
    assert (scan.tuples_scanned, scan.blocks_touched) == (table.num_rows, table.num_blocks)
    # Degraded: the in-area cells of the lost blocks' rows.
    kept_blocks = set(range(table.num_blocks)) - lost
    degraded = _group_by_rows(table, grid, [], kept_blocks)[0]
    assert scan.degraded_cells == tuple(degraded.tolist())
