"""The cluster placement's cell directory and the reads that use it.

A cluster-placed table keeps one row count per cell of its placement
grid (DESIGN.md §15), and every table handle answers ``cell_ids(grid,
rows)`` from it when ``grid`` has the placement grid's key.  These tests
hold the directory to ``cell_flat_ids`` of the coordinates — the
arithmetic every other table still uses — over NaN and out-of-area
coordinates, values on cell boundaries and clipped last cells, in 1-3
dimensions, and through SQLite and resilient handles.  The sampler that
reads it, and its one-sort ordering, are held byte-equal to the two-pass
sampler kept in ``tests/naive_oracle.py``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core import ContentObjective, Grid, Rect, col
from repro.sampling import StratifiedSampler
from repro.sampling.stratified import cell_key_order
from repro.storage import (
    BackendFaultPlan,
    Database,
    HeapTable,
    SQLiteBackend,
    SQLiteTable,
    TableSchema,
    cell_flat_ids,
)
from repro.storage.integrity import StorageFaultPlan
from repro.storage.placement import cluster_placement, order_rows

from .naive_oracle import naive_stratified_sample

AXES = ("x", "y", "z")


@st.composite
def placed(draw):
    """A grid with a clipped last cell, and points on it, off it and NaN."""
    ndim = draw(st.integers(1, 3))
    bounds, steps = [], []
    for _ in range(ndim):
        lo = draw(st.sampled_from([0.0, -2.5, 10.0]))
        step = draw(st.sampled_from([0.5, 1.0, 0.3]))
        cells = draw(st.integers(1, 5))
        # A span that is no multiple of the step clips the last cell.
        span = step * cells - draw(st.sampled_from([0.0, step / 2]))
        bounds.append((lo, lo + span))
        steps.append(step)
    grid = Grid(Rect.from_bounds(bounds), tuple(steps))
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = np.empty((n, ndim))
    for d, (lo, hi) in enumerate(bounds):
        coords[:, d] = rng.uniform(lo - 1.0, hi + 1.0, n)
        # Cell boundaries (and the area's edges) exactly.
        edge = rng.random(n) < 0.3
        k = rng.integers(0, grid.shape[d] + 1, n)
        coords[edge, d] = np.minimum(lo + k[edge] * steps[d], hi)
        coords[rng.random(n) < 0.05, d] = np.nan
    return grid, coords


def _cluster_table(coords: np.ndarray, grid: Grid, tpb: int = 4) -> HeapTable:
    perm, directory = cluster_placement(coords, grid)
    ndim = coords.shape[1]
    columns = {AXES[d]: coords[perm, d] for d in range(ndim)}
    columns["v"] = np.arange(len(coords), dtype=float)[perm] * 0.37
    schema = TableSchema(AXES[:ndim] + ("v",), AXES[:ndim])
    return HeapTable("t", schema, columns, tpb, cell_directory=directory)


def _without_directory(table: HeapTable) -> HeapTable:
    columns = {c: table.column(c) for c in table.schema.columns}
    return HeapTable(table.name, table.schema, columns, table.tuples_per_block)


@given(case=placed(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_directory_matches_the_arithmetic(case, data):
    grid, coords = case
    table = _cluster_table(coords, grid)
    assert table.cell_directory.grid_key == grid.key
    expected = cell_flat_ids(table.coordinates(), grid)
    rows = np.sort(
        np.asarray(data.draw(st.lists(st.integers(0, table.num_rows - 1), max_size=40)), int)
    )
    assert np.array_equal(table.cell_ids(grid), expected)
    assert np.array_equal(table.cell_ids(grid, rows), expected[rows])
    # An equal grid built separately shares the key, so the directory.
    twin = Grid(Rect.from_bounds(list(zip(grid.area.lower, grid.area.upper))), grid.steps)
    assert np.array_equal(table.cell_ids(twin, rows), expected[rows])


@given(case=placed())
@settings(max_examples=30, deadline=None)
def test_another_grid_computes_from_coordinates(case):
    grid, coords = case
    table = _cluster_table(coords, grid)
    finer = Grid(grid.area, tuple(s / 2 for s in grid.steps))
    rows = np.arange(table.num_rows)
    assert np.array_equal(table.cell_ids(finer), cell_flat_ids(table.coordinates(), finer))
    assert np.array_equal(
        table.cell_ids(finer, rows[::2]), cell_flat_ids(table.coordinates()[::2], finer)
    )


def test_adversarial_ends_of_cells():
    # 1-d, area [0, 3) in steps of 1, every value on or next to an edge.
    grid = Grid(Rect.from_bounds([(0.0, 3.0)]), (1.0,))
    edges = [0.0, np.nextafter(1.0, 0.0), 1.0, 2.0, np.nextafter(3.0, 0.0), 3.0, -0.0,
             np.nextafter(0.0, -1.0), np.inf, -np.inf, np.nan]
    table = _cluster_table(np.array(edges).reshape(-1, 1), grid, tpb=3)
    expected = cell_flat_ids(table.coordinates(), grid)
    assert np.array_equal(table.cell_ids(grid), expected)
    assert table.cell_directory.first == 5  # 3.0, just under 0, +-inf, NaN
    assert table.cell_directory.counts.tolist() == [3, 1, 2]


def _cast_then_mask_ids(coords: np.ndarray, grid: Grid) -> np.ndarray:
    """``cell_flat_ids`` as first written: every row is cast to ``int64``,
    NaN and far values included, and out-of-area rows are masked after."""
    coords = np.asarray(coords, dtype=float).reshape(len(coords), -1)
    flat = np.zeros(coords.shape[0], dtype=np.int64)
    inside = np.ones(coords.shape[0], dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for dim in range(grid.ndim):
            values = coords[:, dim]
            inside &= (values >= grid.area[dim].lo) & (values < grid.area[dim].hi)
            idx = ((values - grid.area[dim].lo) / grid.steps[dim]).astype(np.int64)
            flat = flat * grid.shape[dim] + np.clip(idx, 0, grid.shape[dim] - 1)
    flat[~inside] = -1
    return flat


def test_non_finite_coordinates_place_scan_and_sample_without_warnings():
    # Dimension 1 clips its last cell; values sit on edges, off the area,
    # at +-inf, at +-1e300, at +-1.7e308 (whose scaled value overflows) and
    # at NaN, in every pairing of the two axes.
    grid = Grid(Rect.from_bounds([(0.0, 3.0), (-1.0, 1.0)]), (1.0, 0.3))
    values = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7e308, -1.7e308, 0.0, 1.0,
              np.nextafter(3.0, 0.0), 3.0, -1.0, -0.4, 0.8, np.nextafter(1.0, 0.0), 2.5]
    coords = np.array([(a, b) for a in values for b in values])
    objectives = [ContentObjective.of("sum", col("v"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids = cell_flat_ids(coords, grid)
        # Two rows, one NaN: the smallest table that warned.
        pair = cell_flat_ids(np.array([[0.5, 0.0], [np.nan, 0.0]]), grid)
        table = _cluster_table(coords, grid)
        database = Database(clock=SimClock())
        database.register(table)
        scans = [
            database.range_cell_aggregates("t", grid, (0.5, -0.7), (2.5, 0.9), objectives),
            database.full_scan_cell_aggregates("t", grid, objectives),
        ]
        sample = StratifiedSampler(0.5, 3).sample(table, grid)
        finer = Grid(grid.area, (0.5, 0.1))
        fallback = table.cell_ids(finer)
    assert np.array_equal(ids, _cast_then_mask_ids(coords, grid))
    assert pair.tolist() == [3, -1]
    assert np.array_equal(table.cell_ids(grid), _cast_then_mask_ids(table.coordinates(), grid))
    assert np.array_equal(fallback, _cast_then_mask_ids(table.coordinates(), finer))
    expected = naive_stratified_sample(table, grid, 0.5, 3)
    assert np.array_equal(sample.rows, expected.rows)
    assert all(scan.cells_arrays[0].size for scan in scans)


def test_directory_must_cover_the_table():
    grid = Grid(Rect.from_bounds([(0.0, 4.0)]), (1.0,))
    _perm, directory = cluster_placement(np.arange(4.0).reshape(-1, 1), grid)
    schema = TableSchema(("x",), ("x",))
    with pytest.raises(ValueError, match="cell directory"):
        HeapTable("t", schema, {"x": np.arange(5.0)}, 2, cell_directory=directory)


def test_a_bound_sqlite_handle_reads_no_coordinate(monkeypatch):
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 2.5))
    coords = np.random.default_rng(3).uniform(-1.0, 11.0, (300, 2))
    table = _cluster_table(coords, grid)
    backend = SQLiteBackend()
    handle = backend.bind_table(table)
    expected = cell_flat_ids(table.coordinates(), grid)
    rows = np.arange(0, table.num_rows, 7)

    def no_read(self, *args):
        raise AssertionError("coordinates read")

    with monkeypatch.context() as patch:
        for name in ("coordinates", "coordinates_of"):
            patch.setattr(SQLiteTable, name, no_read)
        assert np.array_equal(handle.cell_ids(grid), expected)
        assert np.array_equal(handle.cell_ids(grid, rows), expected[rows])
    # A handle reopened from the catalog has no directory: it reads.
    backend._handles.clear()
    reopened = backend.handle("t")
    assert reopened.cell_directory is None
    assert np.array_equal(reopened.cell_ids(grid, rows), expected[rows])
    backend.close()


def test_a_resilient_handle_answers_from_the_directory():
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
    table = _cluster_table(np.random.default_rng(4).uniform(0.0, 10.0, (200, 2)), grid)
    database = Database(clock=SimClock())
    database.register(table)
    database.attach_resilience(BackendFaultPlan(seed=1, transient_prob=0.5))
    handle = database.table("t")
    attempts = database.backend.stats()["attempts"]
    assert np.array_equal(handle.cell_ids(grid), cell_flat_ids(table.coordinates(), grid))
    assert database.backend.stats()["attempts"] == attempts
    other = Grid(grid.area, (2.0, 2.0))
    assert np.array_equal(handle.cell_ids(other), cell_flat_ids(table.coordinates(), other))
    assert database.backend.stats()["attempts"] > attempts


def _cells_bytes(scan) -> tuple:
    unique, counts, per_key = scan.cells_arrays
    return (
        unique.tobytes(),
        counts.tobytes(),
        {k: tuple(a.tobytes() for a in v) for k, v in sorted(per_key.items())},
        scan.degraded_cells,
        scan.lost_blocks,
    )


@pytest.mark.parametrize("faults", [False, True])
def test_group_by_is_the_same_with_and_without_the_directory(faults):
    grid = Grid(Rect.from_bounds([(0.0, 8.0), (0.0, 6.0)]), (1.0, 1.5))
    rng = np.random.default_rng(9)
    table = _cluster_table(rng.uniform(-0.5, 8.5, (500, 2)), grid)
    objectives = [ContentObjective.of("sum", col("v")), ContentObjective.of("max", col("v"))]
    runs = []
    for handle in (table, _without_directory(table)):
        database = Database(clock=SimClock())
        database.register(handle)
        if faults:
            database.attach_integrity(
                StorageFaultPlan(
                    seed=2,
                    corrupt_blocks=((3, "bitrot"), (40, "torn"), (77, "lost")),
                    reread_success_prob=0.0,
                    replicas=0,
                )
            )
        scans = []
        boxes = np.random.default_rng(5)
        for _ in range(25):
            lo = boxes.uniform(-1.0, 7.0, 2)
            scans.append(database.range_cell_aggregates("t", grid, lo, lo + 2.5, objectives))
        scans.append(database.full_scan_cell_aggregates("t", grid, objectives))
        runs.append([_cells_bytes(scan) for scan in scans])
    assert runs[0] == runs[1]
    if faults:
        assert any(entry[3] for entry in runs[0])


# -- the sampler -----------------------------------------------------------------


@given(
    case=placed(),
    placement=st.sampled_from(["cluster", "axis", "random"]),
    fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=80, deadline=None)
def test_sampler_matches_the_two_pass_oracle(case, placement, fraction, seed):
    grid, coords = case
    table = _cluster_table(coords, grid)
    if placement != "cluster":
        perm = order_rows(placement, coords, grid=grid)
        table = _without_directory(table)
        columns = {c: table.column(c)[perm] for c in table.schema.columns}
        table = HeapTable("t", table.schema, columns, table.tuples_per_block)
    got = StratifiedSampler(fraction, seed).sample(table, grid)
    expected = naive_stratified_sample(table, grid, fraction, seed)
    for name in ("rows", "cells", "cell_true_counts", "cell_sample_counts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def _counting_lexsort(monkeypatch) -> list:
    calls = []
    real = np.lexsort

    def counted(keys, *args, **kwargs):
        calls.append(1)
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


def test_order_falls_back_on_a_rounded_tie(monkeypatch):
    # The last key of cell c rounds onto cell c + 1's first composite.
    cells = np.array([5, 6, 5, 6], dtype=np.int64)
    keys = np.array([1 - 2**-53, 0.0, 0.25, 0.5])
    assert 5 + keys[0] == 6 + keys[1]
    calls = _counting_lexsort(monkeypatch)
    order = cell_key_order(cells, keys)
    assert calls and order.tolist() == [2, 0, 1, 3]


def test_order_falls_back_on_tied_keys(monkeypatch):
    cells = np.array([1, 0, 1, 0, 1], dtype=np.int64)
    keys = np.array([0.5, 0.5, 0.5, 0.25, 0.5])
    calls = _counting_lexsort(monkeypatch)
    order = cell_key_order(cells, keys)
    assert calls and order.tolist() == [3, 1, 0, 2, 4]


def test_order_near_two_to_the_twenty(monkeypatch):
    base = 2**20
    rng = np.random.default_rng(1)
    cells = base + rng.integers(0, 3, 2000)
    keys = rng.random(2000)
    calls = _counting_lexsort(monkeypatch)
    assert np.array_equal(cell_key_order(cells, keys), np.lexsort((keys, cells)))
    # Keys one ulp of 2**-40 apart in one cell merge at 2**20.
    close = np.array([0.5, 0.5 + 2**-40, 0.125])
    tied = np.array([base, base, base], dtype=np.int64)
    assert tied[0] + close[0] == tied[1] + close[1]
    calls.clear()
    assert cell_key_order(tied, close).tolist() == [2, 0, 1]
    assert calls


@given(
    cells=st.lists(st.integers(0, 2**21), min_size=0, max_size=60),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_order_is_the_lexsort(cells, data):
    keys = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1 - 2**-53, 2**-53, 0.25, 0.75])
            | st.floats(0.0, 1.0, exclude_max=True),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    cells_arr = np.asarray(cells, dtype=np.int64)
    keys_arr = np.asarray(keys, dtype=float)
    assert np.array_equal(cell_key_order(cells_arr, keys_arr), np.lexsort((keys_arr, cells_arr)))
