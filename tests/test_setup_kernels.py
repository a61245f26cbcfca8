"""Differential tests for the set-up kernels (DESIGN.md §8 "Set-up kernels").

The block-MBR build and the stratified sample were per-block and per-cell
Python loops, and ``cell_flat_ids`` allocated a row-sized temporary per
pass; they are array code over reused buffers now and must produce the
same arrays.  The old forms live on here as the oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Grid, Rect
from repro.sampling import CellSample, StratifiedSampler, allocate_budget, uniform_sample
from repro.storage import HeapTable, TableSchema, cell_flat_ids


# -- block MBRs ------------------------------------------------------------------


def _loop_block_mbrs(table: HeapTable) -> tuple[np.ndarray, np.ndarray]:
    """The per-block loop ``HeapTable._build_block_mbrs`` used to be.

    NaN-ignoring: one NaN coordinate must not blank its block's MBR (a
    block NaN in every row of a dimension keeps a NaN bound there).
    """
    coords = table.coordinates()
    mins = np.empty((table.num_blocks, table.ndim), dtype=float)
    maxs = np.empty((table.num_blocks, table.ndim), dtype=float)
    for b in range(table.num_blocks):
        rows = table.block_rows(b)
        mins[b] = np.fmin.reduce(coords[rows], axis=0)
        maxs[b] = np.fmax.reduce(coords[rows], axis=0)
    return mins, maxs


def _table(coords: np.ndarray, tuples_per_block: int) -> HeapTable:
    names = [f"c{d}" for d in range(coords.shape[1])]
    columns = {name: coords[:, d] for d, name in enumerate(names)}
    return HeapTable("t", TableSchema(names, names), columns, tuples_per_block)


def _assert_mbrs_match_loop(table: HeapTable) -> None:
    for built, expected in zip(table.block_mbrs(), _loop_block_mbrs(table)):
        assert built.dtype == expected.dtype and built.shape == expected.shape
        assert built.flags.c_contiguous
        assert np.array_equal(built, expected, equal_nan=True)


@st.composite
def _coords_and_block_size(draw):
    ndim = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 60))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype is np.int64:
        values = st.integers(-50, 50)
    else:
        values = st.one_of(
            st.floats(-100, 100, width=32), st.just(float("nan")), st.just(-0.0)
        )
    flat = draw(st.lists(values, min_size=rows * ndim, max_size=rows * ndim))
    coords = np.array(flat, dtype=dtype).reshape(rows, ndim)
    # From one tuple per block to a single block larger than the table.
    return coords, draw(st.integers(1, rows + 3))


class TestBlockMbrKernel:
    @given(_coords_and_block_size())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_block_loop(self, case):
        coords, tuples_per_block = case
        _assert_mbrs_match_loop(_table(coords, tuples_per_block))

    @pytest.mark.parametrize("tuples_per_block", [1, 7, 8, 64, 600, 601, 5000])
    def test_ragged_last_block(self, small_table, tuples_per_block):
        table = HeapTable(
            "pts",
            small_table.schema,
            {c: small_table.column(c) for c in small_table.schema.columns},
            tuples_per_block,
        )
        assert table.block_mbrs()[0].shape == (table.num_blocks, 2)
        _assert_mbrs_match_loop(table)

    def test_construction_never_slices_block_by_block(self, small_table, monkeypatch):
        calls = []
        original = HeapTable.block_rows
        monkeypatch.setattr(
            HeapTable, "block_rows", lambda self, b: calls.append(b) or original(self, b)
        )
        HeapTable(
            "pts",
            small_table.schema,
            {c: small_table.column(c) for c in small_table.schema.columns},
            tuples_per_block=4,
        )
        assert calls == []


# -- grid cell of every row ------------------------------------------------------


def _loop_cell_flat_ids(coords: np.ndarray, grid: Grid) -> np.ndarray:
    """``cell_flat_ids`` with a fresh temporary per pass, as it used to be."""
    flat = np.zeros(coords.shape[0], dtype=np.int64)
    inside = np.ones(coords.shape[0], dtype=bool)
    for dim in range(grid.ndim):
        lo, hi, step = grid.area[dim].lo, grid.area[dim].hi, grid.steps[dim]
        values = coords[:, dim]
        inside &= (values >= lo) & (values < hi)
        idx = np.clip(((values - lo) / step).astype(np.int64), 0, grid.shape[dim] - 1)
        flat = flat * grid.shape[dim] + idx
    flat[~inside] = -1
    return flat


class TestCellFlatIds:
    @given(
        ndim=st.integers(1, 3),
        rows=st.integers(1, 80),
        seed=st.integers(0, 10_000),
        step=st.sampled_from([0.1, 0.3, 1.0, 2.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_pass_temporaries(self, ndim, rows, seed, step):
        grid = Grid(Rect.from_bounds([(0.0, 10.0)] * ndim), (step,) * ndim)
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-1.0, 11.0, (rows, ndim))
        # Values on cell edges, on both area bounds, and a NaN.
        coords[rng.random((rows, ndim)) < 0.2] = rng.choice([0.0, 10.0, step, 10.0 - step, 5.0])
        coords[0, 0] = np.nan if seed % 3 == 0 else coords[0, 0]
        before = coords.copy()
        with np.errstate(invalid="ignore"):
            got, expected = cell_flat_ids(coords, grid), _loop_cell_flat_ids(coords, grid)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert np.array_equal(coords, before, equal_nan=True)  # the caller's rows are only read

    def test_one_dimensional_rows_are_not_written(self):
        # A (n, 1) column is contiguous as it is: the in-place passes must
        # work on their own buffer, not on the table's coordinates.
        grid = Grid(Rect.from_bounds([(0.0, 10.0)]), (1.0,))
        coords = np.linspace(-1.0, 11.0, 50).reshape(-1, 1)
        before = coords.copy()
        assert np.array_equal(cell_flat_ids(coords, grid), _loop_cell_flat_ids(coords, grid))
        assert np.array_equal(coords, before)


# -- stratified and uniform samples ----------------------------------------------


def _inside(table: HeapTable, grid: Grid):
    flat = cell_flat_ids(table.coordinates(), grid)
    inside = flat >= 0
    return np.nonzero(inside)[0], flat[inside]


def _lexsort_sample(table: HeapTable, grid: Grid, fraction: float, seed: int) -> CellSample:
    """``StratifiedSampler.sample`` as it was: one ``lexsort``, one ``arange`` per cell."""
    rows_inside, cells_inside = _inside(table, grid)
    m = grid.num_cells
    true_counts = np.bincount(cells_inside, minlength=m)
    budget = max(1, int(round(fraction * rows_inside.size)))
    quotas = allocate_budget(true_counts, budget)
    keys = np.random.default_rng(seed).random(rows_inside.size)
    order = np.lexsort((keys, cells_inside))
    sorted_rows = rows_inside[order]
    sorted_cells = cells_inside[order]
    starts = np.searchsorted(sorted_cells, np.arange(m), side="left")
    take = [
        np.arange(starts[cell], starts[cell] + quotas[cell])
        for cell in np.nonzero(quotas > 0)[0]
    ]
    if take:
        pick = np.concatenate(take)
        sample_rows, sample_cells = sorted_rows[pick], sorted_cells[pick]
    else:
        sample_rows = sample_cells = np.empty(0, dtype=np.int64)
    return CellSample(
        rows=sample_rows,
        cells=sample_cells,
        cell_true_counts=true_counts.reshape(grid.shape).astype(np.int64),
        cell_sample_counts=np.bincount(sample_cells, minlength=m)
        .reshape(grid.shape)
        .astype(np.int64),
    )


def _choice_sample(table: HeapTable, grid: Grid, fraction: float, seed: int) -> CellSample:
    """``uniform_sample`` as it was, with its own copy of the dataset-derived arrays."""
    rows_inside, cells_inside = _inside(table, grid)
    rng = np.random.default_rng(seed)
    budget = max(1, int(round(fraction * rows_inside.size)))
    pick = rng.choice(rows_inside.size, size=min(budget, rows_inside.size), replace=False)
    pick.sort()
    m = grid.num_cells
    return CellSample(
        rows=rows_inside[pick],
        cells=cells_inside[pick],
        cell_true_counts=np.bincount(cells_inside, minlength=m)
        .reshape(grid.shape)
        .astype(np.int64),
        cell_sample_counts=np.bincount(cells_inside[pick], minlength=m)
        .reshape(grid.shape)
        .astype(np.int64),
    )


def _assert_same_sample(got: CellSample, expected: CellSample) -> None:
    for name in ("rows", "cells", "cell_true_counts", "cell_sample_counts"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == np.int64 and b.dtype == np.int64, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _scattered_table(rows: int, seed: int, low: float = -2.0, high: float = 12.0) -> HeapTable:
    """Points over [low, high)^2: some outside a [0, 10)^2 grid, clumped so cells go empty."""
    rng = np.random.default_rng(seed)
    xy = np.where(
        rng.random((rows, 1)) < 0.6,
        rng.normal(3.0, 0.7, (rows, 2)),
        rng.uniform(low, high, (rows, 2)),
    )
    return _table(xy, tuples_per_block=8)


@pytest.fixture()
def unit_grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


class TestStratifiedKernel:
    @given(
        rows=st.integers(1, 400),
        fraction=st.floats(0.01, 1.0),
        data_seed=st.integers(0, 50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lexsort_implementation(self, rows, fraction, data_seed, seed):
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
        table = _scattered_table(rows, data_seed)
        _assert_same_sample(
            StratifiedSampler(fraction, seed).sample(table, grid),
            _lexsort_sample(table, grid, fraction, seed),
        )

    def test_empty_cells_and_rows_outside_the_area(self, unit_grid):
        table = _scattered_table(900, seed=3)
        sample = StratifiedSampler(0.2, seed=9).sample(table, unit_grid)
        assert (sample.cell_true_counts == 0).any()
        assert int(sample.cell_true_counts.sum()) < table.num_rows
        _assert_same_sample(sample, _lexsort_sample(table, unit_grid, 0.2, 9))

    def test_budget_covering_every_row(self, unit_grid):
        table = _scattered_table(300, seed=4)
        sample = StratifiedSampler(1.0, seed=2).sample(table, unit_grid)
        assert np.array_equal(sample.cell_sample_counts, sample.cell_true_counts)
        _assert_same_sample(sample, _lexsort_sample(table, unit_grid, 1.0, 2))

    def test_no_row_inside_the_area(self, unit_grid):
        table = _table(np.full((5, 2), 50.0), tuples_per_block=2)
        sample = StratifiedSampler(0.5).sample(table, unit_grid)
        assert sample.size == 0
        _assert_same_sample(sample, _lexsort_sample(table, unit_grid, 0.5, 17))

    def test_grid_too_large_for_16_bit_cell_ids(self):
        # 200 x 200 cells: ids run past 32 767, where 16-bit ids would wrap.
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (0.05, 0.05))
        assert grid.num_cells > np.iinfo(np.int16).max
        table = _scattered_table(3000, seed=6, low=0.0, high=10.0)
        sample = StratifiedSampler(0.9, seed=5).sample(table, grid)
        assert int(sample.cells.max()) > np.iinfo(np.int16).max
        _assert_same_sample(sample, _lexsort_sample(table, grid, 0.9, 5))

    def test_tied_keys_keep_the_lexsort_order(self, unit_grid, monkeypatch):
        class RepeatingKeys:
            def random(self, size):
                # Six distinct keys: every cell's run is full of ties, which
                # only the lexsort fallback breaks by row position.
                return (np.arange(size) * 7 % 6) / 6.0

        table = _scattered_table(2000, seed=8)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: RepeatingKeys())
        _assert_same_sample(
            StratifiedSampler(0.25, seed=1).sample(table, unit_grid),
            _lexsort_sample(table, unit_grid, 0.25, 1),
        )


class TestUniformSample:
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 1.0])
    def test_output_unchanged(self, unit_grid, fraction):
        table = _scattered_table(700, seed=12)
        _assert_same_sample(
            uniform_sample(table, unit_grid, fraction, seed=23),
            _choice_sample(table, unit_grid, fraction, 23),
        )
