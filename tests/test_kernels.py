"""Exactness tests for the hot-path kernels (``repro.core.kernels``).

The kernel layer's contract is *bitwise* equality with the naive slice
reductions of ``tests/naive_oracle.py`` — anything weaker would let
exploration order drift on exact utility ties.  These tests exercise that
contract on randomized grids in 1-3 dimensions, through the Data Manager
(including cache invalidation on reads), through the batch
``placement_*`` path (noise model included), and end-to-end on a full
search run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ContentObjective, Grid, Rect, SearchConfig, SWEngine, Window, col
from repro.core.datamanager import DataManager
from repro.core.kernels import DataKernels, SummedAreaTable, _sliding_reduce
from repro.sampling import NoiseModel, StratifiedSampler
from repro.storage import Database, HeapTable, TableSchema
from repro.workloads import make_database

from .naive_oracle import NaiveDataManager, NaiveEngine, run_fingerprint


def random_windows(rng, shape, k=60):
    """Uniformly random non-empty windows over a grid shape."""
    windows = []
    for _ in range(k):
        lo = tuple(int(rng.integers(0, s)) for s in shape)
        hi = tuple(int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, shape))
        windows.append(Window(lo, hi))
    return windows


def same_float(a: float, b: float) -> bool:
    """Bitwise-style equality: NaN matches NaN, otherwise exact."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


# -- SummedAreaTable ---------------------------------------------------------


class TestSummedAreaTable:
    @pytest.mark.parametrize("shape", [(64,), (17, 23), (7, 9, 11)])
    def test_box_sum_matches_slice_sum(self, shape):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, size=shape).astype(np.int64)
        sat = SummedAreaTable(values)
        for window in random_windows(rng, shape):
            box = tuple(slice(l, h) for l, h in zip(window.lo, window.hi))
            assert sat.window_sum(window) == float(values[box].sum())

    @pytest.mark.parametrize("shape", [(64,), (17, 23), (7, 9, 11)])
    def test_box_sums_vectorized(self, shape):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1000, size=shape).astype(np.int64)
        sat = SummedAreaTable(values)
        windows = random_windows(rng, shape)
        lo = np.array([w.lo for w in windows])
        hi = np.array([w.hi for w in windows])
        batch = sat.box_sums(lo, hi)
        for i, window in enumerate(windows):
            assert batch[i] == sat.window_sum(window)

    @pytest.mark.parametrize("shape", [(64,), (17, 23), (7, 9, 11)])
    def test_placement_sums_match_every_slice(self, shape):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1000, size=shape).astype(np.int64)
        sat = SummedAreaTable(values)
        lengths = tuple(max(1, s // 3) for s in shape)
        sums = sat.placement_sums(lengths)
        for pos in np.ndindex(*sums.shape):
            box = tuple(slice(p, p + l) for p, l in zip(pos, lengths))
            assert sums[pos] == float(values[box].sum())

    def test_placement_shape_too_large_raises(self):
        sat = SummedAreaTable(np.ones((4, 4)))
        with pytest.raises(ValueError):
            sat.placement_sums((5, 1))

    def test_empty_box_is_zero(self):
        sat = SummedAreaTable(np.arange(12).reshape(3, 4))
        assert sat.box_sum((1, 1), (1, 3)) == 0.0


# -- _sliding_reduce ---------------------------------------------------------


class TestSlidingReduce:
    @pytest.mark.parametrize("op", ["sum", "min", "max"])
    @pytest.mark.parametrize("shape,lengths", [
        ((64,), (5,)),
        ((17, 23), (3, 4)),
        ((17, 23), (1, 1)),     # the n == 1 copy shortcut
        ((17, 23), (3, 1)),     # trailing length-1: non-contiguous view
        ((7, 9, 11), (2, 3, 2)),
    ])
    def test_bitwise_parity_with_slices(self, op, shape, lengths):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 100.0, size=shape)
        out = _sliding_reduce(values, lengths, op)
        for pos in np.ndindex(*out.shape):
            box = tuple(slice(p, p + l) for p, l in zip(pos, lengths))
            expected = float(getattr(values[box], op)())
            assert out[pos] == expected, (pos, op)

    def test_large_window_fallback_parity(self):
        # Above _SLIDING_MAX_CELLS the per-placement fallback must kick in
        # and still match the slice reductions.
        rng = np.random.default_rng(13)
        values = rng.normal(0.0, 10.0, size=(80, 80))
        lengths = (70, 70)  # 4900 cells > 4096
        out = _sliding_reduce(values, lengths, "sum")
        for pos in np.ndindex(*out.shape):
            box = tuple(slice(p, p + l) for p, l in zip(pos, lengths))
            assert out[pos] == float(values[box].sum())


# -- DataKernels vs the naive oracle Data Manager ----------------------------


@pytest.fixture()
def sparse_db():
    """A table whose points only cover x < 5 — half the grid is empty."""
    rng = np.random.default_rng(31)
    n = 500
    x = rng.uniform(0, 5, n)
    y = rng.uniform(0, 10, n)
    v = rng.normal(25, 5, n)
    schema = TableSchema(["x", "y", "v"], ["x", "y"])
    db = Database()
    db.register(HeapTable("pts", schema, {"x": x, "y": y, "v": v}, tuples_per_block=16))
    return db


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


OBJECTIVES = [
    ContentObjective.of("count"),
    ContentObjective.of("sum", col("v")),
    ContentObjective.of("avg", col("v")),
    ContentObjective.of("min", col("v")),
    ContentObjective.of("max", col("v")),
]


def make_pair(db, grid, noise=None):
    """Two Data Managers over the same sample: the naive oracle, the kernels."""
    sample = StratifiedSampler(0.3, seed=21).sample(db.table("pts"), grid)
    dm_naive = NaiveDataManager(db, "pts", grid, OBJECTIVES, sample, noise=noise)
    dm_kern = DataManager(db, "pts", grid, OBJECTIVES, sample, noise=noise)
    return dm_naive, dm_kern


class TestDataKernelsParity:
    def test_scalar_queries_match(self, sparse_db, grid):
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        rng = np.random.default_rng(17)
        for window in random_windows(rng, grid.shape, k=80):
            assert dm_kern.window_count(window) == dm_naive.window_count(window)
            assert dm_kern.unread_objects(window) == dm_naive.unread_objects(window)
            assert dm_kern.is_read(window) == dm_naive.is_read(window)
            for objective in OBJECTIVES:
                a = dm_kern.estimate(objective, window)
                b = dm_naive.estimate(objective, window)
                assert same_float(a, b), (objective, window)

    def test_avg_is_nan_on_empty_box(self, sparse_db, grid):
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        empty = Window((7, 0), (9, 3))  # x >= 5: no tuples at all
        assert dm_kern.window_count(empty) == 0.0
        avg = ContentObjective.of("avg", col("v"))
        assert math.isnan(dm_kern.estimate(avg, empty))
        assert math.isnan(dm_naive.estimate(avg, empty))
        mn = ContentObjective.of("min", col("v"))
        assert same_float(dm_kern.estimate(mn, empty), dm_naive.estimate(mn, empty))

    def test_invalidation_after_read_window(self, sparse_db, grid):
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        w = Window((1, 1), (4, 4))
        # Force a fresh SAT, then stale it with a read.
        dm_kern.kernels.placement_unread((2, 2))
        v0 = dm_kern.version
        dm_naive.read_window(w)
        dm_kern.read_window(w)
        assert dm_kern.version == v0 + 1
        assert dm_kern.unread_objects(w) == 0.0
        assert dm_kern.is_read(w)
        # Scalar queries never rebuild on their own — they fall back.
        assert dm_kern.kernels._stamp != dm_kern.version
        rng = np.random.default_rng(19)
        for window in random_windows(rng, grid.shape, k=40):
            assert dm_kern.unread_objects(window) == dm_naive.unread_objects(window)
            assert dm_kern.is_read(window) == dm_naive.is_read(window)
        # A batch query refreshes, after which scalars ride the SAT again.
        np.testing.assert_array_equal(
            dm_kern.kernels.placement_unread((2, 2)),
            dm_naive.kernels.placement_unread((2, 2)),
        )
        assert dm_kern.kernels._stamp == dm_kern.version
        assert dm_kern.unread_objects(w) == 0.0

    def test_invalidation_after_install_cell(self, sparse_db, grid):
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        cell = Window((2, 2), (3, 3))
        dm_naive.read_window(cell)
        payload = dm_naive.cell_payload((2, 2))
        v0 = dm_kern.version
        dm_kern.install_cell((2, 2), payload)
        assert dm_kern.version == v0 + 1
        assert dm_kern.is_read(cell)
        assert dm_kern.unread_objects(cell) == 0.0

    def test_count_table_is_static(self, sparse_db, grid):
        _, dm_kern = make_pair(sparse_db, grid)
        kern = dm_kern.kernels
        table_before = kern.count_table
        dm_kern.read_window(Window((0, 0), (3, 3)))
        assert kern.count_table is table_before
        w = Window((0, 0), (5, 5))
        assert kern.window_count(w) == float(
            dm_kern.true_count[dm_kern.box(w)].sum()
        )


    def test_fully_read_bounds_matches_scalar_is_read(self, sparse_db, grid):
        """Row for row, with the read-mask SAT fresh and with it stale."""
        _, dm_kern = make_pair(sparse_db, grid)
        kern = dm_kern.kernels
        dm_kern.read_window(Window((1, 1), (4, 5)))
        dm_kern.read_window(Window((6, 0), (8, 3)))
        rng = np.random.default_rng(23)
        windows = random_windows(rng, grid.shape, k=80)
        windows += [Window((1, 1), (4, 5)), Window((2, 2), (3, 4)), Window((6, 1), (7, 2))]
        lows = np.array([w.lo for w in windows], dtype=np.int64)
        his = np.array([w.hi for w in windows], dtype=np.int64)
        expected = [bool(dm_kern.read_mask[dm_kern.box(w)].all()) for w in windows]
        assert any(expected) and not all(expected)

        kern.placement_fully_read((1, 1))  # a batch query rebuilds the SATs
        assert kern._stamp == dm_kern.version
        fresh = kern.fully_read_bounds(lows, his)
        assert fresh.dtype == bool and fresh.tolist() == expected
        assert [kern.is_read(w) for w in windows] == expected

        dm_kern.read_window(Window((4, 6), (6, 9)))  # stales them again
        assert kern._stamp != dm_kern.version
        expected = [bool(dm_kern.read_mask[dm_kern.box(w)].all()) for w in windows]
        stale = kern.fully_read_bounds(lows, his)
        assert stale.dtype == bool and stale.tolist() == expected
        assert [kern.is_read(w) for w in windows] == expected
        assert kern._stamp != dm_kern.version  # a bounds query never rebuilds


class TestPlacementParity:
    @pytest.mark.parametrize("lengths", [(1, 1), (2, 3), (4, 4)])
    def test_placement_batches_match_scalars(self, sparse_db, grid, lengths):
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        # Partially read so unread/fully-read are non-trivial.
        for dm in (dm_naive, dm_kern):
            dm.read_window(Window((0, 0), (4, 6)))
        kern = dm_kern.kernels
        counts = kern.placement_counts(lengths)
        unread = kern.placement_unread(lengths)
        fully = kern.placement_fully_read(lengths)
        reduces = {o.key + o.aggregate.name: kern.placement_reduce(o, lengths) for o in OBJECTIVES}
        for pos in np.ndindex(*counts.shape):
            window = Window(pos, tuple(p + l for p, l in zip(pos, lengths)))
            assert counts[pos] == dm_naive.window_count(window)
            assert unread[pos] == dm_naive.unread_objects(window)
            assert fully[pos] == dm_naive.is_read(window)
            for objective in OBJECTIVES:
                got = reduces[objective.key + objective.aggregate.name][pos]
                want = dm_naive.estimate(objective, window)
                assert same_float(float(got), want), (objective, window)

    def test_placement_estimates_with_noise(self, sparse_db, grid):
        noise = NoiseModel(20.0, seed=23)
        dm_naive, dm_kern = make_pair(sparse_db, grid, noise=noise)
        for dm in (dm_naive, dm_kern):
            dm.read_window(Window((0, 0), (3, 10)))
        lengths = (2, 2)
        kern = dm_kern.kernels
        shape_counts = tuple(s - l + 1 for s, l in zip(grid.shape, lengths))
        windows = [
            Window(pos, tuple(p + l for p, l in zip(pos, lengths)))
            for pos in np.ndindex(*shape_counts)
        ]
        avg = ContentObjective.of("avg", col("v"))
        batch = kern.placement_estimates(avg, lengths)
        for i, window in enumerate(windows):
            assert same_float(float(batch[i]), dm_naive.estimate(avg, window)), window


# -- end-to-end run parity ---------------------------------------------------


@pytest.mark.parametrize("config", [
    SearchConfig(),
    SearchConfig(refresh_reads=5),
    SearchConfig(alpha=1.0),
])
def test_kernel_run_is_byte_identical(tiny_dataset, tiny_query, config):
    runs = []
    for engine_cls in (NaiveEngine, SWEngine):
        db = make_database(tiny_dataset, "cluster")
        engine = engine_cls(db, tiny_dataset.name, sample_fraction=0.2)
        runs.append(run_fingerprint(engine.execute(tiny_query, config).run))
    assert runs[0] == runs[1]


def test_kernels_property_is_cached(sparse_db, grid):
    _, dm_kern = make_pair(sparse_db, grid)
    assert isinstance(dm_kern.kernels, DataKernels)
    assert dm_kern.kernels is dm_kern.kernels
