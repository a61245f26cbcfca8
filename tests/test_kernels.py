"""Exactness tests for the hot-path kernels (``repro.core.kernels``).

The kernel layer's contract is *bitwise* equality with the naive slice
reductions of ``tests/naive_oracle.py`` — anything weaker would let
exploration order drift on exact utility ties.  These tests exercise that
contract on randomized grids in 1-4 dimensions, through the Data Manager
(including cache invalidation on reads and installs, and the in-place
refill of a stale summed-area table), through the batch
``placement_*`` path (noise model included), and end-to-end on a full
search run.  Real-valued window sums are checked against numpy's own
slice sum by ``float.hex``, on values chosen to expose summation order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContentObjective, Grid, Rect, SearchConfig, SWEngine, Window, col
from repro.core.conditions import (
    ComparisonOp,
    ConditionSet,
    ContentCondition,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
)
from repro.core.datamanager import DataManager
from repro.core.query import SWQuery
from repro.core.search import HeuristicSearch
from repro.core.kernels import (
    _SCALAR_SUM_MAX_CELLS,
    _SLIDING_MAX_CELLS,
    DataKernels,
    SummedAreaTable,
    pairwise_sum,
    sliding_reduce,
)
from repro.sampling import NoiseModel, StratifiedSampler
from repro.storage import Database, HeapTable, TableSchema
from repro.workloads import make_database

from .naive_oracle import NaiveDataManager, NaiveEngine, NaiveSearch, run_fingerprint


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
            assert sat.box_sum(window.lo, window.hi) == float(values[box].sum())

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
            assert batch[i] == sat.box_sum(window.lo, window.hi)

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

    @settings(max_examples=60, deadline=None)
    @given(
        ndim=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["float", "bool"]),
    )
    def test_refill_is_byte_equal_to_fresh_build(self, ndim, seed, kind):
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(1, 7, size=ndim))

        def draw():
            if kind == "bool":
                return rng.random(shape) < 0.5
            return rng.normal(0.0, 100.0, size=shape)

        sat = SummedAreaTable(draw())
        table, corners = sat.table, sat._corners
        full = (tuple(0 for _ in shape), shape)
        for _ in range(3):
            sat.box_sum(*full)  # corner reads before a refill must not pin old values
            values = draw()
            sat.refill(values)
            assert sat.table is table and sat._corners is corners
            fresh = SummedAreaTable(values)
            assert sat.table.tobytes() == fresh.table.tobytes()
            assert sat.box_sum(*full) == fresh.box_sum(*full)


# -- sliding_reduce ----------------------------------------------------------


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
        out = sliding_reduce(values, lengths, op)
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
        out = sliding_reduce(values, lengths, "sum")
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


def count_slice_answers(monkeypatch, dm) -> list[int]:
    """Count the Data Manager's ``box`` calls — a count query answered by
    a slice reduction would build one; a SAT lookup never does."""
    calls = [0]
    box = dm.box

    def counted(window):
        calls[0] += 1
        return box(window)

    monkeypatch.setattr(dm, "box", counted)
    return calls


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

    def test_invalidation_after_read_window(self, sparse_db, grid, monkeypatch):
        """A stale table is refilled once, by the first count query after
        the bump; every answer comes from the tables and equals the oracle."""
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        kern = dm_kern.kernels
        slices = count_slice_answers(monkeypatch, dm_kern)
        assert kern._stamp == dm_kern.version  # fresh from construction
        rng = np.random.default_rng(19)
        for n, w in enumerate([Window((1, 1), (4, 4)), Window((6, 0), (7, 9))], start=1):
            v0 = dm_kern.version
            dm_naive.read_window(w)
            dm_kern.read_window(w)
            assert dm_kern.version == v0 + 1
            assert kern._stamp != dm_kern.version and kern.rebuilds == n - 1
            built = slices[0]  # read_window slices; count queries must not
            assert dm_kern.unread_objects(w) == 0.0
            assert kern._stamp == dm_kern.version and kern.rebuilds == n
            assert dm_kern.is_read(w)
            for window in random_windows(rng, grid.shape, k=40):
                assert dm_kern.unread_objects(window) == dm_naive.unread_objects(window)
                assert dm_kern.is_read(window) == dm_naive.is_read(window)
            assert kern.rebuilds == n and slices[0] == built

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
        """Row for row, with the read-mask SAT fresh and right after a bump
        (the bounds call refills it once)."""
        dm_naive, dm_kern = make_pair(sparse_db, grid)
        kern = dm_kern.kernels
        for dm in (dm_naive, dm_kern):
            dm.read_window(Window((1, 1), (4, 5)))
            dm.read_window(Window((6, 0), (8, 3)))
        rng = np.random.default_rng(23)
        windows = random_windows(rng, grid.shape, k=80)
        windows += [Window((1, 1), (4, 5)), Window((2, 2), (3, 4)), Window((6, 1), (7, 2))]
        lows = np.array([w.lo for w in windows], dtype=np.int64)
        his = np.array([w.hi for w in windows], dtype=np.int64)
        expected = [dm_naive.is_read(w) for w in windows]
        assert any(expected) and not all(expected)

        kern.placement_fully_read((1, 1))  # a batch query refills the SATs
        rebuilds = kern.rebuilds
        assert kern._stamp == dm_kern.version
        fresh = kern.fully_read_bounds(lows, his)
        assert fresh.dtype == bool and fresh.tolist() == expected
        assert [kern.is_read(w) for w in windows] == expected
        assert kern.rebuilds == rebuilds

        for dm in (dm_naive, dm_kern):
            dm.read_window(Window((4, 6), (6, 9)))  # stales them again
        assert kern._stamp != dm_kern.version
        expected = [dm_naive.is_read(w) for w in windows]
        stale = kern.fully_read_bounds(lows, his)
        assert stale.dtype == bool and stale.tolist() == expected
        assert kern._stamp == dm_kern.version and kern.rebuilds == rebuilds + 1
        assert [kern.is_read(w) for w in windows] == expected
        unread = kern.unread_bounds(lows, his)
        assert unread.tolist() == [dm_naive.unread_objects(w) for w in windows]
        assert kern.rebuilds == rebuilds + 1


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


# -- count queries under interleaved reads, installs and restores ------------


#: Per dimensionality, a small grid and a larger one.
MUTATION_SHAPES = {
    1: [(40,), (600,)],
    2: [(6, 7), (20, 24)],
    3: [(4, 5, 6), (8, 8, 9)],
    4: [(3, 3, 4, 4), (4, 5, 5, 4)],
}
MUTATION_OBJECTIVES = [ContentObjective.of("count")]
_MUTATION_INPUTS: dict = {}


def mutation_inputs(shape):
    """``(db, grid, sample)`` over ``[0, shape)`` with unit steps; points
    fill only the lower half of dimension 0, so the rest reads empty."""
    if shape not in _MUTATION_INPUTS:
        rng = np.random.default_rng(math.prod(shape))
        n = 400
        columns = {
            f"x{d}": rng.uniform(0, size * (0.5 if d == 0 else 1.0), n)
            for d, size in enumerate(shape)
        }
        schema = TableSchema(list(columns), list(columns))
        db = Database()
        db.register(HeapTable("pts", schema, columns, tuples_per_block=16))
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * len(shape))
        sample = StratifiedSampler(0.3, seed=21).sample(db.table("pts"), grid)
        _MUTATION_INPUTS[shape] = (db, grid, sample)
    return _MUTATION_INPUTS[shape]


@st.composite
def boxes(draw, shape, max_len=4):
    """``(lo, hi)`` of a non-empty box of at most ``max_len`` per side."""
    lo, hi = [], []
    for size in shape:
        low = draw(st.integers(0, size - 1))
        lo.append(low)
        hi.append(draw(st.integers(low + 1, min(size, low + max_len))))
    return tuple(lo), tuple(hi)


QUERY_OPS = ("placement", "unread", "is_read", "read_cells", "unread_bounds", "fully_read_bounds")
OPS = ("read", "install", "empty", "capture", "restore", *QUERY_OPS)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_count_queries_match_oracle_under_mutations(data):
    """Interleaved mutations and count queries in 1-4 dims: every answer
    equals the oracle's, refills never outnumber stale stretches (version
    bumps and restores), a count query leaves the tables fresh, a refilled
    table is byte-equal to a fresh build, and the kernel set outlives
    every restore."""
    shape = data.draw(st.sampled_from(MUTATION_SHAPES[data.draw(st.integers(1, 4))]))
    db, grid, sample = mutation_inputs(shape)
    naive = NaiveDataManager(db, "pts", grid, MUTATION_OBJECTIVES, sample)
    dm = DataManager(db, "pts", grid, MUTATION_OBJECTIVES, sample)
    source = NaiveDataManager(db, "pts", grid, MUTATION_OBJECTIVES, sample)
    captured = None
    kern, stale_stretches = dm.kernels, 0
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=40)):
        version = dm.version
        if op in ("read", "empty"):
            window = Window(*data.draw(boxes(shape)))
            for m in (naive, dm):
                m.read_window(window) if op == "read" else m.mark_region_empty(window)
        elif op == "install":
            cell = data.draw(boxes(shape, max_len=1))[0]
            source.read_window(Window.single_cell(cell))
            for m in (naive, dm):
                m.install_cell(cell, source.cell_payload(cell))
        elif op == "capture":
            captured = (naive.state(), dm.state())
        elif op == "restore" and captured is not None:
            naive.restore_state(captured[0])
            dm.restore_state(captured[1])
        elif op == "placement":
            lengths = tuple(data.draw(st.integers(1, size)) for size in shape)
            dm.kernels.placement_fully_read(lengths)
        elif op in ("unread", "is_read", "read_cells"):
            window = Window(*data.draw(boxes(shape)))
            if op == "unread":
                assert dm.kernels.unread_objects(window) == naive.unread_objects(window)
            elif op == "is_read":
                assert dm.kernels.is_read(window) == naive.is_read(window)
            else:
                want = int(naive.read_mask[naive.box(window)].sum())
                assert dm.kernels.read_cells(window) == want
        elif op in ("unread_bounds", "fully_read_bounds"):
            rows = data.draw(st.lists(boxes(shape), max_size=8))
            windows = [Window(lo, hi) for lo, hi in rows]
            lows = np.array([w.lo for w in windows], dtype=np.int64).reshape(-1, len(shape))
            his = np.array([w.hi for w in windows], dtype=np.int64).reshape(-1, len(shape))
            if op == "unread_bounds":
                got = dm.kernels.unread_bounds(lows, his).tolist()
                assert got == [naive.unread_objects(w) for w in windows]
            else:
                got = dm.kernels.fully_read_bounds(lows, his).tolist()
                assert got == [naive.is_read(w) for w in windows]
        assert dm.kernels is kern
        if op == "restore" and captured is not None:
            stale_stretches += 1  # a restore rewinds the version: one refill
        else:
            stale_stretches += dm.version - version
        assert kern.rebuilds <= stale_stretches
        if op in QUERY_OPS:
            assert kern._stamp == dm.version
        if kern._stamp == dm.version:
            fresh_unread = SummedAreaTable(dm.unread_count).table
            fresh_read = SummedAreaTable(dm.read_mask).table
            assert kern._unread_sat.table.tobytes() == fresh_unread.tobytes()
            assert kern._read_sat.table.tobytes() == fresh_read.tobytes()


# -- the per-window scoring pass under interleaved reads and installs --------


#: Per dimensionality, the grids of the scoring test.
SCORING_SHAPES = {1: [(30,)], 2: [(6, 7), (12, 10)], 3: [(4, 5, 6)]}
_SCORING_INPUTS: dict = {}


def scoring_inputs(shape):
    """``(db, grid, sample)`` like :func:`mutation_inputs`, plus a value
    column ``v`` for the real-valued aggregates."""
    if shape not in _SCORING_INPUTS:
        rng = np.random.default_rng(7 * math.prod(shape))
        n = 300
        columns = {
            f"x{d}": rng.uniform(0, size * (0.5 if d == 0 else 1.0), n)
            for d, size in enumerate(shape)
        }
        columns["v"] = rng.normal(25.0, 5.0, n)
        schema = TableSchema(list(columns), [f"x{d}" for d in range(len(shape))])
        db = Database()
        db.register(HeapTable("pts", schema, columns, tuples_per_block=16))
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * len(shape))
        sample = StratifiedSampler(0.3, seed=21).sample(db.table("pts"), grid)
        _SCORING_INPUTS[shape] = (db, grid, sample)
    return _SCORING_INPUTS[shape]


@st.composite
def scoring_conditions(draw, ndim):
    """One aggregate's interval predicate and one shape condition."""
    agg = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
    objective = ContentObjective.of(agg, None if agg == "count" else col("v"))
    scale = {"count": 8.0, "sum": 200.0}.get(agg, 25.0)
    low = draw(st.floats(0.0, 1.5)) * scale
    high = low + draw(st.floats(0.0, 1.0)) * scale
    eps = draw(st.one_of(st.none(), st.floats(0.1, 2.0).map(lambda f: f * scale)))
    kind = draw(st.sampled_from(list(ShapeKind)))
    shape_objective = ShapeObjective(
        kind, draw(st.integers(0, ndim - 1)) if kind is ShapeKind.LENGTH else None
    )
    above = draw(st.sampled_from([ComparisonOp.GT, ComparisonOp.GE]))
    below = draw(st.sampled_from([ComparisonOp.LT, ComparisonOp.LE]))
    shape_op = draw(st.sampled_from(list(ComparisonOp)))
    # From 2 up: ``card < 1`` admits no window and makes ``k`` zero.
    shape_value = float(draw(st.integers(2, 4)))
    return [
        ContentCondition(objective, above, low, eps),
        ContentCondition(objective, below, high, eps),
        ShapeCondition(shape_objective, shape_op, shape_value),
    ]


def float_bits(value: float) -> str:
    """``float.hex``, with every NaN one token."""
    return "nan" if math.isnan(value) else float(value).hex()


def check_bits(search, window) -> tuple | str | None:
    """``search._check_window(window)`` by bits — or the error it raises
    on a window with unread cells."""
    try:
        result = search._check_window(window)
    except ValueError:
        return "unread"
    if result is None:
        return None
    values = sorted((k, float_bits(v)) for k, v in result.objective_values.items())
    return result.window, result.bounds, float_bits(result.time), values


SCORING_OPS = ("read", "install", "score", "score", "check")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_scoring_pass_matches_oracle_under_mutations(data):
    """``_utility`` and ``_check_window`` on 1-3-d grids, every aggregate,
    with and without noise, equal the oracle's per-window composition bit
    for bit while reads and installs make the tables stale."""
    # Two draws in four are 2-d, the rank of the paper's and the ledger's
    # grids, whose corner reads do row arithmetic on the flat table view.
    ndim = data.draw(st.sampled_from([1, 2, 2, 3]))
    shape = data.draw(st.sampled_from(SCORING_SHAPES[ndim]))
    db, grid, sample = scoring_inputs(shape)
    conditions = data.draw(scoring_conditions(ndim))
    query = SWQuery(tuple(f"x{d}" for d in range(ndim)), grid, ConditionSet.of(conditions, ndim))
    noise = data.draw(st.sampled_from([None, NoiseModel(30.0)]))
    objectives = query.conditions.content_objectives()
    config = SearchConfig(s=data.draw(st.sampled_from([0.0, 0.5, 1.0])))
    naive = NaiveSearch(
        query, NaiveDataManager(db, "pts", grid, objectives, sample, noise=noise), config
    )
    search = HeuristicSearch(
        query, DataManager(db, "pts", grid, objectives, sample, noise=noise), config
    )
    source = NaiveDataManager(db, "pts", grid, objectives, sample)
    for op in data.draw(st.lists(st.sampled_from(SCORING_OPS), min_size=1, max_size=40)):
        window = Window(*data.draw(boxes(shape)))
        if op == "read":
            for core in (naive, search):
                core.data.read_window(window)
        elif op == "install":
            cell = window.lo
            source.read_window(Window.single_cell(cell))
            for core in (naive, search):
                core.data.install_cell(cell, source.cell_payload(cell))
        elif op == "score":
            want = [float_bits(v) for v in naive._utility(window)]
            assert [float_bits(v) for v in search._utility(window)] == want
            model = search.utility_model
            assert float_bits(model.benefit(window)) == want[1]
            assert float_bits(model.utility(window)) == want[0]
        else:
            assert check_bits(search, window) == check_bits(naive, window)


# -- real-valued window sums in numpy's order --------------------------------


#: Per dimensionality, a grid holding boxes on both sides of the 4096-cell
#: guard (the whole grid is above it).
BOX_SUM_SHAPES = {1: (4400,), 2: (66, 66), 3: (17, 17, 17)}
SUM_OBJECTIVES = [ContentObjective.of("sum", col("v")), ContentObjective.of("avg", col("v"))]
_BOX_SUM_INPUTS: dict = {}


def box_sum_managers(shape):
    """``(kernel manager, naive manager)`` over one grid, built once; each
    example overwrites their ``eff_sum`` grid in place."""
    if shape not in _BOX_SUM_INPUTS:
        rng = np.random.default_rng(11 * math.prod(shape))
        n = 3000
        columns = {f"x{d}": rng.uniform(0, size, n) for d, size in enumerate(shape)}
        columns["v"] = rng.normal(25.0, 5.0, n)
        schema = TableSchema(list(columns), [f"x{d}" for d in range(len(shape))])
        db = Database()
        db.register(HeapTable("pts", schema, columns, tuples_per_block=64))
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * len(shape))
        sample = StratifiedSampler(0.3, seed=21).sample(db.table("pts"), grid)
        _BOX_SUM_INPUTS[shape] = tuple(
            cls(db, "pts", grid, SUM_OBJECTIVES, sample)
            for cls in (DataManager, NaiveDataManager)
        )
    return _BOX_SUM_INPUTS[shape]


#: Values that expose summation order: -0.0, +0.0, subnormals, NaN, ±inf.
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-315, math.nan, math.inf, -math.inf]


def order_sensitive_values(rng, shape, mix):
    """float64 grid values of one of four mixes."""
    signs = rng.choice([-1.0, 1.0], shape)
    if mix == "negative zeros":
        return np.full(shape, -0.0)
    if mix == "moderate":  # the ledger's range
        return signs * 10.0 ** rng.uniform(-3, 8, shape)
    values = signs * 10.0 ** rng.uniform(-300, 300, shape)
    specials = SPECIAL_VALUES if mix == "special" else SPECIAL_VALUES[:6]
    picks = rng.integers(0, 2 * len(specials), shape)
    chosen = picks < len(specials)
    values[chosen] = np.asarray(specials)[picks[chosen]]
    return values


@st.composite
def sum_boxes(draw, shape):
    """``(lo, hi)``: small boxes around the scalar path's cell limit, any
    box, or the whole grid (above the 4096-cell guard)."""
    size = draw(st.sampled_from(["small", "any", "whole"]))
    if size == "whole":
        return (0,) * len(shape), tuple(shape)
    cap = {1: 20, 2: 5, 3: 3}[len(shape)] if size == "small" else max(shape)
    lo, hi = [], []
    for extent in shape:
        length = draw(st.integers(1, min(cap, extent)))
        low = draw(st.integers(0, extent - length))
        lo.append(low)
        hi.append(low + length)
    return tuple(lo), tuple(hi)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@np.errstate(invalid="ignore", over="ignore")
def test_window_sums_are_numpy_slice_sums(data):
    """``DataKernels.window_sum`` equals ``float(arr[box].sum())`` by
    ``float.hex`` on 1-3-d grids, and ``reduce`` / ``reduce_bounds`` for
    ``sum`` and ``avg`` equal the oracle's slice reductions."""
    shape = BOX_SUM_SHAPES[data.draw(st.integers(1, 3))]
    dm, naive = box_sum_managers(shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mix = data.draw(st.sampled_from(["moderate", "wide", "special", "negative zeros"]))
    key = SUM_OBJECTIVES[0].key
    values = order_sensitive_values(rng, shape, mix)
    # In place, as the Data Manager itself writes them: the kernels' flat
    # views must see every write.
    dm.eff_sum[key][...] = values
    naive.eff_sum[key][...] = values
    kern = dm.kernels
    rows = data.draw(st.lists(sum_boxes(shape), min_size=1, max_size=4))
    for lo, hi in rows:
        box = tuple(map(slice, lo, hi))
        got = kern.window_sum(key, lo, hi)
        assert got.hex() == float(values[box].sum()).hex()
        lengths = tuple(h - l for l, h in zip(lo, hi))
        cells = math.prod(lengths)
        # Above the scalar path's limit — so above the 4096-cell guard
        # too, as every whole grid is — numpy's own slice sum answers.
        assert (kern._box_cells[lengths] is None) == (cells > _SCALAR_SUM_MAX_CELLS)
        assert lengths != shape or cells > _SLIDING_MAX_CELLS
        window = Window(lo, hi)
        for objective in SUM_OBJECTIVES:
            assert float_bits(kern.reduce(objective, window)) == float_bits(
                naive._reduce(objective, window)
            )
    lows = np.array([lo for lo, _ in rows], dtype=np.int64)
    his = np.array([hi for _, hi in rows], dtype=np.int64)
    for objective in SUM_OBJECTIVES:
        got = [float_bits(v) for v in kern.reduce_bounds(objective, lows, his).tolist()]
        want = [float_bits(naive._reduce(objective, Window(lo, hi))) for lo, hi in rows]
        assert got == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(width=64) | st.sampled_from(SPECIAL_VALUES), min_size=0, max_size=128
    )
)
@np.errstate(invalid="ignore", over="ignore")
def test_pairwise_sum_is_numpy_add_reduce(values):
    """Up to 128 values — one block of numpy's pairwise sum — in any mix."""
    want = float(np.array(values, dtype=np.float64).sum()).hex()
    assert pairwise_sum(values).hex() == want
    assert pairwise_sum(tuple(values)).hex() == want


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
