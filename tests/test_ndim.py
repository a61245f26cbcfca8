"""End-to-end tests in one and three dimensions.

The model is n-dimensional throughout (Section 2); the paper's
experiments are 1-D/2-D, so these tests guard the general code paths:
3-D windows, neighbors in six directions, Morton-order placement,
inclusion–exclusion box sums, and 3-D prefetch extension.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    SearchConfig,
    SWEngine,
    SWQuery,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    Window,
    col,
    enumerate_windows,
)
from repro.dbms import run_sql_baseline
from repro.storage import Database, HeapTable, TableSchema
from repro.storage.placement import cell_flat_ids, order_rows

from .naive_oracle import NaiveEngine


def make_cube_db():
    """A 6x6x6 grid with a hot 2x2x2 sub-cube of high values."""
    rng = np.random.default_rng(71)
    n = 4000
    x, y, z = (rng.uniform(0, 6, n) for _ in range(3))
    v = np.full(n, 10.0)
    hot = (x >= 2) & (x < 4) & (y >= 2) & (y < 4) & (z >= 2) & (z < 4)
    v[hot] = 90.0
    v += rng.normal(0, 1, n)
    schema = TableSchema(["x", "y", "z", "v"], ["x", "y", "z"])
    columns = {"x": x, "y": y, "z": z, "v": v}
    perm = order_rows(
        "hilbert",  # 3-D: falls back to Morton order
        np.column_stack([x, y, z]),
    )
    table = HeapTable("cube", schema, {k: c[perm] for k, c in columns.items()}, 8)
    db = Database()
    db.register(table)
    return db


@pytest.fixture(scope="module")
def cube_db():
    return make_cube_db()


@pytest.fixture(scope="module")
def cube_query():
    return SWQuery.build(
        dimensions=("x", "y", "z"),
        area=[(0.0, 6.0)] * 3,
        steps=(1.0, 1.0, 1.0),
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 8),
            ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 60.0),
        ],
    )


def brute_force_3d(db, query):
    table = db.table("cube")
    grid = query.grid
    flat = cell_flat_ids(table.coordinates(), grid)
    counts = np.bincount(flat, minlength=grid.num_cells).reshape(grid.shape)
    sums = np.bincount(
        flat, weights=table.column("v"), minlength=grid.num_cells
    ).reshape(grid.shape)
    out = set()
    for w in enumerate_windows(grid, max_lengths=(8, 8, 8)):
        if w.cardinality > 8:
            continue
        box = tuple(slice(l, u) for l, u in zip(w.lo, w.hi))
        c = counts[box].sum()
        if c > 0 and sums[box].sum() / c > 60.0:
            out.add(w)
    return out


class Test3D:
    def test_window_neighbors_in_six_directions(self):
        grid = Grid(Rect.from_bounds([(0.0, 6.0)] * 3), (1.0, 1.0, 1.0))
        w = Window((2, 2, 2), (3, 3, 3))
        assert len(list(w.neighbors(grid))) == 6

    def test_engine_matches_brute_force(self, cube_db, cube_query):
        engine = SWEngine(cube_db, "cube", sample_fraction=0.3)
        run = engine.execute(cube_query, SearchConfig(alpha=0.5)).run
        expected = brute_force_3d(cube_db, cube_query)
        assert {r.window for r in run.results} == expected
        assert run.num_results > 0

    def test_results_inside_hot_cube(self, cube_db, cube_query):
        engine = SWEngine(cube_db, "cube", sample_fraction=0.3)
        run = engine.execute(cube_query).run
        hot = Window((2, 2, 2), (4, 4, 4))
        for r in run.results:
            assert r.window.overlaps(hot)

    def test_baseline_agrees(self, cube_db, cube_query):
        baseline = run_sql_baseline(cube_db, "cube", cube_query)
        expected = brute_force_3d(cube_db, cube_query)
        assert {r.window for r in baseline.results} == expected

    def test_3d_prefetch_stays_exact(self, cube_db, cube_query):
        engine = SWEngine(cube_db, "cube", sample_fraction=0.3)
        run = engine.execute(cube_query, SearchConfig(alpha=2.0)).run
        assert {r.window for r in run.results} == brute_force_3d(cube_db, cube_query)


    def test_exhaustive_kernel_run_equals_naive(self, cube_query):
        """One window at a time in any dimensionality: same pops, same bytes."""
        fingerprints = []
        for engine_cls in (SWEngine, NaiveEngine):
            engine = engine_cls(make_cube_db(), "cube", sample_fraction=0.3)
            run = engine.execute(cube_query, SearchConfig(alpha=0.5)).run
            assert not run.interrupted
            fingerprints.append(
                (
                    [
                        (r.window, r.bounds, tuple(r.objective_values.items()), r.time)
                        for r in run.results
                    ],
                    run.completion_time_s,
                    dataclasses.asdict(run.stats),
                )
            )
        kernel, naive = fingerprints
        assert kernel == naive
        stats = kernel[2]
        # The caps fire (card <= 8 in a 6x6x6 grid) and every generated
        # window is explored exactly once.
        assert stats["capped_extensions"] > 0
        assert stats["explored"] == stats["generated"] > len(kernel[0]) > 0


class Test1DStockLike:
    def test_min_max_aggregate_query(self):
        rng = np.random.default_rng(72)
        n = 500
        t = np.sort(rng.uniform(0, 50, n))
        v = np.sin(t / 4.0) * 10 + 20 + rng.normal(0, 0.2, n)
        schema = TableSchema(["t", "v"], ["t"])
        db = Database()
        db.register(HeapTable("wave", schema, {"t": t, "v": v}, 8))
        query = SWQuery.build(
            dimensions=("t",),
            area=[(0.0, 50.0)],
            steps=(2.0,),
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.LE, 3),
                ContentCondition(ContentObjective.of("min", col("v")), ComparisonOp.GT, 25.0),
            ],
        )
        run = SWEngine(db, "wave", sample_fraction=0.5).execute(query).run
        # Verify exactly against the data.
        for r in run.results:
            lo, hi = r.bounds[0].lo, r.bounds[0].hi
            mask = (t >= lo) & (t < hi)
            assert v[mask].min() > 25.0
        # And completeness for single-cell windows.
        for cell_start in np.arange(0, 50, 2.0):
            mask = (t >= cell_start) & (t < cell_start + 2.0)
            if mask.any() and v[mask].min() > 25.0:
                assert any(
                    r.bounds[0].lo <= cell_start < r.bounds[0].hi for r in run.results
                )
