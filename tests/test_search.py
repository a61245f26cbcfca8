"""Correctness tests for the heuristic online search (Algorithm 1).

The core guarantee is exactness: whatever the configuration (prefetching,
diversification, lazy updates, placement), the search returns exactly the
windows that satisfy all conditions — validated here against a brute-force
enumeration, including on hypothesis-generated random datasets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    SearchConfig,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    SWEngine,
    SWQuery,
    Window,
    col,
    enumerate_windows,
)
from repro.storage import Database, HeapTable, TableSchema
from repro.storage.placement import cell_flat_ids
from repro.workloads import make_database

from .naive_oracle import NaiveEngine


def brute_force_results(query: SWQuery, table: HeapTable) -> set[Window]:
    """Reference: evaluate every window exactly with numpy."""
    grid = query.grid
    coords = table.coordinates()
    flat = cell_flat_ids(coords, grid)
    inside = flat >= 0
    counts = np.bincount(flat[inside], minlength=grid.num_cells).reshape(grid.shape)
    sums = {}
    mins = {}
    maxs = {}
    for objective in query.conditions.content_objectives():
        if not objective.aggregate.needs_values:
            continue
        values = np.broadcast_to(
            objective.expr.evaluate({c: table.column(c) for c in table.schema.columns}),
            (table.num_rows,),
        )[inside]
        key = objective.key
        sums[key] = np.bincount(
            flat[inside], weights=values, minlength=grid.num_cells
        ).reshape(grid.shape)
        mn = np.full(grid.num_cells, np.inf)
        mx = np.full(grid.num_cells, -np.inf)
        np.minimum.at(mn, flat[inside], values)
        np.maximum.at(mx, flat[inside], values)
        mins[key] = mn.reshape(grid.shape)
        maxs[key] = mx.reshape(grid.shape)

    out = set()
    max_lengths = query.conditions.max_lengths(grid.shape)
    for window in enumerate_windows(grid, max_lengths=max_lengths):
        if not query.conditions.shape_satisfied(window):
            continue
        box = tuple(slice(l, u) for l, u in zip(window.lo, window.hi))
        ok = True
        for cond in query.conditions.content_conditions:
            agg = cond.objective.aggregate.name
            key = cond.objective.key
            count = counts[box].sum()
            if agg == "count":
                value = float(count)
            elif agg == "sum":
                value = float(sums[key][box].sum())
            elif agg == "avg":
                value = float(sums[key][box].sum() / count) if count else math.nan
            elif agg == "min":
                value = float(mins[key][box].min())
                value = value if math.isfinite(value) else math.nan
            else:
                value = float(maxs[key][box].max())
                value = value if math.isfinite(value) else math.nan
            if not cond.evaluate_value(value):
                ok = False
                break
        if ok:
            out.add(window)
    return out


def run_search(db, table_name, query, config=None, engine_cls=SWEngine, **engine_kwargs):
    engine = engine_cls(db, table_name, sample_fraction=0.3, **engine_kwargs)
    report = engine.execute(query, config)
    return report.run


class TestExactness:
    def test_matches_brute_force(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        expected = brute_force_results(tiny_query, tiny_db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_prefetch_preserves_results(self, tiny_dataset, tiny_query, alpha):
        db = make_database(tiny_dataset, "cluster")
        run = run_search(db, tiny_dataset.name, tiny_query, SearchConfig(alpha=alpha))
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    @pytest.mark.parametrize("placement", ["axis", "hilbert", "random"])
    def test_placement_preserves_results(self, tiny_dataset, tiny_query, placement):
        db = make_database(tiny_dataset, placement)
        run = run_search(db, tiny_dataset.name, tiny_query)
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    @pytest.mark.parametrize(
        "diversification", ["utility_jumps", "dist_jumps", "static"]
    )
    def test_diversification_preserves_results(self, tiny_dataset, tiny_query, diversification):
        db = make_database(tiny_dataset, "cluster")
        run = run_search(
            db,
            tiny_dataset.name,
            tiny_query,
            SearchConfig(diversification=diversification),
        )
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    def test_stale_utilities_preserve_results(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        run = run_search(
            db, tiny_dataset.name, tiny_query, SearchConfig(lazy_updates=False)
        )
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    def test_queue_refresh_preserves_results(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        run = run_search(
            db, tiny_dataset.name, tiny_query, SearchConfig(refresh_reads=10)
        )
        assert run.stats.refreshes > 0
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    def test_spilling_queue_preserves_results(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        run = run_search(
            db, tiny_dataset.name, tiny_query, SearchConfig(head_capacity=64)
        )
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    def test_noisy_estimates_preserve_results(self, tiny_dataset, tiny_query):
        from repro.sampling import NoiseModel

        db = make_database(tiny_dataset, "cluster")
        run = run_search(
            db, tiny_dataset.name, tiny_query, noise=NoiseModel(50.0)
        )
        expected = brute_force_results(tiny_query, db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected


@st.composite
def random_tables(draw):
    """Small random 2-D datasets with one value column."""
    n = draw(st.integers(30, 150))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 8, n)
    y = rng.uniform(0, 8, n)
    v = rng.normal(20, 10, n)
    schema = TableSchema(["x", "y", "v"], ["x", "y"])
    return HeapTable("rand", schema, {"x": x, "y": y, "v": v}, tuples_per_block=8)


@st.composite
def random_queries(draw):
    card_cap = draw(st.integers(2, 8))
    threshold = draw(st.floats(min_value=5, max_value=35, allow_nan=False))
    op = draw(st.sampled_from([ComparisonOp.GT, ComparisonOp.LT]))
    conditions = [
        ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, card_cap),
        ContentCondition(ContentObjective.of("avg", col("v")), op, threshold),
    ]
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[(0.0, 8.0), (0.0, 8.0)],
        steps=(1.0, 1.0),
        conditions=conditions,
    )


class TestExactnessProperty:
    @settings(max_examples=20, deadline=None)
    @given(random_tables(), random_queries(), st.floats(0.0, 2.0))
    def test_random_data_matches_brute_force(self, table, query, alpha):
        db = Database()
        db.register(table)
        engine = SWEngine(db, "rand", sample_fraction=0.5)
        run = engine.execute(query, SearchConfig(alpha=alpha)).run
        expected = brute_force_results(query, table)
        assert {r.window for r in run.results} == expected


class TestSearchBehaviour:
    def test_results_timestamps_monotone(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        times = [r.time for r in run.results]
        assert times == sorted(times)
        assert run.completion_time_s >= (times[-1] if times else 0.0)

    def test_no_duplicate_results(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        windows = [r.window for r in run.results]
        assert len(windows) == len(set(windows))

    def test_objective_values_reported(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        for result in run.results:
            value = result.objective_values["avg(value)"]
            assert 20.0 < value < 30.0

    def test_explored_at_most_generated(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        # Parked/reinserted windows can be explored once each at most.
        assert run.stats.explored <= run.stats.generated

    def test_shape_pruning_limits_generation(self, tiny_dataset, tiny_query, tiny_db):
        run = run_search(tiny_db, tiny_dataset.name, tiny_query)
        grid = tiny_query.grid
        unpruned = sum(1 for _ in enumerate_windows(grid))
        assert run.stats.generated < unpruned

    def test_min_length_start_pruning(self, tiny_dataset, tiny_db):
        grid = tiny_dataset.grid
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
            steps=grid.steps,
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 3),
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.LE, 4),
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.EQ, 2),
            ],
        )
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        search = engine.prepare(query)
        run = search.run()
        # No generated window is ever shorter than the minimum lengths.
        assert all(r.window.length(0) >= 3 for r in run.results)
        expected = brute_force_results(query, tiny_db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected

    def test_time_limit_interrupts(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "axis")
        run = run_search(
            db, tiny_dataset.name, tiny_query, SearchConfig(time_limit_s=0.05)
        )
        assert run.interrupted

    def test_anti_monotone_pruning_exact(self, tiny_dataset, tiny_db):
        grid = tiny_dataset.grid
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
            steps=grid.steps,
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 6),
                ContentCondition(ContentObjective.of("count"), ComparisonOp.LT, 150.0),
            ],
        )
        run = run_search(tiny_db, tiny_dataset.name, query, SearchConfig(assume_nonnegative=True))
        expected = brute_force_results(query, tiny_db.table(tiny_dataset.name))
        assert {r.window for r in run.results} == expected
        assert run.stats.pruned_extensions > 0

    def test_refresh_skips_fresh_frontier(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.2)
        search = engine.prepare(tiny_query)
        search._seed_start_windows()
        # Nothing was read since seeding: every frontier entry is current,
        # so a refresh would re-push the whole frontier for nothing.
        search._refresh_impl()
        assert search.stats.refresh_skipped == 1
        assert search.stats.refreshes == 0
        # A read bumps the data version; the frontier goes stale.
        _, window, _ = search.queue.pop()
        search.data.read_window(window)
        search._refresh_impl()
        assert search.stats.refreshes == 1
        assert search.stats.refresh_skipped == 1
        # The refresh restamped every entry at the new version: skip again.
        search._refresh_impl()
        assert search.stats.refresh_skipped == 2
        assert search.stats.refreshes == 1

    def test_periodic_refresh_still_fires_on_stale_frontier(
        self, tiny_dataset, tiny_query, tiny_db
    ):
        run = run_search(
            tiny_db, tiny_dataset.name, tiny_query, SearchConfig(refresh_reads=1)
        )
        assert run.stats.refreshes > 0

    def test_extension_counters_match_scalar_oracle(self, tiny_dataset):
        grid = tiny_dataset.grid
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
            steps=grid.steps,
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 6),
                ContentCondition(ContentObjective.of("count"), ComparisonOp.LT, 150.0),
            ],
        )
        stats = []
        for engine_cls in (SWEngine, NaiveEngine):
            db = make_database(tiny_dataset, "cluster")
            run = run_search(
                db,
                tiny_dataset.name,
                query,
                SearchConfig(assume_nonnegative=True),
                engine_cls=engine_cls,
            )
            stats.append((run.stats.capped_extensions, run.stats.pruned_extensions))
        # The batched expansion counts caps and prunes exactly like the
        # scalar oracle, and both actually fire on this query.
        assert stats[0] == stats[1]
        assert stats[0][0] > 0
        assert stats[0][1] > 0


class TestWindowKeys:
    """Packed integer dedup keys for the generated-windows set."""

    @pytest.fixture()
    def search(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        engine = SWEngine(db, tiny_dataset.name, sample_fraction=0.2)
        return engine.prepare(tiny_query)

    def test_key_is_injective_over_the_grid(self, search):
        shape = search.grid.shape
        bound = math.prod(shape) * math.prod(s + 1 for s in shape)
        seen = {}
        for window in enumerate_windows(search.grid, max_lengths=(4, 4)):
            key = search._key_of_bounds(window.lo, window.hi)
            assert 0 <= key < bound
            assert key not in seen, (window, seen.get(key))
            seen[key] = window

    def test_bounds_keys_match_window_keys(self, search, monkeypatch):
        for window in enumerate_windows(search.grid, max_lengths=(3, 4)):
            assert search._key_of_bounds(window.lo, window.hi) == window.key(
                search.grid.shape
            )
        # A grid too large for an int64 packing: Python integers carry on.
        big = SWQuery.build(
            ["a", "b", "c", "d"], [(0.0, 300.0)] * 4, [1.0] * 4, []
        ).grid
        assert math.prod(big.shape) * math.prod(s + 1 for s in big.shape) > 1 << 62
        monkeypatch.setattr(search, "grid", big)
        for lo, hi in (
            ((0, 0, 0, 0), (1, 1, 1, 1)),
            ((299, 299, 299, 299), (300, 300, 300, 300)),
            ((17, 0, 255, 3), (290, 1, 300, 150)),
        ):
            key = search._key_of_bounds(lo, hi)
            assert key == Window(lo, hi).key(big.shape)
            assert Window.from_key(key, big.shape) == Window(lo, hi)
        assert search._key_of_bounds((299,) * 4, (300,) * 4) > 1 << 62

    def test_push_window_dedups(self, search):
        window = Window((0, 0), (2, 2))
        search._generate_neighbors(window)
        generated = search.stats.generated
        size = len(search.queue)
        assert generated > 0
        # Walking the same window again finds every neighbour's key taken.
        search._generate_neighbors(window)
        assert search.stats.generated == generated
        assert len(search.queue) == size

    def test_seed_keys_skip_the_dedup_set(self, search):
        search._seed_start_windows()
        # Seed placements are never registered: a neighbor always strictly
        # exceeds the minimal shape in some dimension, so no candidate key
        # can ever collide with a seed key — registering them would be
        # dead weight on the dedup set.
        mins = search._min_lengths
        seed_key = search._key_of_bounds((0, 0), tuple(mins))
        assert seed_key not in search._generated
        # A seed's neighbours still dedup through _generate_neighbors.
        seed = Window((0, 0), tuple(mins))
        search._generate_neighbors(seed)
        generated = search.stats.generated
        size = len(search.queue)
        grown = search._key_of_bounds((0, 0), (mins[0] + 1,) + tuple(mins[1:]))
        assert grown in search._generated
        search._generate_neighbors(seed)
        assert search.stats.generated == generated
        assert len(search.queue) == size

    def test_batch_and_scalar_seeding_mark_same_keys(self, tiny_dataset, tiny_query):
        searches = []
        for engine_cls in (SWEngine, NaiveEngine):
            db = make_database(tiny_dataset, "cluster")
            engine = engine_cls(db, tiny_dataset.name, sample_fraction=0.2)
            search = engine.prepare(tiny_query)
            search._seed_start_windows()
            searches.append(search)
        assert searches[0]._generated == searches[1]._generated
        assert searches[0].stats.generated == searches[1].stats.generated
