"""Unit and property tests for stratified sampling, estimators, and noise."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ContentObjective, Grid, Rect, Window, col
from repro.sampling import (
    NoiseModel,
    StratifiedSampler,
    allocate_budget,
    build_objective_grids,
    default_eps,
    uniform_sample,
)
from repro.core.conditions import ComparisonOp, ContentCondition
from repro.storage import HeapTable, TableSchema


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


class TestAllocateBudget:
    def test_budget_exceeds_population(self):
        counts = np.array([5, 3, 2])
        np.testing.assert_array_equal(allocate_budget(counts, 100), counts)

    def test_even_split(self):
        counts = np.array([100, 100, 100, 100])
        np.testing.assert_array_equal(allocate_budget(counts, 40), [10, 10, 10, 10])

    def test_redistribution_from_small_cells(self):
        # Cell 0 can only give 2; its unused budget flows to the others.
        counts = np.array([2, 100, 100])
        quotas = allocate_budget(counts, 30)
        assert quotas[0] == 2
        assert quotas[1] + quotas[2] == 28

    def test_empty_cells_get_nothing(self):
        quotas = allocate_budget(np.array([0, 50]), 10)
        assert quotas[0] == 0
        assert quotas[1] == 10

    def test_remainder_distributed(self):
        quotas = allocate_budget(np.array([10, 10, 10]), 8)
        assert quotas.sum() == 8
        assert quotas.max() - quotas.min() <= 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            allocate_budget(np.array([1]), -1)

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=30),
        st.integers(0, 500),
    )
    def test_quota_invariants(self, counts, budget):
        counts = np.array(counts)
        quotas = allocate_budget(counts, budget)
        assert np.all(quotas >= 0)
        assert np.all(quotas <= counts)
        assert quotas.sum() == min(budget, counts.sum())


class TestStratifiedSampler:
    def test_sample_counts_consistent(self, small_table, grid):
        sample = StratifiedSampler(0.1, seed=1).sample(small_table, grid)
        assert sample.size == sample.rows.size == sample.cells.size
        assert sample.cell_sample_counts.sum() == sample.size
        assert sample.cell_true_counts.sum() == small_table.num_rows

    def test_true_counts_exact(self, small_table, grid):
        sample = StratifiedSampler(0.05, seed=2).sample(small_table, grid)
        coords = small_table.coordinates()
        for idx in [(0, 0), (5, 5), (9, 9)]:
            mask = (
                (coords[:, 0] >= idx[0])
                & (coords[:, 0] < idx[0] + 1)
                & (coords[:, 1] >= idx[1])
                & (coords[:, 1] < idx[1] + 1)
            )
            assert sample.cell_true_counts[idx] == int(mask.sum())

    def test_sampled_rows_belong_to_their_cells(self, small_table, grid):
        sample = StratifiedSampler(0.2, seed=3).sample(small_table, grid)
        coords = small_table.coordinates()[sample.rows]
        for (x, y), flat in zip(coords, sample.cells):
            assert grid.flat_id(grid.cell_of_point((x, y))) == flat

    def test_budget_respected(self, small_table, grid):
        sample = StratifiedSampler(0.1, seed=4).sample(small_table, grid)
        assert sample.size == int(round(0.1 * small_table.num_rows))

    def test_full_sample(self, small_table, grid):
        sample = StratifiedSampler(1.0, seed=5).sample(small_table, grid)
        assert sample.size == small_table.num_rows
        np.testing.assert_array_equal(sample.ratios(), np.ones(grid.shape))

    def test_deterministic(self, small_table, grid):
        a = StratifiedSampler(0.1, seed=6).sample(small_table, grid)
        b = StratifiedSampler(0.1, seed=6).sample(small_table, grid)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            StratifiedSampler(0.0)
        with pytest.raises(ValueError, match="fraction"):
            StratifiedSampler(1.5)

    def test_stratification_is_more_even_than_uniform(self, grid):
        """Stratified per-cell coverage beats uniform SRS on skewed data."""
        rng = np.random.default_rng(8)
        # 80% of tuples in one corner cell, the rest spread out.
        n = 2000
        hot = int(n * 0.8)
        x = np.concatenate([rng.uniform(0, 1, hot), rng.uniform(0, 10, n - hot)])
        y = np.concatenate([rng.uniform(0, 1, hot), rng.uniform(0, 10, n - hot)])
        table = HeapTable(
            "skew", TableSchema(["x", "y"], ["x", "y"]), {"x": x, "y": y}
        )
        strat = StratifiedSampler(0.05, seed=9).sample(table, grid)
        unif = uniform_sample(table, grid, 0.05, seed=9)
        covered = lambda s: int(((s.cell_sample_counts > 0) & (s.cell_true_counts > 0)).sum())
        assert covered(strat) > covered(unif)


class TestObjectiveGrids:
    def test_full_sample_estimates_exact(self, small_table, grid):
        sample = StratifiedSampler(1.0, seed=10).sample(small_table, grid)
        obj = ContentObjective.of("avg", col("v"))
        grids = build_objective_grids(small_table, grid, sample, obj)
        coords = small_table.coordinates()
        v = small_table.column("v")
        idx = (3, 3)
        mask = (
            (coords[:, 0] >= 3) & (coords[:, 0] < 4) & (coords[:, 1] >= 3) & (coords[:, 1] < 4)
        )
        if mask.sum():
            assert grids.scaled_sum[idx] == pytest.approx(float(v[mask].sum()))
            assert grids.sample_min[idx] == pytest.approx(float(v[mask].min()))

    def test_ratio_scaling_unbiased_total(self, small_table, grid):
        sample = StratifiedSampler(0.5, seed=11).sample(small_table, grid)
        obj = ContentObjective.of("sum", col("v"))
        grids = build_objective_grids(small_table, grid, sample, obj)
        true_total = float(small_table.column("v").sum())
        assert grids.scaled_sum.sum() == pytest.approx(true_total, rel=0.15)

    def test_count_objective_has_no_value_grids(self, small_table, grid):
        sample = StratifiedSampler(0.1, seed=12).sample(small_table, grid)
        grids = build_objective_grids(small_table, grid, sample, ContentObjective.of("count"))
        assert np.all(grids.scaled_sum == 0.0)

    def test_default_eps_avg(self, small_table, grid):
        sample = StratifiedSampler(1.0, seed=13).sample(small_table, grid)
        obj = ContentObjective.of("avg", col("v"))
        grids = build_objective_grids(small_table, grid, sample, obj)
        cond = ContentCondition(obj, ComparisonOp.GT, 25.0)
        eps = default_eps(cond, grids, total_count=600)
        v = small_table.column("v")
        expected = max(abs(25.0 - v.min()), abs(25.0 - v.max()))
        assert eps == pytest.approx(expected)

    def test_default_eps_positive(self, small_table, grid):
        sample = StratifiedSampler(0.1, seed=14).sample(small_table, grid)
        obj = ContentObjective.of("sum", col("v"))
        grids = build_objective_grids(small_table, grid, sample, obj)
        cond = ContentCondition(obj, ComparisonOp.LT, 100.0)
        assert default_eps(cond, grids, total_count=600) > 0

    def test_gathers_only_the_columns_the_expression_reads(self, small_table, grid):
        """Same grids bit for bit, without touching the rest of the schema."""

        class Counting:
            """Table handle recording which columns are gathered."""

            def __init__(self, table):
                self._table, self.schema, self.gathered = table, table.schema, []

            def gather(self, name, rows):
                self.gathered.append(name)
                return self._table.gather(name, rows)

        sample = StratifiedSampler(0.3, seed=15).sample(small_table, grid)
        obj = ContentObjective.of("avg", col("v") * col("x"))
        spy = Counting(small_table)
        grids = build_objective_grids(spy, grid, sample, obj)
        assert spy.gathered == ["v", "x"] and "y" in small_table.schema.columns
        everything = {c: small_table.gather(c, sample.rows) for c in small_table.schema.columns}
        values = obj.expr.evaluate(everything)
        sums = np.bincount(sample.cells, weights=values, minlength=grid.num_cells)
        ratios = sample.ratios().reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.where(ratios > 0, sums / ratios, 0.0).reshape(grid.shape)
        np.testing.assert_array_equal(grids.scaled_sum, expected)
        assert (grids.value_min, grids.value_max) == (values.min(), values.max())

    def test_unknown_column_names_the_available_ones(self, small_table, grid):
        sample = StratifiedSampler(0.3, seed=16).sample(small_table, grid)
        obj = ContentObjective.of("avg", col("nope"))
        with pytest.raises(KeyError, match="unknown column 'nope'.*available.*'v'"):
            build_objective_grids(small_table, grid, sample, obj)


class TestNoiseModel:
    def test_deterministic_per_window(self):
        noise = NoiseModel(20.0, seed=1)
        w = Window((0, 0), (2, 2))
        assert noise.perturb(w.lo, w.hi, 100.0) == noise.perturb(w.lo, w.hi, 100.0)

    def test_different_windows_differ(self):
        noise = NoiseModel(20.0, seed=1)
        a = noise.perturb((0, 0), (2, 2), 100.0)
        b = noise.perturb((1, 0), (3, 2), 100.0)
        assert a != b

    def test_draws_pinned(self):
        """The draw is keyed on the bounds alone: these values were drawn
        when perturbation still took ``Window`` objects."""
        noise = NoiseModel(20.0, seed=1)
        assert noise.perturb((0, 0), (2, 2), 100.0) == 80.8362258953278
        assert noise.perturb((1, 0), (3, 2), 100.0) == 120.64865473763587
        noise = NoiseModel(150.0, std_pct=50.0, seed=3)
        assert [noise.perturb((i, 0), (i + 1, 1), 40.0) for i in range(4)] == [
            118.60253206881296, 97.19085194309267, 77.8378448132324, 0.0,
        ]

    def test_perturb_many_touches_only_unread_rows(self):
        noise = NoiseModel(20.0, seed=1)
        lows = np.array([[0, 0], [1, 0], [4, 4]])
        his = lows + 2
        out = noise.perturb_many(
            lows, his, np.array([100.0, 100.0, 7.0]), np.array([True, False, True])
        )
        assert out.tolist() == [
            noise.perturb((0, 0), (2, 2), 100.0),
            100.0,
            noise.perturb((4, 4), (6, 6), 7.0),
        ]

    def test_zero_noise_identity(self):
        noise = NoiseModel(0.0, std_pct=0.0)
        assert noise.perturb((0, 0), (1, 1), 42.0) == 42.0

    def test_mean_magnitude(self):
        """Average |perturbation| tracks the configured percentage."""
        noise = NoiseModel(20.0, std_pct=0.0, seed=2)
        deviations = [
            abs(noise.perturb((i, 0), (i + 1, 1), 100.0) - 100.0)
            for i in range(200)
        ]
        assert np.mean(deviations) == pytest.approx(20.0, rel=0.05)

    def test_large_noise_never_flips_sign(self):
        """Regression: n > 100 used to turn ``1 - n/100`` negative.

        A 150 % mean draw with the unlucky sign made the perturbed
        estimate ``v * (1 - 1.5) = -0.5 v`` — a negative count — which
        silently inverted comparisons against the condition threshold.
        Perturbation must bottom out at zero instead.
        """
        noise = NoiseModel(150.0, std_pct=50.0, seed=3)
        values = [
            noise.perturb((i, 0), (i + 1, 1), 40.0) for i in range(300)
        ]
        assert min(values) >= 0.0
        assert any(v == 0.0 for v in values)  # the clamp actually engages
        # Draws below 100 % still perturb normally in both directions.
        assert any(v > 40.0 for v in values) and any(0.0 < v < 40.0 for v in values)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel(-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel(1.0, std_pct=-1.0)
