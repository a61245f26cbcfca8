"""Tests for the distributed layer: partitioning, network, end-to-end runs."""

from __future__ import annotations

import pytest

from repro.core import Grid, Rect, SearchConfig, SWEngine
from repro.costs import CostModel
from repro.distributed import (
    CellRequest,
    CellResponse,
    DistributedConfig,
    Network,
    plan_partitions,
    run_distributed,
)
from repro.workloads import make_database


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 100.0), (0.0, 100.0)]), (5.0, 5.0))  # 20x20


class TestPartitionPlan:
    def test_even_split(self, grid):
        plan = plan_partitions(grid, 4)
        assert plan.boundaries == (0, 5, 10, 15, 20)
        assert plan.data_extension == 0

    def test_anchor_and_data_ranges(self, grid):
        plan = plan_partitions(grid, 4)
        assert plan.anchor_slab(1) == (5, 10)
        assert plan.data_range(1) == (5, 10)

    def test_owner_of_cell(self, grid):
        plan = plan_partitions(grid, 4)
        assert plan.owner_of_cell(0) == 0
        assert plan.owner_of_cell(7) == 1
        assert plan.owner_of_cell(19) == 3
        with pytest.raises(ValueError, match="beyond"):
            plan.owner_of_cell(20)

    def test_full_overlap_extension(self, grid):
        plan = plan_partitions(grid, 4, overlap="full_overlap", max_window_length_dim0=6)
        assert plan.data_extension == 5
        assert plan.data_range(0) == (0, 10)
        assert plan.data_range(3) == (15, 20)  # clipped at the grid edge

    def test_part_overlap_extension(self, grid):
        plan = plan_partitions(grid, 4, overlap="part_overlap", max_window_length_dim0=6)
        assert plan.data_extension == 2

    def test_overlap_requires_shape_bound(self, grid):
        with pytest.raises(ValueError, match="max_window_length_dim0"):
            plan_partitions(grid, 4, overlap="full_overlap")

    def test_weighted_balancing(self, grid):
        import numpy as np

        weights = np.ones(grid.shape)
        weights[:5, :] = 10.0  # first quarter holds most data
        plan = plan_partitions(grid, 2, cell_weights=weights)
        # Worker 0's slab should be narrower than half the grid.
        assert plan.boundaries[1] < 10

    def test_skew_shifts_boundaries(self, grid):
        even = plan_partitions(grid, 4)
        skewed = plan_partitions(grid, 4, skew=0.5)
        assert skewed.boundaries[1] > even.boundaries[1]

    def test_validation(self, grid):
        with pytest.raises(ValueError, match="at least one worker"):
            plan_partitions(grid, 0)
        with pytest.raises(ValueError, match="cannot split"):
            plan_partitions(grid, 50)
        with pytest.raises(ValueError, match="skew"):
            plan_partitions(grid, 2, skew=1.0)


class TestNetwork:
    def test_latency_ordering(self):
        net = Network(2, CostModel(network_latency_ms=1.0))
        net.send(1, CellRequest(0, ((0, 0),)), sent_at=0.0)
        assert net.receive(1, now=0.0005) == []
        messages = net.receive(1, now=0.01)
        assert len(messages) == 1
        assert isinstance(messages[0], CellRequest)

    def test_earliest_arrival(self):
        net = Network(2, CostModel(network_latency_ms=1.0))
        assert net.earliest_arrival(1) is None
        net.send(1, CellRequest(0, ((0, 0),)), sent_at=5.0)
        assert net.earliest_arrival(1) == pytest.approx(5.001, rel=0.1)

    def test_cells_shipped_counted(self):
        net = Network(2, CostModel())
        net.send(0, CellResponse(1, {(0, 0): {}, (0, 1): {}}), sent_at=0.0)
        assert net.cells_shipped == 2
        assert net.messages_sent == 1

    def test_pending(self):
        net = Network(2, CostModel())
        net.send(1, CellRequest(0, ((0, 0),)), sent_at=0.0)
        assert net.pending(1) == 1
        net.receive(1, now=10.0)
        assert net.pending(1) == 0


class TestDistributedRuns:
    def _single_node_windows(self, dataset, query):
        db = make_database(dataset, "cluster")
        run = SWEngine(db, dataset.name, sample_fraction=0.3).execute(query).run
        return {r.window for r in run.results}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_single_node(self, tiny_dataset, tiny_query, workers):
        config = DistributedConfig(
            num_workers=workers, search=SearchConfig(alpha=0.5), sample_fraction=0.3
        )
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert {r.window for r in report.results} == self._single_node_windows(
            tiny_dataset, tiny_query
        )

    @pytest.mark.parametrize("overlap", ["no_overlap", "full_overlap", "part_overlap"])
    def test_overlap_modes_match(self, tiny_dataset, tiny_query, overlap):
        config = DistributedConfig(
            num_workers=2,
            overlap=overlap,
            search=SearchConfig(alpha=0.5),
            sample_fraction=0.3,
        )
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert {r.window for r in report.results} == self._single_node_windows(
            tiny_dataset, tiny_query
        )

    def test_full_overlap_no_messages(self, tiny_dataset, tiny_query):
        config = DistributedConfig(
            num_workers=2, overlap="full_overlap", sample_fraction=0.3
        )
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert report.messages_sent == 0

    def test_no_overlap_uses_remote_requests(self, tiny_dataset, tiny_query):
        config = DistributedConfig(
            num_workers=2, overlap="no_overlap", sample_fraction=0.3
        )
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert report.messages_sent > 0
        assert report.cells_shipped > 0

    def test_result_times_sorted(self, tiny_dataset, tiny_query):
        config = DistributedConfig(num_workers=2, sample_fraction=0.3)
        report = run_distributed(tiny_dataset, tiny_query, config)
        times = [r.time for r in report.results]
        assert times == sorted(times)
        assert report.total_time_s >= max(times)

    def test_more_workers_not_slower(self, tiny_dataset, tiny_query):
        t1 = run_distributed(
            tiny_dataset, tiny_query, DistributedConfig(num_workers=1, sample_fraction=0.3)
        ).total_time_s
        t4 = run_distributed(
            tiny_dataset, tiny_query, DistributedConfig(num_workers=4, sample_fraction=0.3)
        ).total_time_s
        assert t4 < t1

    def test_per_worker_stats_reported(self, tiny_dataset, tiny_query):
        config = DistributedConfig(num_workers=3, sample_fraction=0.3)
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert len(report.worker_times_s) == 3
        assert sum(report.worker_result_counts) == report.num_results
        assert report.total_time_s == pytest.approx(max(report.worker_times_s))

    def test_worker_activity_stats(self, tiny_dataset, tiny_query):
        config = DistributedConfig(num_workers=3, sample_fraction=0.3)
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert len(report.worker_reads) == 3
        assert len(report.worker_explored) == 3
        assert len(report.worker_blocks_read) == 3
        # Every worker did some exploration and some I/O.
        assert all(e > 0 for e in report.worker_explored)
        assert all(b > 0 for b in report.worker_blocks_read)

    def test_on_result_streaming(self, tiny_dataset, tiny_query):
        streamed = []
        config = DistributedConfig(num_workers=2, sample_fraction=0.3)
        report = run_distributed(
            tiny_dataset,
            tiny_query,
            config,
            on_result=lambda wid, res: streamed.append((wid, res.window)),
        )
        assert len(streamed) == report.num_results
        assert {w for _, w in streamed} == {r.window for r in report.results}
        assert {wid for wid, _ in streamed} <= {0, 1}


class TestNarrowSlabRegression:
    def test_min_length_query_with_narrow_last_slab(self):
        """A slab narrower than the minimum window length seeds no windows;
        its owner must still answer remote cell requests (deadlock
        regression, see Worker.step)."""
        import numpy as np

        from repro.core import (
            ComparisonOp,
            ContentCondition,
            ContentObjective,
            ShapeCondition,
            ShapeKind,
            ShapeObjective,
            SWQuery,
            col,
        )
        from repro.storage import TableSchema
        from repro.workloads import Dataset

        rng = np.random.default_rng(99)
        n = 400
        x = rng.uniform(0, 7, n)
        y = rng.uniform(0, 4, n)
        v = rng.normal(30, 5, n)
        from repro.core import Grid, Rect

        grid = Grid(Rect.from_bounds([(0.0, 7.0), (0.0, 4.0)]), (1.0, 1.0))
        dataset = Dataset(
            name="narrow",
            columns={"x": x, "y": y, "v": v},
            schema=TableSchema(["x", "y", "v"], ["x", "y"]),
            grid=grid,
        )
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(0.0, 7.0), (0.0, 4.0)],
            steps=(1.0, 1.0),
            conditions=[
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 3),
                ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.LE, 4),
                ContentCondition(
                    ContentObjective.of("avg", col("v")), ComparisonOp.GT, 25.0
                ),
            ],
        )
        # 3 workers over 7 columns: the last slab is 2 wide < min length 3.
        config = DistributedConfig(
            num_workers=3, sample_fraction=0.5, balance_by_data=False
        )
        report = run_distributed(dataset, query, config)
        db = make_database(dataset, "cluster")
        reference = SWEngine(db, dataset.name, sample_fraction=0.5).execute(query).run
        assert {r.window for r in report.results} == {
            r.window for r in reference.results
        }


class TestEmptySlabRegression:
    def _skewed_workload(self):
        """Every row lives in the right half of the grid: with equal-cell
        slabs, the leftmost workers receive no data at all."""
        import numpy as np

        from repro.core import (
            ComparisonOp,
            ContentCondition,
            ContentObjective,
            Grid,
            Rect,
            ShapeCondition,
            ShapeKind,
            ShapeObjective,
            SWQuery,
            col,
        )
        from repro.storage import TableSchema
        from repro.workloads import Dataset

        rng = np.random.default_rng(31)
        n = 300
        x = rng.uniform(8.0, 16.0, n)  # grid covers [0, 16): left half empty
        y = rng.uniform(0.0, 8.0, n)
        v = rng.normal(25, 6, n)
        grid = Grid(Rect.from_bounds([(0.0, 16.0), (0.0, 8.0)]), (1.0, 1.0))
        dataset = Dataset(
            name="skewed",
            columns={"x": x, "y": y, "v": v},
            schema=TableSchema(["x", "y", "v"], ["x", "y"]),
            grid=grid,
        )
        query = SWQuery.build(
            dimensions=("x", "y"),
            area=[(0.0, 16.0), (0.0, 8.0)],
            steps=(1.0, 1.0),
            conditions=[
                ShapeCondition(
                    ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 6
                ),
                ContentCondition(
                    ContentObjective.of("avg", col("v")), ComparisonOp.GT, 27.0
                ),
            ],
        )
        return dataset, query

    def test_workers_with_empty_slabs_complete(self):
        """Regression: a worker whose slab holds no rows used to abort the
        whole run with "received no data"; it must instead come up with
        an empty local cache, quiesce, and still serve (empty) cells."""
        from repro.core import SWEngine
        from repro.workloads import make_database

        dataset, query = self._skewed_workload()
        single = make_database(dataset, "cluster")
        reference = {
            r.window
            for r in SWEngine(single, dataset.name, sample_fraction=0.5)
            .execute(query)
            .results
        }
        config = DistributedConfig(
            num_workers=4, sample_fraction=0.5, balance_by_data=False
        )
        report = run_distributed(dataset, query, config)
        assert {r.window for r in report.results} == reference
        # The two left workers really were data-less.
        assert report.worker_blocks_read[0] == 0
        assert report.worker_reads[0] == 0

    def test_empty_slab_worker_adopts_after_crash(self):
        """An empty-slab worker stays a first-class recovery target."""
        from repro.distributed import FaultPlan, WorkerCrash

        dataset, query = self._skewed_workload()
        config = DistributedConfig(
            num_workers=4, sample_fraction=0.5, balance_by_data=False
        )
        baseline = run_distributed(dataset, query, config)
        # Crash worker 2 (data-bearing) early: its left neighbor (1) owns
        # an empty slab and must adopt part of the work.
        faulty = DistributedConfig(
            num_workers=4,
            sample_fraction=0.5,
            balance_by_data=False,
            faults=FaultPlan(seed=2, crashes=(WorkerCrash(2, 0.0005),)),
        )
        report = run_distributed(dataset, query, faulty)
        assert report.degradations == ()
        assert {r.window for r in report.results} == {
            r.window for r in baseline.results
        }
        assert report.recovered_anchors > 0
