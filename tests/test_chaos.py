"""Chaos suite: deterministic fault injection against the distributed layer.

The headline invariant (DESIGN.md Section 9): under any *recoverable*
fault plan — crashes with surviving neighbors, plus arbitrary message
drop/duplication/delay — the merged result set is identical to the
fault-free run's.  Under unrecoverable plans the run degrades instead of
raising, and the report names exactly what was lost.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    SWQuery,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    col,
)
from repro.core.trace import EventKind, SearchTrace
from repro.distributed import (
    DistributedConfig,
    FaultInjector,
    FaultPlan,
    OwnershipRouter,
    WorkerCrash,
    run_distributed,
)
from repro.distributed.partitioning import plan_partitions
from repro.errors import ConfigError, PartitionError
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage import TableSchema
from repro.workloads import Dataset

pytestmark = pytest.mark.chaos

NUM_WORKERS = 4

# The CI chaos matrix sets CHAOS_SEED per job leg; each leg then covers
# one extra seed far from the defaults, widening the searched plan space.
CHAOS_SEEDS = [1, 2, 3]
if os.environ.get("CHAOS_SEED"):
    CHAOS_SEEDS.append(101 * int(os.environ["CHAOS_SEED"]) + 13)


def _dataset(seed: int = 1, n: int = 250):
    rng = np.random.default_rng(seed)
    columns = {
        "x": rng.uniform(0, 12, n),
        "y": rng.uniform(0, 12, n),
        "v": rng.normal(20, 8, n),
    }
    grid = Grid(Rect.from_bounds([(0.0, 12.0), (0.0, 12.0)]), (1.0, 1.0))
    dataset = Dataset(
        name="rand",
        columns=columns,
        schema=TableSchema(["x", "y", "v"], ["x", "y"]),
        grid=grid,
    )
    query = SWQuery.build(
        dimensions=("x", "y"),
        area=[(0.0, 12.0), (0.0, 12.0)],
        steps=(1.0, 1.0),
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 6),
            ContentCondition(
                ContentObjective.of("avg", col("v")), ComparisonOp.GT, 22.0
            ),
        ],
    )
    return dataset, query


def _config(**kwargs) -> DistributedConfig:
    kwargs.setdefault("num_workers", NUM_WORKERS)
    kwargs.setdefault("sample_fraction", 0.5)
    return DistributedConfig(**kwargs)


def _result_set(report):
    return sorted((r.window.lo, r.window.hi) for r in report.results)


@pytest.fixture(scope="module")
def workload():
    return _dataset()


@pytest.fixture(scope="module")
def baseline(workload):
    dataset, query = workload
    return run_distributed(dataset, query, _config())


class TestChaosEquivalence:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_recoverable_chaos_matches_fault_free(self, workload, baseline, seed):
        """Crash + drops + duplicates + delays: same result set, no loss."""
        dataset, query = workload
        plan = FaultPlan.chaos(
            seed, NUM_WORKERS, crash_at_s=baseline.total_time_s / 3
        )
        report = run_distributed(dataset, query, _config(faults=plan))
        assert _result_set(report) == _result_set(baseline)
        assert report.degradations == ()
        # The plan actually exercised the reliability layer.
        assert len(report.crashed_workers) == 1
        assert report.retries > 0
        assert report.faults_injected["drops"] > 0
        assert report.faults_injected["duplicates"] > 0
        assert report.faults_injected["delays"] > 0
        if seed in (1, 2, 3):
            # The curated seeds all crash a worker mid-slab, so recovery
            # must actually re-seed anchors.  (An arbitrary seed may
            # crash a worker that already finished — ownership still
            # moves, but nothing needs re-seeding.)
            assert report.recovered_anchors > 0

    def test_same_plan_replays_identically(self, workload, baseline):
        """One seed, two runs: bit-identical schedules and reports."""
        dataset, query = workload
        crash_at = baseline.total_time_s / 3
        runs = [
            run_distributed(
                dataset,
                query,
                _config(faults=FaultPlan.chaos(7, NUM_WORKERS, crash_at_s=crash_at)),
            )
            for _ in range(2)
        ]
        assert _result_set(runs[0]) == _result_set(runs[1])
        assert runs[0].retries == runs[1].retries
        assert runs[0].messages_lost == runs[1].messages_lost
        assert runs[0].faults_injected == runs[1].faults_injected
        assert runs[0].total_time_s == runs[1].total_time_s

    def test_message_faults_without_crash(self, workload, baseline):
        """A lossy channel alone never changes the answer."""
        dataset, query = workload
        plan = FaultPlan(
            seed=11, drop_prob=0.15, duplicate_prob=0.1, delay_prob=0.15
        )
        report = run_distributed(dataset, query, _config(faults=plan))
        assert _result_set(report) == _result_set(baseline)
        assert report.degradations == ()
        assert report.crashed_workers == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_duplicated_deliveries_audit_clean(self, workload, baseline, seed):
        """Regression: an injected duplicate copy is a receive without a
        send, so ``sends >= receives`` failed on complete runs.  The extra
        copies are counted, and only when one is added."""
        dataset, query = workload
        registry = MetricsRegistry()
        report = run_distributed(
            dataset,
            query,
            _config(faults=FaultPlan(seed=seed, duplicate_prob=0.3)),
            metrics=registry,
        )
        assert report.outcome == "complete"
        assert _result_set(report) == _result_set(baseline)
        auditor = InvariantAuditor(registry)
        assert auditor.violations() == []
        assert "network: sends + duplicated >= receives" in auditor.checked
        counters = registry.snapshot()["counters"]
        assert counters["net.messages_received"] > counters["net.messages_sent"]
        assert counters["net.messages_duplicated"] > 0
        fault_free = MetricsRegistry()
        run_distributed(dataset, query, _config(), metrics=fault_free)
        assert "net.messages_duplicated" not in fault_free.snapshot()["counters"]

    def test_crash_only_plan(self, workload, baseline):
        """A clean mid-run crash recovers through anchor reassignment."""
        dataset, query = workload
        plan = FaultPlan(
            seed=5, crashes=(WorkerCrash(1, baseline.total_time_s / 4),)
        )
        report = run_distributed(dataset, query, _config(faults=plan))
        assert _result_set(report) == _result_set(baseline)
        assert report.crashed_workers == [1]
        assert report.recovered_anchors > 0

    def test_trace_records_fault_timeline(self, workload, baseline):
        dataset, query = workload
        plan = FaultPlan.chaos(
            2, NUM_WORKERS, crash_at_s=baseline.total_time_s / 3
        )
        trace = SearchTrace()
        run_distributed(dataset, query, _config(faults=plan), trace=trace)
        summary = trace.summary()
        assert summary["faults"] >= 1  # at least the crash itself
        assert summary["retries"] > 0
        assert summary["recoveries"] >= 1  # each adopter logs one
        crash_events = [
            e for e in trace.events(EventKind.FAULT) if e.detail["fault"] == "crash"
        ]
        assert len(crash_events) == 1


class TestUnrecoverablePlans:
    def test_all_workers_crashing_degrades_instead_of_raising(self, workload):
        dataset, query = workload
        plan = FaultPlan(
            seed=9,
            crashes=tuple(
                WorkerCrash(wid, 0.001 + 0.0005 * wid) for wid in range(NUM_WORKERS)
            ),
        )
        report = run_distributed(dataset, query, _config(faults=plan))
        (manifest,) = report.degradations
        assert manifest.layer == "distributed" and report.outcome == "degraded"
        # The report names what was lost: every slab, every worker.
        assert sorted(manifest.lost["workers"]) == list(range(NUM_WORKERS))
        lost = manifest.lost["slabs"]
        assert lost and lost[0][0] == 0 and lost[-1][1] == 12
        assert f"slabs {list(lost)}" in manifest.describe()

    def test_isolated_pair_loss(self, workload):
        """Killing both workers of a 2-worker run loses the whole area."""
        dataset, query = workload
        plan = FaultPlan(seed=3, crashes=(WorkerCrash(0, 0.001), WorkerCrash(1, 0.002)))
        report = run_distributed(
            dataset, query, _config(num_workers=2, faults=plan)
        )
        (manifest,) = report.degradations
        assert manifest.lost["slabs"] == ((0, 12),)


class TestFaultPlanUnit:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop_prob=0.8, duplicate_prob=0.3)  # sums past 1
        with pytest.raises(ConfigError):
            FaultPlan(drop_prob=-0.1)
        with pytest.raises(ConfigError):
            WorkerCrash(-1, 0.5)
        with pytest.raises(ConfigError):
            WorkerCrash(0, -0.5)

    def test_chaos_factory_is_deterministic(self):
        a = FaultPlan.chaos(4, NUM_WORKERS)
        b = FaultPlan.chaos(4, NUM_WORKERS)
        assert a == b
        assert a != FaultPlan.chaos(5, NUM_WORKERS)

    def test_injector_delivery_semantics(self):
        injector = FaultInjector(FaultPlan(seed=0, drop_prob=1.0))
        assert injector.deliveries() == []
        assert injector.injected == {"drops": 1, "duplicates": 0, "delays": 0}
        injector = FaultInjector(FaultPlan(seed=0, duplicate_prob=1.0))
        copies = injector.deliveries()
        assert len(copies) == 2 and copies[0] == 0.0
        injector = FaultInjector(FaultPlan(seed=0))
        assert injector.deliveries() == [0.0]  # fault-free short circuit

    def test_disk_slowdown_lookup(self):
        plan = FaultPlan(seed=0, disk_slowdowns=((2, 3.0),))
        assert plan.disk_factor(2) == 3.0
        assert plan.disk_factor(0) == 1.0


class TestOwnershipRouter:
    def _router(self, workers=4, cells=12):
        grid = Grid(Rect.from_bounds([(0.0, float(cells)), (0.0, 1.0)]), (1.0, 1.0))
        return OwnershipRouter(plan_partitions(grid, workers))

    def test_midpoint_split_between_neighbors(self):
        router = self._router()
        adopted = router.reassign(1)  # slab [3, 6) with neighbors 0 and 2
        assert adopted == {0: (3, 5), 2: (5, 6)}
        assert router.owner_of_cell(4) == 0
        assert router.owner_of_cell(5) == 2
        assert router.owned_range(1) is None
        assert router.owned_range(0) == (0, 5)

    def test_edge_slab_goes_to_single_neighbor(self):
        router = self._router()
        assert router.reassign(0) == {1: (0, 3)}
        assert router.owned_range(1) == (0, 6)

    def test_cascading_loss(self):
        router = self._router(workers=2)
        assert router.reassign(0) == {1: (0, 6)}
        assert router.reassign(1) == {}
        assert router.lost_slabs() == ((0, 12),)
        assert router.owner_of_cell(3) is None

    def test_out_of_range_cell(self):
        router = self._router()
        with pytest.raises(PartitionError):
            router.owner_of_cell(99)
