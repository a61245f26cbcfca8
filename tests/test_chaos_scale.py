"""Cluster-scale chaos suite: N-worker recovery, partitions, replay.

Scales the chaos invariants from the 4-worker suite up to 16 and 64
workers under :meth:`FaultPlan.chaos_scale` plans (correlated rack
storms, healing link partitions, lossy networks, straggler disks):

* **Equivalence** — a recoverable chaos run's merged result set equals
  the fault-free oracle's; a degraded run's manifest exactly accounts
  for every missing window.
* **Replay determinism** — the same plan over the same workload yields
  byte-identical reports, including the partition cut/heal schedule.
* **Bounded recovery traffic** — reassignment messages scale with the
  lost cells and touched survivors, never cells x workers.

Plus unit coverage of the pieces: batched policy-aware reassignment,
quorum fencing of isolated-but-live workers, speculative hedging, fault
plan composition, and construction-time config validation.
"""

from __future__ import annotations

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
    COORDINATOR,
    CrashStorm,
    DistributedConfig,
    FailureDomain,
    FaultInjector,
    FaultPlan,
    LinkPartition,
    OwnershipRouter,
    SuccessorPolicy,
    WorkerCrash,
    run_distributed,
)
from repro.distributed.partitioning import plan_partitions
from repro.errors import ConfigError
from repro.storage import TableSchema
from repro.workloads import Dataset

pytestmark = [pytest.mark.chaos, pytest.mark.chaos_scale]

CHAOS_SEEDS = [1, 2, 3]


def _scale_dataset(cols: int = 96, seed: int = 1, n: int = 3000):
    """A wide dim-0 dataset so up to ``cols`` workers each own a slab."""
    rng = np.random.default_rng(seed)
    columns = {
        "x": rng.uniform(0, cols, n),
        "y": rng.uniform(0, 2, n),
        "v": rng.normal(20, 8, n),
    }
    grid = Grid(Rect.from_bounds([(0.0, float(cols)), (0.0, 2.0)]), (1.0, 1.0))
    dataset = Dataset(
        name="wide",
        columns=columns,
        schema=TableSchema(["x", "y", "v"], ["x", "y"]),
        grid=grid,
    )
    query = SWQuery.build(
        dimensions=("x", "y"),
        area=[(0.0, float(cols)), (0.0, 2.0)],
        steps=(1.0, 1.0),
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 4),
            ContentCondition(
                ContentObjective.of("avg", col("v")), ComparisonOp.GT, 22.0
            ),
        ],
    )
    return dataset, query


def _config(num_workers: int, **kwargs) -> DistributedConfig:
    kwargs.setdefault("sample_fraction", 0.5)
    return DistributedConfig(num_workers=num_workers, **kwargs)


def _result_set(report):
    return sorted((r.window.lo, r.window.hi) for r in report.results)


_BASELINES: dict[int, object] = {}


def _baseline(num_workers: int):
    """Fault-free oracle per cluster size (cached across tests)."""
    if num_workers not in _BASELINES:
        dataset, query = _scale_dataset()
        _BASELINES[num_workers] = run_distributed(
            dataset, query, _config(num_workers)
        )
    return _BASELINES[num_workers]


class TestChaosEquivalenceAtScale:
    """Recovered results equal the fault-free oracle at 16 and 64 workers."""

    @pytest.mark.parametrize("num_workers", [16, 64])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_recovered_equals_oracle(self, num_workers, seed):
        baseline = _baseline(num_workers)
        dataset, query = _scale_dataset()
        plan = FaultPlan.chaos_scale(
            seed, num_workers, crash_at_s=baseline.total_time_s / 3.0
        )
        report = run_distributed(dataset, query, _config(num_workers, faults=plan))

        assert report.outcome in ("complete", "degraded")
        storm_victims = set(plan.storms[0].victims)
        assert set(report.crashed_workers) == storm_victims
        assert report.recovered_anchors > 0

        oracle = _result_set(baseline)
        got = _result_set(report)
        if report.outcome == "complete":
            assert got == oracle
        else:
            # The manifest must exactly account for every missing window:
            # its anchor lies in an unrecovered slab or it was counted
            # as an abandoned in-flight window.
            missing = set(oracle) - set(got)
            (manifest,) = report.degradations
            slabs = manifest.lost["slabs"]
            unaccounted = [
                lo
                for lo, _ in missing
                if not any(s_lo <= int(lo[0]) < s_hi for s_lo, s_hi in slabs)
            ]
            assert len(unaccounted) <= manifest.lost["windows"]
        assert not set(got) - set(oracle)

    @pytest.mark.parametrize("num_workers", [16, 64])
    def test_recovery_traffic_bounded(self, num_workers):
        """Reassignment messages scale with lost cells, not cells x workers."""
        baseline = _baseline(num_workers)
        dataset, query = _scale_dataset()
        plan = FaultPlan.chaos_scale(
            1, num_workers, crash_at_s=baseline.total_time_s / 3.0
        )
        report = run_distributed(dataset, query, _config(num_workers, faults=plan))
        assert report.outcome == "complete"
        # One contiguous rack dies: at most 2 adoption directives (one
        # per adjacent survivor) plus the touched-survivor notifications.
        assert report.cells_reassigned >= len(report.crashed_workers)
        assert report.reassignment_msgs <= 2 + num_workers // 4
        assert report.reassignment_msgs < report.cells_reassigned + num_workers // 4


class TestReplayDeterminism:
    """Same plan + same workload -> byte-identical reports."""

    def _fingerprint(self, report):
        return (
            _result_set(report),
            report.total_time_s,
            report.retries,
            report.hedges,
            report.duplicates_ignored,
            report.messages_lost,
            report.reassignment_msgs,
            report.cells_reassigned,
            report.crashed_workers,
            report.fenced_workers,
            dict(report.faults_injected),
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_scale_replays_identically(self, seed):
        dataset, query = _scale_dataset()
        plan = FaultPlan.chaos_scale(seed, 16, crash_at_s=0.03)
        runs = [
            run_distributed(dataset, query, _config(16, faults=plan))
            for _ in range(2)
        ]
        assert self._fingerprint(runs[0]) == self._fingerprint(runs[1])

    def test_partition_heal_schedule_replays_identically(self):
        """An explicit cut/heal schedule is part of the deterministic replay."""
        dataset, query = _scale_dataset()
        plan = FaultPlan(
            seed=7,
            crashes=(WorkerCrash(5, 0.03),),
            partitions=(
                LinkPartition(2, 0.01, 0.022),
                LinkPartition(2, 0.01, 0.022, peer=3),
                LinkPartition(9, 0.05, 0.06),
            ),
            drop_prob=0.05,
            duplicate_prob=0.05,
            delay_prob=0.05,
        )
        trace_a, trace_b = SearchTrace(), SearchTrace()
        run_a = run_distributed(dataset, query, _config(16, faults=plan), trace=trace_a)
        run_b = run_distributed(dataset, query, _config(16, faults=plan), trace=trace_b)
        assert self._fingerprint(run_a) == self._fingerprint(run_b)
        edges_a = [
            (e.time, e.detail["worker"], e.detail["peer"], e.detail["phase"])
            for e in trace_a.events(EventKind.PARTITION)
        ]
        edges_b = [
            (e.time, e.detail["worker"], e.detail["peer"], e.detail["phase"])
            for e in trace_b.events(EventKind.PARTITION)
        ]
        assert edges_a == edges_b
        assert len(edges_a) == 6  # three cuts + three heals
        assert run_a.faults_injected["partition_drops"] == run_b.faults_injected[
            "partition_drops"
        ]


class TestFencing:
    """A live worker isolated past the heartbeat timeout gets fenced."""

    def test_total_isolation_fences_and_recovers(self):
        dataset, query = _scale_dataset(cols=32, n=1200)
        victim = 3
        partitions = [LinkPartition(victim, 0.002, 0.2)]
        partitions += [
            LinkPartition(victim, 0.002, 0.2, peer=w) for w in range(8) if w != victim
        ]
        plan = FaultPlan(seed=5, partitions=tuple(partitions))
        trace = SearchTrace()
        report = run_distributed(
            dataset, query, _config(8, faults=plan), trace=trace
        )
        assert report.fenced_workers == [victim]
        assert report.crashed_workers == []
        assert report.faults_injected["fencings"] == 1
        assert report.recovered_anchors > 0
        fences = [
            e
            for e in trace.events(EventKind.FAULT)
            if e.detail.get("fault") == "fence"
        ]
        assert len(fences) == 1 and fences[0].detail["worker"] == victim
        baseline = run_distributed(dataset, query, _config(8))
        assert _result_set(report) == _result_set(baseline)

    def test_short_partition_heals_without_fencing(self):
        """A cut that heals inside the timeout degrades, never fences."""
        dataset, query = _scale_dataset(cols=32, n=1200)
        plan = FaultPlan(
            seed=5, partitions=(LinkPartition(3, 0.002, 0.02),)
        )
        report = run_distributed(dataset, query, _config(8, faults=plan))
        assert report.fenced_workers == []
        assert report.outcome == "complete"
        baseline = run_distributed(dataset, query, _config(8))
        assert _result_set(report) == _result_set(baseline)


class TestHedging:
    """Speculative retransmits fire only under duress, never break results."""

    def test_fault_free_run_never_hedges(self):
        dataset, query = _scale_dataset(cols=32, n=1200)
        plain = run_distributed(dataset, query, _config(8))
        hedged = run_distributed(dataset, query, _config(8, hedge_delay_ms=5.0))
        assert hedged.hedges == 0
        assert _result_set(hedged) == _result_set(plain)
        assert hedged.total_time_s == plain.total_time_s

    def test_hedges_fire_under_chaos_and_preserve_equivalence(self):
        dataset, query = _scale_dataset(cols=32, n=1200)
        baseline = run_distributed(dataset, query, _config(16))
        plan = FaultPlan.chaos_scale(2, 16, crash_at_s=baseline.total_time_s / 3.0)
        report = run_distributed(
            dataset, query, _config(16, faults=plan, hedge_delay_ms=2.0)
        )
        assert report.hedges > 0
        assert report.outcome == "complete"
        assert _result_set(report) == _result_set(baseline)


class TestBatchedReassignment:
    """Policy-aware O(lost cells) adoption in the ownership router."""

    def _router(self, workers=4, cells=12):
        grid = Grid(Rect.from_bounds([(0.0, float(cells)), (0.0, 1.0)]), (1.0, 1.0))
        return OwnershipRouter(plan_partitions(grid, workers))

    def test_batch_merges_adjacent_deaths_into_one_run(self):
        router = self._router()
        batch = router.reassign_batch([1, 2])
        # Workers 1 and 2 own [3, 9); the merged run splits between the
        # surviving neighbors 0 and 3, each directive naming both sources.
        assert batch == [(0, (3, 6), (1, 2)), (3, (6, 9), (1, 2))]
        assert router.owned_range(0) == (0, 6)
        assert router.owned_range(3) == (6, 12)

    def test_balance_policy_prefers_smaller_neighbor(self):
        router = self._router()
        assert router.reassign_batch([0]) == [(1, (0, 3), (0,))]  # worker 1 -> 6 cells
        batch = router.reassign_batch([2], policy=SuccessorPolicy.BALANCE)
        # Neighbors of slab [6, 9) now own 6 (worker 1) and 3 (worker 3)
        # cells; BALANCE hands the whole run to the smaller side.
        assert batch == [(3, (6, 9), (2,))]
        assert router.owned_range(3) == (6, 12)

    def test_left_and_right_policies(self):
        left = self._router()
        assert left.reassign_batch([1], policy=SuccessorPolicy.LEFT) == [
            (0, (3, 6), (1,))
        ]
        right = self._router()
        assert right.reassign_batch([1], policy=SuccessorPolicy.RIGHT) == [
            (2, (3, 6), (1,))
        ]
        # The preferred side being dead falls back to the other side.
        edge = self._router()
        assert edge.reassign_batch([0], policy=SuccessorPolicy.LEFT) == [
            (1, (0, 3), (0,))
        ]

    def test_alive_veto_skips_doomed_successors(self):
        router = self._router()
        batch = router.reassign_batch([1], alive=lambda w: w != 0)
        # Worker 0 is crashed-but-undeclared: the whole run goes right.
        assert batch == [(2, (3, 6), (1,))]

    def test_unadoptable_runs_merge_into_lost_slabs(self):
        router = self._router(workers=2)
        assert router.reassign_batch([0, 1]) == []
        assert router.lost_slabs() == ((0, 12),)
        assert router.owner_of_cell(5) is None

    def test_batch_scales_with_lost_cells_not_workers(self):
        router = self._router(workers=64, cells=128)
        batch = router.reassign_batch([10, 11, 12])
        assert len(batch) <= 2  # one merged run, at most two adopters
        assert sum(hi - lo for _, (lo, hi), _ in batch) == 6  # 3 slabs x 2 cells


class TestFaultPlanComposition:
    """Crash sources merge; partitions are pure schedule lookups."""

    def test_chaos_scale_is_pure_function_of_seed_and_size(self):
        a = FaultPlan.chaos_scale(4, 32, crash_at_s=0.05)
        b = FaultPlan.chaos_scale(4, 32, crash_at_s=0.05)
        assert a == b
        c = FaultPlan.chaos_scale(5, 32, crash_at_s=0.05)
        assert a != c

    def test_chaos_scale_shape(self):
        plan = FaultPlan.chaos_scale(1, 64, crash_at_s=0.06)
        victims = plan.storms[0].victims
        assert len(victims) == 8  # 12.5% of 64
        assert victims == tuple(range(victims[0], victims[0] + 8))  # one rack
        assert plan.domains[0].members == victims
        assert plan.partitions  # coordinator link + adjacent peer link
        for part in plan.partitions:
            assert part.worker not in victims
            assert part.heal_s - part.start_s < 0.03  # heals inside the timeout
        assert plan.disk_slowdowns[0][0] not in victims

    def test_crash_times_merge_all_sources(self):
        plan = FaultPlan(
            crashes=(WorkerCrash(0, 0.05),),
            storms=(CrashStorm(victims=(1, 0), start_s=0.02, spacing_s=0.01),),
            domains=(FailureDomain(members=(2,), fail_at_s=0.04),),
        )
        times = plan.crash_times()
        assert times[1] == 0.02
        assert times[0] == 0.03  # storm entry beats the later explicit crash
        assert times[2] == 0.04
        assert 3 not in times

    def test_link_open_window_semantics(self):
        plan = FaultPlan(partitions=(LinkPartition(2, 0.01, 0.02, peer=5),))
        assert plan.link_open(2, 5, 0.005)
        assert not plan.link_open(2, 5, 0.01)  # closed-open interval
        assert not plan.link_open(5, 2, 0.015)  # symmetric
        assert plan.link_open(2, 5, 0.02)  # healed
        assert plan.link_open(2, COORDINATOR, 0.015)  # other links untouched

    def test_injector_rejects_out_of_range_ids(self):
        plan = FaultPlan(crashes=(WorkerCrash(7, 0.05),))
        with pytest.raises(ConfigError, match=r"\[7\]"):
            FaultInjector(plan, num_workers=4)
        FaultInjector(plan)  # no cluster size -> back-compat, no check
        FaultInjector(plan, num_workers=8)

    def test_invalid_plan_pieces_rejected(self):
        with pytest.raises(ConfigError):
            CrashStorm(victims=(), start_s=0.1)
        with pytest.raises(ConfigError):
            CrashStorm(victims=(1, 1), start_s=0.1)
        with pytest.raises(ConfigError):
            LinkPartition(2, 0.05, 0.05)  # must heal after it starts
        with pytest.raises(ConfigError):
            LinkPartition(2, 0.01, 0.02, peer=2)  # self-partition
        with pytest.raises(ConfigError):
            FailureDomain(members=())
        with pytest.raises(ConfigError):
            FaultPlan.chaos_scale(1, 1, crash_at_s=0.05)
        with pytest.raises(ConfigError):
            FaultPlan.chaos_scale(1, 16, crash_at_s=0.0)


class TestConfigValidation:
    """DistributedConfig rejects bad knobs at construction, clearly."""

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"num_workers": 0}, "num_workers"),
            ({"num_workers": -2}, "num_workers"),
            ({"num_workers": 2.5}, "num_workers"),
            ({"tuples_per_block": 0}, "tuples_per_block"),
            ({"buffer_fraction": 0.0}, "buffer_fraction"),
            ({"buffer_fraction": 1.5}, "buffer_fraction"),
            ({"sample_fraction": 0.0}, "sample_fraction"),
            ({"sample_fraction": 2.0}, "sample_fraction"),
            ({"skew": -0.1}, "skew"),
            ({"max_steps": 0}, "max_steps"),
            ({"hedge_delay_ms": -1.0}, "hedge_delay_ms"),
        ],
    )
    def test_bad_knob_raises_config_error(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            DistributedConfig(**kwargs)

    def test_string_coercions(self):
        config = DistributedConfig(successor_policy="balance", overlap="no_overlap")
        assert config.successor_policy is SuccessorPolicy.BALANCE
        with pytest.raises(ValueError):
            DistributedConfig(successor_policy="bogus")

    def test_valid_config_passes(self):
        config = DistributedConfig(
            num_workers=64, hedge_delay_ms=2.0, successor_policy=SuccessorPolicy.LEFT
        )
        assert config.num_workers == 64
