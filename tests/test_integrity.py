"""Storage-corruption suite: checksums, scrub/repair, degraded queries.

The acceptance contract (DESIGN.md Section 11): under a seeded
:class:`StorageFaultPlan`, every injected corruption is detected; when
every fault is repairable the query's result set equals the fault-free
run's; when repair is impossible the execution *degrades* — quarantined
blocks and affected cells are reported — but never escapes as an
unhandled exception.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.core import SearchConfig, SWEngine
from repro.core.trace import EventKind, SearchTrace
from repro.errors import ConfigError
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage.integrity import (
    CORRUPTION_KINDS,
    Scrubber,
    StorageFaultPlan,
)
from repro.workloads import make_database, synthetic_dataset, synthetic_query

pytestmark = pytest.mark.storage_chaos

# The CI chaos matrix sets CHAOS_SEED per job leg; each
# leg then covers one extra seed far from the defaults.
STORAGE_SEEDS = [11, 12, 13]
if os.environ.get("CHAOS_SEED"):
    STORAGE_SEEDS.append(211 * int(os.environ["CHAOS_SEED"]) + 7)


@pytest.fixture(scope="module")
def workload():
    dataset = synthetic_dataset("high", scale=0.1, seed=5)
    return dataset, synthetic_query(dataset)


def _execute(workload, plan=None, trace=None, metrics=None, **config_kw):
    """One engine run over a fresh database, optionally under a fault plan."""
    dataset, query = workload
    database = make_database(dataset, "cluster")
    if metrics is not None:
        database.attach_metrics(metrics)
    if plan is not None:
        database.attach_integrity(plan)
    engine = SWEngine(database, dataset.name, sample_fraction=0.1)
    report = engine.execute(
        query, SearchConfig(alpha=1.0, **config_kw), trace=trace
    )
    return report, database


def _result_set(report):
    """Windows + objective values; times are excluded because repair I/O
    legitimately shifts the simulated clock."""
    return [
        (r.window, tuple(sorted(r.objective_values.items())))
        for r in report.results
    ]


@pytest.fixture(scope="module")
def fault_free(workload):
    report, _ = _execute(workload)
    return _result_set(report)


class TestDetection:
    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_every_injected_corruption_is_detected(self, workload, seed):
        dataset, _ = workload
        report, database = _execute(
            workload, plan=StorageFaultPlan.chaos(seed, corruption_rate=0.01)
        )
        integ = database.integrity(dataset.name)
        assert integ.injector.total_injected > 0, "plan never fired"
        # 100% detection: every injection is caught by the checksum
        # (latent corruption re-hit on later reads is re-detected too).
        assert integ.corruptions_detected >= integ.injector.total_injected
        # ... and every detection was resolved: repaired or quarantined.
        assert report.results  # the query still produced output

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_targeted_corruption_detected_on_first_read(self, workload, kind):
        dataset, _ = workload
        plan = StorageFaultPlan(
            seed=0,
            corrupt_blocks=((3, kind),),
            reread_success_prob=1.0,
            replica_failure_prob=0.0,
        )
        _, database = _execute(workload, plan=plan)
        integ = database.integrity(dataset.name)
        assert integ.corruptions_detected >= 1
        assert integ.injector.injected[kind] == 1

    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_chaos_is_deterministic_per_seed(self, workload, seed):
        dataset, _ = workload
        runs = []
        for _ in range(2):
            report, database = _execute(
                workload, plan=StorageFaultPlan.chaos(seed, corruption_rate=0.01)
            )
            integ = database.integrity(dataset.name)
            runs.append(
                (
                    _result_set(report),
                    integ.corruptions_detected,
                    dict(integ.injector.injected),
                    sorted(integ.quarantined),
                )
            )
        assert runs[0] == runs[1]


class TestRepair:
    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_transient_faults_heal_to_fault_free_results(
        self, workload, fault_free, seed
    ):
        """Bit-rot with guaranteed re-read success: every fault heals."""
        dataset, _ = workload
        plan = StorageFaultPlan(
            seed=seed, bitrot_prob=0.05, reread_success_prob=1.0, max_rereads=1
        )
        report, database = _execute(workload, plan=plan)
        integ = database.integrity(dataset.name)
        assert integ.injector.total_injected > 0
        assert integ.blocks_repaired == integ.corruptions_detected
        assert not integ.quarantined
        assert report.degradations == () and report.outcome == "complete"
        assert _result_set(report) == fault_free

    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_media_faults_heal_via_replica(self, workload, fault_free, seed):
        """Torn/lost writes with a reliable replica: every fault heals."""
        dataset, _ = workload
        plan = StorageFaultPlan(
            seed=seed,
            torn_write_prob=0.02,
            lost_write_prob=0.02,
            replicas=1,
            replica_failure_prob=0.0,
        )
        report, database = _execute(workload, plan=plan)
        integ = database.integrity(dataset.name)
        assert integ.injector.total_injected > 0
        assert integ.replica_reads > 0
        assert not integ.quarantined
        assert report.degradations == ()
        assert _result_set(report) == fault_free

    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_unrepairable_faults_degrade_without_raising(self, workload, seed):
        """No replicas: persistent faults quarantine; the query survives."""
        dataset, _ = workload
        plan = StorageFaultPlan(seed=seed, lost_write_prob=0.03, replicas=0)
        report, database = _execute(workload, plan=plan)
        integ = database.integrity(dataset.name)
        assert integ.quarantined, "plan never produced unrepairable damage"
        assert report.outcome == "degraded"
        (deg,) = report.degradations
        assert deg.layer == "storage" and deg.lost["table"] == dataset.name
        assert set(deg.lost["blocks"]) == integ.quarantined
        assert deg.describe()  # human-readable summary exists

    @pytest.mark.parametrize("seed", STORAGE_SEEDS)
    def test_invariants_hold_under_chaos(self, workload, seed):
        registry = MetricsRegistry()
        _execute(
            workload,
            plan=StorageFaultPlan.chaos(seed, corruption_rate=0.01),
            metrics=registry,
        )
        outcome = InvariantAuditor(registry).report()
        assert outcome["ok"], outcome["violations"]


class TestScrub:
    def test_full_pass_finds_latent_corruption(self, workload):
        dataset, _ = workload
        database = make_database(dataset, "cluster")
        plan = StorageFaultPlan(
            seed=0, corrupt_blocks=((5, "lost"), (9, "torn")), replicas=0
        )
        database.attach_integrity(plan)
        scrubber = Scrubber(database, dataset.name, blocks_per_step=32)
        totals = scrubber.run()
        integ = database.integrity(dataset.name)
        assert totals["passes"] == 1
        assert totals["corruptions"] >= 2
        assert integ.quarantined == {5, 9}

    def test_scrub_advances_the_simulated_clock(self, workload):
        dataset, _ = workload
        database = make_database(dataset, "cluster")
        database.attach_integrity(StorageFaultPlan(seed=0))
        before = database.clock.now
        Scrubber(database, dataset.name, blocks_per_step=32).run()
        assert database.clock.now > before

    def test_background_scrub_between_search_steps(self, workload):
        dataset, _ = workload
        registry = MetricsRegistry()
        trace = SearchTrace()
        report, database = _execute(
            workload,
            plan=StorageFaultPlan.chaos(13, corruption_rate=0.005),
            trace=trace,
            metrics=registry,
            scrub_blocks_per_step=4,
        )
        integ = database.integrity(dataset.name)
        assert integ.scrubbed_blocks > 0
        assert trace.events(EventKind.SCRUB)
        assert report.results
        outcome = InvariantAuditor(registry).report()
        assert outcome["ok"], outcome["violations"]

    def test_scrubber_requires_integrity_layer(self, workload):
        dataset, _ = workload
        database = make_database(dataset, "cluster")
        with pytest.raises(ConfigError, match="no integrity layer"):
            Scrubber(database, dataset.name)

    def test_corruption_events_reach_the_trace(self, workload):
        trace = SearchTrace()
        _execute(
            workload,
            plan=StorageFaultPlan.chaos(11, corruption_rate=0.01),
            trace=trace,
        )
        assert trace.events(EventKind.CORRUPT)
        assert trace.events(EventKind.REPAIR)

    def test_traced_execute_records_every_quarantine(self, workload):
        # ``execute(trace=...)`` alone wires the integrity layer into the
        # trace: one CORRUPT event per unrepairable block it quarantines.
        dataset, _ = workload
        trace = SearchTrace()
        plan = StorageFaultPlan(
            corrupt_blocks=tuple((b, "torn") for b in range(0, 40, 2)),
            replicas=0,
            max_rereads=0,
        )
        _, database = _execute(workload, plan=plan, trace=trace)
        quarantined = database.integrity(dataset.name).quarantined
        assert quarantined
        assert len(trace.events(EventKind.CORRUPT)) == len(quarantined)


class TestScrubCli:
    def test_clean_device_scrubs_ok(self):
        lines: list[str] = []
        code = main(
            ["scrub", "--workload", "synth-high", "--scale", "0.1"], out=lines.append
        )
        assert code == 0
        text = "\n".join(lines)
        assert "0 corruption(s) detected" in text
        assert "all hold" in text

    def test_chaos_scrub_reports_and_audits(self):
        lines: list[str] = []
        code = main(
            [
                "scrub",
                "--workload",
                "synth-high",
                "--scale",
                "0.1",
                "--chaos-seed",
                "7",
            ],
            out=lines.append,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "chaos plan: seed=7" in text
        assert "corruption(s) detected" in text
        assert "all hold" in text
