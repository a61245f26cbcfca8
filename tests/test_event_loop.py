"""The coordinator's event-driven loop against a polling oracle.

``run_distributed`` keeps each worker's next action time in a ready queue
and re-evaluates only the workers a step can have affected (DESIGN.md
Section 9, "Event loop").  The loop it replaced asked *every* worker for
``next_time()`` before *every* event and scanned all outstanding requests
to answer.  That polling loop survives here, and only here, as the
oracle: before each step the harness recomputes every worker's next
action time the old way and asserts the coordinator picked exactly that
``(time, worker)``, so a stale ready-queue entry fails at the first
divergent event rather than as a hash mismatch at the end of the run.
The same harness checks each worker's cached earliest timer against a
brute-force scan around every step.
"""

from __future__ import annotations

import pytest

from repro.core import Window
from repro.costs import DEFAULT_COST_MODEL
from repro.distributed import (
    DistributedConfig,
    FaultPlan,
    LinkPartition,
    coordinator,
    run_distributed,
)
from repro.distributed.messages import CellRequest, Network
from repro.distributed.worker import Worker

from .test_chaos_scale import _config, _result_set, _scale_dataset
from . import test_worker_protocol as protocol

WORKER_STATE_KEYS = {
    "worker_id", "clock_now", "anchor_range", "data_range", "stats", "queue",
    "generated", "results", "prefetch_fp_reads", "last_read_region", "waiting",
    "requested", "pending", "outstanding", "seen_msg_ids", "lost_cells",
    "lost_windows", "retries", "hedges", "duplicates_ignored",
    "recovered_anchors", "data", "disk", "buffer", "backend_installs", "metrics",
}
NETWORK_STATE_KEYS = {
    "inboxes", "next_seq", "next_msg_id", "dead", "messages_sent",
    "cells_shipped", "messages_lost",
}


def scanned_due(worker: Worker) -> float:
    """Earliest due time by scanning every outstanding request."""
    return min(
        (worker._due_time(entry) for entry in worker._outstanding.values()),
        default=float("inf"),
    )


def polled_next_time(worker: Worker) -> float | None:
    """``Worker.next_time`` as the polling loop computed it: no cached timer."""
    if worker.crashed:
        return None
    arrival = worker.network.earliest_arrival(worker.worker_id)
    if arrival is not None and arrival <= worker.now:
        return worker.now
    if len(worker.queue) > 0 or worker._pending:
        return worker.now
    times = [arrival] if arrival is not None else []
    if worker._outstanding:
        times.append(scanned_due(worker))
    if not times:
        return None
    return max(worker.now, min(times))


def poll(workers) -> tuple[float, int] | None:
    """The old loop's choice: the earliest ``(time, worker)`` over everyone."""
    actionable = [
        (t, w.worker_id) for w in workers if (t := polled_next_time(w)) is not None
    ]
    return min(actionable) if actionable else None


def assert_timers_consistent(workers) -> None:
    for w in workers:
        assert w._next_due() == scanned_due(w), f"worker {w.worker_id} timer cache"
        assert w.next_time() == polled_next_time(w), f"worker {w.worker_id} next_time"


class PollingOracle:
    """Wraps ``Worker.step`` to check every scheduling decision of a run."""

    def __init__(self, monkeypatch) -> None:
        self.workers: list[Worker] = []
        self.steps = 0
        self.next_time_calls = 0
        self._checking = False

        build = coordinator._build_worker
        step = Worker.step
        next_time = Worker.next_time

        def recording_build(worker_id, *args, **kwargs):
            if worker_id == 0:
                self.workers = []  # a new run (or a resume) builds a new cluster
            worker = build(worker_id, *args, **kwargs)
            self.workers.append(worker)
            return worker

        def checked_step(worker):
            self.steps += 1
            self._check(chosen=worker)
            step(worker)
            self._check()

        def counted_next_time(worker):
            if not self._checking:
                self.next_time_calls += 1
            return next_time(worker)

        monkeypatch.setattr(coordinator, "_build_worker", recording_build)
        monkeypatch.setattr(Worker, "step", checked_step)
        monkeypatch.setattr(Worker, "next_time", counted_next_time)

    def _check(self, chosen: Worker | None = None) -> None:
        self._checking = True
        try:
            assert_timers_consistent(self.workers)
            if chosen is not None:
                # The coordinator has already advanced the chosen worker
                # to the event time, so its clock *is* that time.
                assert (chosen.now, chosen.worker_id) == poll(self.workers), (
                    f"step {self.steps}: coordinator stepped worker "
                    f"{chosen.worker_id} at {chosen.now}"
                )
        finally:
            self._checking = False


@pytest.fixture()
def oracle(monkeypatch) -> PollingOracle:
    return PollingOracle(monkeypatch)


class TestSchedulingEquivalence:
    """Every step the ready queue picks is the step polling would pick."""

    def test_fault_free_16_workers(self, oracle, tiny_dataset, tiny_query):
        config = DistributedConfig(num_workers=16, overlap="no_overlap")
        report = run_distributed(tiny_dataset, tiny_query, config)
        assert report.outcome == "complete"
        assert oracle.steps > 5_000 and report.messages_sent > 1_000
        # The point of the ready queue: one re-evaluation for the stepper
        # plus one per recipient, not one per worker.
        assert oracle.next_time_calls <= 2 * oracle.steps

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_4_workers(self, oracle, seed):
        dataset, query = _scale_dataset(cols=32, n=1200)
        baseline = run_distributed(dataset, query, _config(4))
        plan = FaultPlan.chaos(seed, 4, crash_at_s=baseline.total_time_s / 2.0)
        report = run_distributed(dataset, query, _config(4, faults=plan))
        assert report.outcome == "complete"
        assert len(report.crashed_workers) == 1 and report.recovered_anchors > 0
        assert report.retries > 0 and report.duplicates_ignored > 0
        assert _result_set(report) == _result_set(baseline)

    @pytest.mark.chaos
    @pytest.mark.chaos_scale
    @pytest.mark.parametrize("num_workers", [16, 64])
    def test_chaos_scale_with_hedging(self, oracle, num_workers):
        dataset, query = _scale_dataset()
        baseline = run_distributed(dataset, query, _config(num_workers))
        plan = FaultPlan.chaos_scale(
            1, num_workers, crash_at_s=baseline.total_time_s / 3.0
        )
        report = run_distributed(
            dataset, query, _config(num_workers, faults=plan, hedge_delay_ms=2.0)
        )
        assert report.outcome == "complete"
        # Crash storm, adoption, partition cut/heal and hedging all fired.
        assert len(report.crashed_workers) == len(plan.storms[0].victims)
        assert report.recovered_anchors > 0 and report.reassignment_msgs > 0
        assert report.faults_injected["partition_drops"] > 0
        assert report.hedges > 0 and report.retries > 0
        assert _result_set(report) == _result_set(baseline)

    @pytest.mark.chaos
    def test_fencing(self, oracle):
        """A live worker fenced mid-run leaves no stale ready-queue entry."""
        dataset, query = _scale_dataset(cols=32, n=1200)
        victim = 3
        cuts = [LinkPartition(victim, 0.002, 0.2)]
        cuts += [LinkPartition(victim, 0.002, 0.2, peer=w) for w in range(8) if w != victim]
        plan = FaultPlan(seed=5, partitions=tuple(cuts))
        report = run_distributed(
            dataset, query, _config(8, faults=plan, hedge_delay_ms=2.0)
        )
        assert report.fenced_workers == [victim] and report.recovered_anchors > 0
        assert _result_set(report) == _result_set(
            run_distributed(dataset, query, _config(8))
        )

    def test_checkpoint_then_resume(self, oracle):
        dataset, query = _scale_dataset(cols=32, n=1200)
        whole = run_distributed(dataset, query, _config(2))
        killed = run_distributed(dataset, query, _config(2, checkpoint_after_steps=40))
        assert killed.interrupted
        resumed = run_distributed(
            dataset, query, _config(2), resume_from=killed.checkpoint
        )
        assert [(r.window, r.time) for r in resumed.results] == [
            (r.window, r.time) for r in whole.results
        ]
        assert resumed.messages_sent == whole.messages_sent


class TestTimerCache:
    """The cached earliest timer tracks every edit of ``_outstanding``."""

    def _parked_request(self, cost_model=DEFAULT_COST_MODEL):
        (worker0, worker1), network, plan = protocol.TestReliabilityLayer()._worker_pair()
        worker0.cost_model = cost_model
        boundary = plan.boundaries[1]
        worker0._explore(Window((boundary - 1, 0), (boundary + 1, 1)))
        worker0.queue.drain_arrays()
        [entry] = worker0._outstanding.values()
        return worker0, worker1, network, entry

    def test_insert_and_peer_death_rewrite(self):
        worker0, _, _, entry = self._parked_request()
        assert worker0._next_due() == entry.deadline == worker0.next_time()
        assert worker0.on_peer_deaths({1})
        assert entry.deadline == worker0.now
        assert worker0._next_due() == worker0.now == worker0.next_time()

    def test_hedge_flip_and_answer(self):
        hedged_model = DEFAULT_COST_MODEL.with_overrides(hedge_delay_ms=2.0)
        worker0, worker1, network, entry = self._parked_request(hedged_model)
        hedge_at = entry.sent_at + hedged_model.hedge_delay_s()
        assert worker0._next_due() == hedge_at < entry.deadline
        worker0.advance_to(hedge_at)
        worker0._check_timeouts()
        assert entry.hedged and worker0.hedges == 1
        assert len(worker0._outstanding) == 2
        assert_timers_consistent([worker0])
        assert worker0._next_due() == entry.deadline
        # Let the owner answer: both copies of the request are settled.
        worker1.advance_to(network.earliest_arrival(1))
        worker1.step()
        worker1._read_for_pending()
        worker0.advance_to(network.earliest_arrival(0))
        worker0.step()
        assert not worker0._outstanding
        assert worker0._next_due() == float("inf")

    def test_restore_resets_the_cache(self):
        worker0, _, _, entry = self._parked_request()
        state = worker0.state()
        (fresh0, _), _, _ = protocol.TestReliabilityLayer()._worker_pair()
        assert fresh0._next_due() == float("inf")
        fresh0.restore_state(state)
        assert fresh0._next_due() == entry.deadline


class TestStateShape:
    """Derived scheduling state never reaches a checkpoint."""

    def test_state_keys_unchanged(self):
        (worker0, _), network, plan = protocol.TestReliabilityLayer()._worker_pair()
        boundary = plan.boundaries[1]
        worker0._explore(Window((boundary - 1, 0), (boundary + 1, 1)))
        assert set(worker0.state()) == WORKER_STATE_KEYS
        assert set(network.state()) == NETWORK_STATE_KEYS
        assert len(worker0.state()["outstanding"][0]) == 7

    def test_recipient_record(self):
        net = Network(3, DEFAULT_COST_MODEL)
        assert net.drain_recipients() == set()
        for i in range(50):
            net.send(1, CellRequest(0, ((i, 0),)), sent_at=float(i))
        net.mark_dead(2)
        net.send(2, CellRequest(0, ((0, 0),)), sent_at=0.0)  # lost: no delivery
        assert net.drain_recipients() == {1, 2}
        assert net.drain_recipients() == set()
        net.restore_state(net.state())
        assert net.drain_recipients() == {0, 1, 2}

    def test_hand_driven_workers_need_no_drain(self, oracle):
        """Workers stepped by the polling loop itself, with no coordinator.

        Nobody drains the network's recipient record here; it must stay
        bounded by the cluster size and the run must still finish exactly
        as ``run_distributed`` finishes it.
        """
        dataset, query = _scale_dataset(cols=32, n=1200)
        whole = run_distributed(dataset, query, _config(4))
        # Borrow a real cluster one step into a run, then drive it by hand.
        run_distributed(dataset, query, _config(4, checkpoint_after_steps=1))
        workers = oracle.workers
        network = workers[0].network
        while (choice := poll(workers)) is not None:
            t, wid = choice
            workers[wid].advance_to(t)
            workers[wid].step()  # the oracle's wrapper re-checks the timers
            assert len(network._recipients) <= len(workers)
        assert all(w.is_done() for w in workers)
        merged = sorted((r for w in workers for r in w.results), key=lambda r: r.time)
        assert [(r.window, r.time) for r in merged] == [
            (r.window, r.time) for r in whole.results
        ]
