"""Targeted tests of the distributed worker protocol (Section 5 mechanics)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    SearchConfig,
    SWEngine,
    SWQuery,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    col,
)
from repro.distributed import DistributedConfig, OverlapMode, run_distributed
from repro.distributed.coordinator import _build_worker
from repro.distributed.messages import CellRequest, Network
from repro.distributed.partitioning import plan_partitions
from repro.costs import DEFAULT_COST_MODEL
from repro.sampling import StratifiedSampler
from repro.storage import HeapTable, TableSchema
from repro.workloads import Dataset, make_database


def make_dataset(seed: int, n: int = 250) -> tuple[Dataset, SWQuery]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 12, n)
    y = rng.uniform(0, 12, n)
    v = rng.normal(20, 8, n)
    schema = TableSchema(["x", "y", "v"], ["x", "y"])
    from repro.core import Grid, Rect

    grid = Grid(Rect.from_bounds([(0.0, 12.0), (0.0, 12.0)]), (1.0, 1.0))
    dataset = Dataset(
        name="rand",
        columns={"x": x, "y": y, "v": v},
        schema=schema,
        grid=grid,
    )
    query = SWQuery.build(
        dimensions=("x", "y"),
        area=[(0.0, 12.0), (0.0, 12.0)],
        steps=(1.0, 1.0),
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 6),
            ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 22.0),
        ],
    )
    return dataset, query


class TestWorkerMechanics:
    def _one_worker(self, workers=2, wid=0):
        dataset, query = make_dataset(1)
        full_table = HeapTable(dataset.name, dataset.schema, dataset.columns, 8)
        sample = StratifiedSampler(0.5, seed=3).sample(full_table, dataset.grid)
        plan = plan_partitions(dataset.grid, workers)
        network = Network(workers, DEFAULT_COST_MODEL)
        config = DistributedConfig(num_workers=workers)
        worker = _build_worker(
            wid, dataset, query, plan, sample, full_table, network, config, DEFAULT_COST_MODEL
        )
        return worker, network, plan, query

    def test_seeds_only_own_anchors(self):
        worker, _, plan, _ = self._one_worker(workers=2, wid=0)
        lo, hi = plan.anchor_slab(0)
        lows = worker.queue.drain_arrays()[2]
        assert len(lows), "worker should have seeded start windows"
        assert all(lo <= anchor < hi for anchor in lows[:, 0].tolist())

    def test_boundary_window_requests_remote_cells(self):
        worker, network, plan, _ = self._one_worker(workers=2, wid=0)
        boundary = plan.boundaries[1]
        from repro.core import Window

        # A window anchored just left of the boundary, spanning across it.
        window = Window((boundary - 1, 0), (boundary + 1, 2))
        worker._explore(window)
        assert window in worker._waiting
        assert network.pending(1) == 1

    def test_request_answered_after_local_read(self):
        worker0, network, plan, query = self._one_worker(workers=2, wid=0)
        # Build worker 1 against the same network.
        dataset, _ = make_dataset(1)
        full_table = HeapTable(dataset.name, dataset.schema, dataset.columns, 8)
        sample = StratifiedSampler(0.5, seed=3).sample(full_table, dataset.grid)
        config = DistributedConfig(num_workers=2)
        worker1 = _build_worker(
            1, dataset, query, plan, sample, full_table, network, config, DEFAULT_COST_MODEL
        )
        boundary = plan.boundaries[1]
        from repro.core import Window

        window = Window((boundary - 1, 0), (boundary + 1, 2))
        worker0._explore(window)
        # Worker 1 hasn't read anything: the request must be parked.
        worker1.advance_to(network.earliest_arrival(1))
        worker1._process_inbox()
        assert worker1._pending, "request should wait for local data"
        # After reading its cells, flushing answers the request.
        worker1.data.read_window(Window((boundary, 0), (boundary + 1, 2)))
        worker1._flush_pending()
        assert not worker1._pending
        assert network.pending(0) == 1  # the response is in flight

    def test_response_unparks_window(self):
        worker0, network, plan, query = self._one_worker(workers=2, wid=0)
        boundary = plan.boundaries[1]
        from repro.core import Window
        from repro.distributed.messages import CellResponse
        from repro.core.aggregates import CellStats
        from repro.storage.database import COUNT_KEY

        window = Window((boundary - 1, 0), (boundary + 1, 1))
        worker0._explore(window)
        assert window in worker0._waiting
        payloads = {
            (boundary, 0): {
                COUNT_KEY: CellStats(0, 0.0, float("inf"), float("-inf")),
            }
        }
        queue_before = len(worker0.queue)
        worker0._handle_response(CellResponse(1, payloads))
        assert window not in worker0._waiting
        assert len(worker0.queue) == queue_before + 1


class TestDistributedEqualsSingleNodeProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 1000),
        st.integers(2, 4),
        st.sampled_from(list(OverlapMode)),
    )
    def test_random_data_agreement(self, seed, workers, overlap):
        dataset, query = make_dataset(seed)
        single = make_database(dataset, "cluster")
        reference = {
            r.window
            for r in SWEngine(single, dataset.name, sample_fraction=0.5)
            .execute(query)
            .results
        }
        report = run_distributed(
            dataset,
            query,
            DistributedConfig(
                num_workers=workers,
                overlap=overlap,
                sample_fraction=0.5,
                search=SearchConfig(alpha=0.5),
            ),
        )
        assert {r.window for r in report.results} == reference


class TestNetworkEdgeCases:
    def _zero_latency(self):
        from repro.costs import CostModel

        return CostModel(network_latency_ms=0.0, network_per_cell_us=0.0)

    def test_same_timestamp_delivery_is_send_order(self):
        net = Network(2, self._zero_latency())
        first = CellRequest(0, ((1, 1),), msg_id=net.next_msg_id())
        second = CellRequest(0, ((2, 2),), msg_id=net.next_msg_id())
        third = CellRequest(0, ((3, 3),), msg_id=net.next_msg_id())
        for msg in (first, second, third):
            net.send(1, msg, sent_at=0.5)
        assert net.receive(1, 0.5) == [first, second, third]

    def test_zero_latency_arrives_at_send_time(self):
        net = Network(2, self._zero_latency())
        net.send(1, CellRequest(0, ((1, 1),)), sent_at=1.25)
        assert net.earliest_arrival(1) == 1.25
        # Not yet visible strictly before the send instant.
        assert net.receive(1, 1.2499) == []
        assert len(net.receive(1, 1.25)) == 1

    def test_inbox_drains_after_sender_completion(self):
        # Messages already in flight remain deliverable even if the
        # sender never acts again; a later poll drains them all at once.
        net = Network(2, DEFAULT_COST_MODEL)
        for i in range(4):
            net.send(1, CellRequest(0, ((i, 0),)), sent_at=0.001 * i)
        assert net.pending(1) == 4
        drained = net.receive(1, now=10.0)
        assert [m.cells[0][0] for m in drained] == [0, 1, 2, 3]
        assert net.pending(1) == 0
        assert net.earliest_arrival(1) is None

    def test_needs_at_least_one_worker(self):
        import pytest

        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Network(0, DEFAULT_COST_MODEL)
        with pytest.raises(ValueError):  # backwards-compatible lineage
            Network(0, DEFAULT_COST_MODEL)

    def test_mail_to_dead_worker_is_lost(self):
        net = Network(2, DEFAULT_COST_MODEL)
        net.send(1, CellRequest(0, ((1, 1),)), sent_at=0.0)
        net.mark_dead(1)
        assert net.is_dead(1)
        assert net.pending(1) == 0
        net.send(1, CellRequest(0, ((2, 2),)), sent_at=0.1)
        assert net.pending(1) == 0
        assert net.messages_lost == 2


class TestReliabilityLayer:
    def _worker_pair(self):
        dataset, query = make_dataset(1)
        full_table = HeapTable(dataset.name, dataset.schema, dataset.columns, 8)
        sample = StratifiedSampler(0.5, seed=3).sample(full_table, dataset.grid)
        plan = plan_partitions(dataset.grid, 2)
        network = Network(2, DEFAULT_COST_MODEL)
        config = DistributedConfig(num_workers=2)
        workers = [
            _build_worker(
                wid, dataset, query, plan, sample, full_table, network, config,
                DEFAULT_COST_MODEL,
            )
            for wid in range(2)
        ]
        return workers, network, plan

    def test_duplicate_delivery_is_ignored(self):
        from repro.core import Window

        (worker0, worker1), network, plan = self._worker_pair()
        boundary = plan.boundaries[1]
        window = Window((boundary - 1, 0), (boundary + 1, 1))
        worker0._explore(window)
        # Replay the exact same transmission (same msg_id) at the owner.
        [envelope] = network._inboxes[1]
        network._inboxes[1].append(
            type(envelope)(envelope.arrival, 10_000, envelope.message)
        )
        worker1.advance_to(envelope.arrival)
        worker1._process_inbox()
        assert worker1.duplicates_ignored == 1
        # The request itself was still handled exactly once.
        assert sum(len(c) for c in worker1._pending.values()) == len(
            envelope.message.cells
        )

    def test_unanswered_request_is_retransmitted_with_backoff(self):
        from repro.core import Window

        (worker0, worker1), network, plan = self._worker_pair()
        boundary = plan.boundaries[1]
        window = Window((boundary - 1, 0), (boundary + 1, 1))
        worker0._explore(window)
        assert len(worker0._outstanding) == 1
        [entry] = worker0._outstanding.values()
        first_deadline = entry.deadline
        # Let the deadline lapse without an answer: a retry must go out
        # with a fresh message id and a doubled timeout.
        worker0.advance_to(first_deadline)
        worker0._check_timeouts()
        assert worker0.retries == 1
        [entry2] = worker0._outstanding.values()
        assert entry2.attempt == 1
        assert entry2.deadline - first_deadline > (
            first_deadline - 0.0
        ) * 0.99  # doubled timeout (measured from the retry instant)
        assert network.pending(1) == 2  # original + retransmission

    def test_next_time_covers_retry_deadline(self):
        from repro.core import Window

        (worker0, _worker1), _network, plan = self._worker_pair()
        boundary = plan.boundaries[1]
        window = Window((boundary - 1, 0), (boundary + 1, 1))
        worker0._explore(window)
        worker0.queue.drain_arrays()
        [entry] = worker0._outstanding.values()
        # With an empty queue and nothing arriving, the worker must still
        # wake up at its retransmission deadline rather than quiesce.
        assert worker0.next_time() == entry.deadline
        assert not worker0.is_done()
