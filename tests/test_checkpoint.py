"""Checkpoint/resume determinism: kill a query, resume it, diff the bytes.

The contract (DESIGN.md Section 11): a query interrupted at *any* point
and resumed on a fresh engine finishes with results, trace and metrics
byte-identical to the uninterrupted run — serially and on the 2-worker
distributed path — including under an active storage fault plan, whose
injector RNG stream is part of the capture.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Diversification, SearchConfig, SWEngine
from repro.core.trace import EventKind, SearchTrace
from repro.distributed import DistributedConfig, run_distributed
from repro.errors import CheckpointError
from repro.io import metrics_to_json, read_checkpoint, write_checkpoint
from repro.obs import MetricsRegistry
from repro.storage.integrity import StorageFaultPlan
from repro.workloads import make_database, synthetic_dataset, synthetic_query

KILL_POINTS = (5, 40, 120)
DIST_KILL_POINTS = (5, 50, 400)


@pytest.fixture(scope="module")
def workload():
    dataset = synthetic_dataset("high", scale=0.2, seed=5)
    return dataset, synthetic_query(dataset)


def _engine(dataset, plan=None, registry=None):
    database = make_database(dataset, "cluster")
    if registry is not None:
        database.attach_metrics(registry)
    if plan is not None:
        database.attach_integrity(plan)
    return SWEngine(database, dataset.name, sample_fraction=0.1)


def _payload(run, trace, registry):
    """Everything observable about a serial run, as comparable bytes."""
    return json.dumps(
        {
            "results": [
                {
                    "window": [list(r.window.lo), list(r.window.hi)],
                    "bounds": [list(r.bounds.lower), list(r.bounds.upper)],
                    "objectives": sorted(r.objective_values.items()),
                    "time": r.time,
                }
                for r in run.results
            ],
            "completion_time_s": run.completion_time_s,
            "explored": run.stats.explored,
            "trace": [
                [e.kind.value, e.time, repr(e.window), repr(sorted(e.detail.items()))]
                for e in trace
            ],
        },
        sort_keys=True,
    ) + metrics_to_json(registry)


def _serial_reference(workload, plan=None):
    dataset, query = workload
    trace, registry = SearchTrace(), MetricsRegistry()
    engine = _engine(dataset, plan=plan, registry=registry)
    run = engine.prepare(query, SearchConfig(alpha=1.0), trace=trace).run()
    assert not run.interrupted
    return _payload(run, trace, registry)


class TestSerialResume:
    @pytest.mark.parametrize("kill", KILL_POINTS)
    def test_killed_run_resumes_byte_identical(self, workload, tmp_path, kill):
        dataset, query = workload
        reference = _serial_reference(workload)

        # Interrupted leg: stop after `kill` explorations, capture, and
        # round-trip the capture through the on-disk npz format.
        t1, r1 = SearchTrace(), MetricsRegistry()
        search = _engine(dataset, registry=r1).prepare(
            query, SearchConfig(alpha=1.0, step_limit=kill), trace=t1
        )
        run = search.run()
        assert run.interrupted and run.interrupt_reason == "step_limit"
        path = write_checkpoint(search.checkpoint_state(), tmp_path / f"k{kill}")
        state = read_checkpoint(path)

        # Resumed leg: fresh engine, no step limit.
        t2, r2 = SearchTrace(), MetricsRegistry()
        resumed = _engine(dataset, registry=r2).resume(
            query, state, SearchConfig(alpha=1.0), trace=t2
        )
        run2 = resumed.run()
        assert not run2.interrupted
        assert _payload(run2, t2, r2) == reference

    def test_resume_under_storage_chaos_and_scrub(self, workload, tmp_path):
        """The injector RNG stream and scrub cursor survive the capture."""
        dataset, query = workload
        plan = StorageFaultPlan.chaos(11, corruption_rate=0.01)
        cfg = dict(alpha=1.0, scrub_blocks_per_step=4)
        reference = None
        for kill in (None, 30):
            t, r = SearchTrace(), MetricsRegistry()
            engine = _engine(dataset, plan=plan, registry=r)
            search = engine.prepare(
                query, SearchConfig(**cfg, step_limit=kill), trace=t
            )
            run = search.run()
            if kill is None:
                reference = _payload(run, t, r)
                continue
            assert run.interrupted
            state = read_checkpoint(
                write_checkpoint(search.checkpoint_state(), tmp_path / "chaos")
            )
            t2, r2 = SearchTrace(), MetricsRegistry()
            resumed = _engine(dataset, plan=plan, registry=r2).resume(
                query, state, SearchConfig(**cfg), trace=t2
            )
            run2 = resumed.run()
            assert _payload(run2, t2, r2) == reference

    def test_checkpoint_event_is_live_only(self, workload):
        dataset, query = workload
        trace = SearchTrace()
        search = _engine(dataset).prepare(
            query, SearchConfig(alpha=1.0, step_limit=10), trace=trace
        )
        search.run()
        state = search.checkpoint_state()
        assert trace.events(EventKind.CHECKPOINT)  # marked on the capturing run
        assert all(s["kind"] != "checkpoint" for s in state["trace"])

    def test_deadline_and_cancel_interrupt_reasons(self, workload):
        dataset, query = workload
        search = _engine(dataset).prepare(
            query, SearchConfig(alpha=1.0, deadline_s=0.0)
        )
        run = search.run()
        assert run.interrupted and run.interrupt_reason == "deadline"

        search = _engine(dataset).prepare(query, SearchConfig(alpha=1.0))
        search.cancel()
        run = search.run()
        assert run.interrupted and run.interrupt_reason == "cancelled"


class TestSerialGuards:
    def _interrupted_state(self, workload, **engine_kw):
        dataset, query = workload
        search = _engine(dataset, **engine_kw).prepare(
            query, SearchConfig(alpha=1.0, step_limit=10)
        )
        search.run()
        return search.checkpoint_state()

    def test_diversified_search_refuses_to_checkpoint(self, workload):
        dataset, query = workload
        search = _engine(dataset).prepare(
            query,
            SearchConfig(alpha=1.0, diversification=Diversification.DIST_JUMPS),
        )
        with pytest.raises(CheckpointError, match="diversification"):
            search.checkpoint_state()

    def test_config_mismatch_names_the_keys(self, workload):
        dataset, query = workload
        state = self._interrupted_state(workload)
        other = _engine(dataset).prepare(query, SearchConfig(alpha=2.0))
        with pytest.raises(CheckpointError, match="alpha"):
            other.restore_state(state)

    def test_stale_clock_is_rejected(self, workload):
        dataset, query = workload
        state = self._interrupted_state(workload)
        engine = _engine(dataset)
        engine.database.clock.advance(1e9)
        search = engine.prepare(query, SearchConfig(alpha=1.0))
        with pytest.raises(CheckpointError, match="already past"):
            search.restore_state(state)

    def test_integrity_attachment_parity_enforced(self, workload):
        dataset, query = workload
        state = self._interrupted_state(workload)  # captured without a plan
        engine = _engine(dataset, plan=StorageFaultPlan(seed=0))
        with pytest.raises(CheckpointError, match="fault plan"):
            engine.resume(query, state, SearchConfig(alpha=1.0))

    def test_format_version_is_checked(self, workload):
        dataset, query = workload
        state = self._interrupted_state(workload)
        state["format_version"] = 999
        search = _engine(dataset).prepare(query, SearchConfig(alpha=1.0))
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            search.restore_state(state)


def _dist_config(**kw):
    return DistributedConfig(
        num_workers=2,
        overlap="no_overlap",
        placement="cluster",
        search=SearchConfig(alpha=1.0),
        sample_fraction=0.1,
        **kw,
    )


def _dist_payload(report, trace):
    return json.dumps(
        {
            "results": [
                [list(r.window.lo), list(r.window.hi),
                 sorted(r.objective_values.items()), r.time]
                for r in report.results
            ],
            "total_time_s": report.total_time_s,
            "messages_sent": report.messages_sent,
            "cells_shipped": report.cells_shipped,
            "trace": [
                [e.kind.value, e.time, repr(e.window), repr(sorted(e.detail.items()))]
                for e in trace
            ],
            "metrics": report.metrics,
            "worker_metrics": report.worker_metrics,
        },
        sort_keys=True,
    )


class TestDistributedResume:
    @pytest.fixture(scope="class")
    def reference(self, workload):
        dataset, query = workload
        trace, registry = SearchTrace(), MetricsRegistry()
        report = run_distributed(
            dataset, query, _dist_config(), trace=trace, metrics=registry
        )
        assert not report.interrupted and report.degradations == ()
        return _dist_payload(report, trace)

    @pytest.mark.parametrize("kill", DIST_KILL_POINTS)
    def test_killed_run_resumes_byte_identical(
        self, workload, reference, tmp_path, kill
    ):
        dataset, query = workload
        t1, r1 = SearchTrace(), MetricsRegistry()
        rep1 = run_distributed(
            dataset,
            query,
            _dist_config(checkpoint_after_steps=kill),
            trace=t1,
            metrics=r1,
        )
        assert rep1.interrupted and rep1.checkpoint is not None
        assert rep1.degradations == ()
        state = read_checkpoint(
            write_checkpoint(rep1.checkpoint, tmp_path / f"dist{kill}")
        )
        t2, r2 = SearchTrace(), MetricsRegistry()
        rep2 = run_distributed(
            dataset, query, _dist_config(), trace=t2, metrics=r2, resume_from=state
        )
        assert not rep2.interrupted
        assert _dist_payload(rep2, t2) == reference

    def test_faults_and_checkpoint_are_mutually_exclusive(self, workload):
        from repro.distributed import FaultPlan

        dataset, query = workload
        with pytest.raises(CheckpointError, match="fault-free"):
            run_distributed(
                dataset,
                query,
                _dist_config(checkpoint_after_steps=5, faults=FaultPlan(seed=1)),
            )

    def test_config_mismatch_names_the_keys(self, workload):
        dataset, query = workload
        rep = run_distributed(dataset, query, _dist_config(checkpoint_after_steps=5))
        bad = _dist_config()
        bad.num_workers = 3
        with pytest.raises(CheckpointError, match="num_workers"):
            run_distributed(dataset, query, bad, resume_from=rep.checkpoint)

    def test_serial_capture_is_rejected(self, workload):
        dataset, query = workload
        search = _engine(dataset).prepare(
            query, SearchConfig(alpha=1.0, step_limit=10)
        )
        search.run()
        with pytest.raises(CheckpointError, match="distributed"):
            run_distributed(
                dataset, query, _dist_config(), resume_from=search.checkpoint_state()
            )

    def test_previous_format_is_refused_by_both_tiers(self, workload):
        # Format 2 kept a worker's dedup set as Window pairs; no reader
        # for it remains, so both restores must refuse it up front.
        dataset, query = workload
        serial = TestSerialGuards()._interrupted_state(workload)
        serial["format_version"] = 2
        search = _engine(dataset).prepare(query, SearchConfig(alpha=1.0))
        with pytest.raises(CheckpointError, match="unsupported checkpoint format 2"):
            search.restore_state(serial)
        rep = run_distributed(dataset, query, _dist_config(checkpoint_after_steps=5))
        rep.checkpoint["format_version"] = 2
        with pytest.raises(CheckpointError, match="unsupported checkpoint format 2"):
            run_distributed(dataset, query, _dist_config(), resume_from=rep.checkpoint)

    def test_checkpoint_after_steps_validated(self):
        with pytest.raises(CheckpointError, match=">= 1"):
            _dist_config(checkpoint_after_steps=0)


class TestCheckpointFile:
    def test_round_trip_preserves_arrays_and_nonfinite(self, tmp_path):
        import numpy as np

        state = {
            "format_version": 1,
            "nested": {"arr": np.arange(6, dtype=np.int32).reshape(2, 3)},
            "list": [np.array([1.5, -2.5]), {"deep": np.zeros(0)}],
            "inf": float("inf"),
            "neg": float("-inf"),
            "none": None,
        }
        loaded = read_checkpoint(write_checkpoint(state, tmp_path / "rt"))
        assert loaded["format_version"] == 1
        np.testing.assert_array_equal(
            loaded["nested"]["arr"], state["nested"]["arr"]
        )
        assert loaded["nested"]["arr"].dtype == np.int32
        np.testing.assert_array_equal(loaded["list"][0], [1.5, -2.5])
        assert loaded["list"][1]["deep"].size == 0
        assert loaded["inf"] == float("inf") and loaded["neg"] == float("-inf")
        assert loaded["none"] is None

    def test_write_is_atomic_no_temp_droppings(self, tmp_path):
        path = write_checkpoint({"x": 1}, tmp_path / "atomic")
        assert path.suffix == ".npz"
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []


def _dm_digest(state: dict) -> str:
    """Stable digest of a DataManager.state() capture."""
    import hashlib

    h = hashlib.sha1()
    h.update(state["read_mask"].tobytes())
    h.update(state["unread_count"].tobytes())
    for family in ("eff_sum", "eff_min", "eff_max"):
        for key in sorted(state[family]):
            h.update(key.encode())
            h.update(state[family][key].tobytes())
    h.update(
        repr(
            (
                state["version"],
                state["reads"],
                state["cells_read"],
                state["retired_blocks_read"],
                state["degraded_cells"],
            )
        ).encode()
    )
    return h.hexdigest()


class TestDataManagerCaptureIsolation:
    def test_capture_survives_later_mutation(self, workload):
        """A state() capture must be snapshots, not views of live arrays.

        The serving layer parks sessions on captures and resumes them many
        reads later — a capture aliasing the live overlays would silently
        corrupt every parked session the moment the manager reads again.
        """
        dataset, query = workload
        search = _engine(dataset).prepare(
            query, SearchConfig(alpha=1.0, step_limit=25)
        )
        search.run()
        data = search.data
        capture = data.state()
        frozen = _dm_digest(capture)
        assert data.unread_count.sum() > 0, "need unread cells left to mutate"

        # Mutate the live manager: read everything it has not read yet.
        from repro.core.window import Window

        data.read_window(Window((0,) * len(data.grid.shape), data.grid.shape))
        assert data.unread_count.sum() == 0
        assert _dm_digest(capture) == frozen, "capture aliased live arrays"

        # The stale capture restores byte-identically on a fresh manager.
        fresh = _engine(dataset).prepare(query, SearchConfig(alpha=1.0))
        fresh.data.restore_state(capture)
        assert _dm_digest(fresh.data.state()) == frozen


class TestStreamingInterruption:
    """SWEngine.execute_iter under step_limit and cancel() (DESIGN.md §11)."""

    def test_step_limit_stream_matches_blocking_and_resumes(self, workload, tmp_path):
        dataset, query = workload
        reference = _serial_reference(workload)

        t1, r1 = SearchTrace(), MetricsRegistry()
        engine = _engine(dataset, registry=r1)
        stream = engine.execute_iter(
            query, SearchConfig(alpha=1.0, step_limit=40), trace=t1
        )
        partial = list(stream)
        report = stream.report()
        assert report.run.interrupted
        assert report.run.interrupt_reason == "step_limit"
        assert report.run.results == partial
        assert report.disk_stats["blocks_read"] > 0

        # The streamed partial run is byte-identical to the blocking path
        # interrupted at the same step.
        t2, r2 = SearchTrace(), MetricsRegistry()
        run2 = (
            _engine(dataset, registry=r2)
            .prepare(query, SearchConfig(alpha=1.0, step_limit=40), trace=t2)
            .run()
        )
        assert _payload(report.run, t1, r1) == _payload(run2, t2, r2)

        # And its search is checkpointable: resume finishes to the
        # uninterrupted reference bytes.
        state = read_checkpoint(
            write_checkpoint(stream.search.checkpoint_state(), tmp_path / "stream")
        )
        t3, r3 = SearchTrace(), MetricsRegistry()
        resumed = _engine(dataset, registry=r3).resume(
            query, state, SearchConfig(alpha=1.0), trace=t3
        )
        run3 = resumed.run()
        assert not run3.interrupted
        assert _payload(run3, t3, r3) == reference

    def test_cancel_mid_iteration_matches_blocking_cancel(self, workload, tmp_path):
        dataset, query = workload
        stop_at = 3

        t1, r1 = SearchTrace(), MetricsRegistry()
        engine = _engine(dataset, registry=r1)
        stream = engine.execute_iter(query, SearchConfig(alpha=1.0), trace=t1)
        got = []
        for result in stream:
            got.append(result)
            if len(got) == stop_at:
                stream.cancel()
        assert len(got) == stop_at, "cancel must stop the stream cooperatively"
        report = stream.report()
        assert report.run.interrupted
        assert report.run.interrupt_reason == "cancelled"
        assert report.run.results == got
        assert report.run.completion_time_s is not None

        # Blocking leg: same cancel point through iter_results().
        t2, r2 = SearchTrace(), MetricsRegistry()
        search2 = _engine(dataset, registry=r2).prepare(
            query, SearchConfig(alpha=1.0), trace=t2
        )
        run2 = search2.new_run()
        for n, _result in enumerate(search2.iter_results(run2), start=1):
            if n == stop_at:
                search2.cancel()
        assert _payload(report.run, t1, r1) == _payload(run2, t2, r2)

        # A cancelled stream checkpoints and resumes to the full answer
        # (the cancel flag is transient, not part of the capture).
        state = read_checkpoint(
            write_checkpoint(stream.search.checkpoint_state(), tmp_path / "cancel")
        )
        t3, r3 = SearchTrace(), MetricsRegistry()
        run3 = (
            _engine(dataset, registry=r3)
            .resume(query, state, SearchConfig(alpha=1.0), trace=t3)
            .run()
        )
        assert not run3.interrupted
        assert _payload(run3, t3, r3) == _serial_reference(workload)

    def test_close_leaves_search_checkpointable(self, workload):
        dataset, query = workload
        engine = _engine(dataset)
        stream = engine.execute_iter(query, SearchConfig(alpha=1.0))
        next(stream)
        stream.close()
        assert list(stream) == []  # closed: no more results
        state = stream.search.checkpoint_state()
        assert state["results"], "capture carries the streamed progress"
