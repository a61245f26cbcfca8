"""Serving-layer semantics: admission, scheduling, determinism contract.

The contract under test (DESIGN.md §12): with a fixed policy, seed and
submission order the whole interleaved run is byte-reproducible; sessions
over disjoint tables don't observe each other at all; a session's
observables equal a solo run of the same query against an equally warmed
cache; and parking "live" is byte-equivalent to parking through the
checkpoint path.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core import SearchConfig, SWEngine
from repro.core.trace import EventKind, SearchTrace
from repro.io import metrics_to_json
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.serve import (
    DeadlinePolicy,
    RoundRobinPolicy,
    SemanticCache,
    SessionManager,
    SessionState,
    UtilityPolicy,
    make_policy,
    serve_workload,
)
from repro.storage.buffer import BufferPool, PoolGroup
from repro.workloads import make_database, synthetic_dataset, synthetic_query

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def workload():
    dataset = synthetic_dataset("medium", scale=0.15, seed=5)
    return dataset, synthetic_query(dataset)


def _session_payload(session) -> str:
    """Everything observable about one serve session, as comparable bytes."""
    run, trace, registry = session.run, session.trace, session.registry
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
            "interrupted": run.interrupted,
            "trace": [
                [e.kind.value, e.time, repr(e.window), repr(sorted(e.detail.items()))]
                for e in trace
            ],
        },
        sort_keys=True,
    ) + metrics_to_json(registry)


def _solo_payload(dataset, query, cache) -> str:
    """The same query run alone against ``cache``, same observables."""
    engine = SWEngine(make_database(dataset, "cluster"), dataset.name)
    if cache is not None:
        engine.attach_semantic_cache(cache)
    trace, registry = SearchTrace(), MetricsRegistry()
    run = engine.prepare(query, SearchConfig(alpha=1.0), trace=trace, metrics=registry).run()
    return _session_payload(
        SimpleNamespace(run=run, trace=trace, registry=registry)
    )


def _serve(workloads, max_live=2, queue_limit=8, policy="rr", park="live",
           slice_steps=8, seed=0, cache=True, **submit_kw):
    """Submit (name, dataset, query, config) tuples and run to completion."""
    registry = MetricsRegistry()
    trace = SearchTrace()
    manager = SessionManager(
        max_live=max_live,
        queue_limit=queue_limit,
        cache=SemanticCache() if cache else None,
        metrics=registry,
        trace=trace,
    )
    for name, dataset, query, config in workloads:
        manager.submit(name, dataset, query, config, **submit_kw)
    serve_workload(manager, policy=policy, slice_steps=slice_steps, park=park, seed=seed)
    return manager, registry, trace


class TestAdmission:
    def test_backpressure_states_and_counters(self, workload):
        dataset, query = workload
        registry = MetricsRegistry()
        manager = SessionManager(max_live=1, queue_limit=1, metrics=registry)
        a = manager.submit("a", dataset, query)
        b = manager.submit("b", dataset, query)
        c = manager.submit("c", dataset, query)
        assert a.state is SessionState.LIVE
        assert b.state is SessionState.WAITING
        assert c.state is SessionState.REJECTED
        assert c.finished and c.results == []
        counters = registry.snapshot()["counters"]
        assert counters["serve.sessions_submitted"] == 3
        assert counters["serve.sessions_admitted"] == 2
        assert counters["serve.sessions_rejected"] == 1
        # Rejected handles are stubs: not tracked, no pool registered.
        assert "c" not in manager.sessions
        assert manager.pool_group.names() == ["a", "b"]

    def test_duplicate_name_rejected(self, workload):
        dataset, query = workload
        manager = SessionManager()
        manager.submit("a", dataset, query)
        with pytest.raises(ValueError, match="already exists"):
            manager.submit("a", dataset, query)

    def test_budget_validation(self, workload):
        dataset, query = workload
        manager = SessionManager()
        with pytest.raises(ValueError, match="step_budget"):
            manager.submit("a", dataset, query, step_budget=0)
        with pytest.raises(ValueError, match="max_live"):
            SessionManager(max_live=0)

    def test_serve_drains_queued_sessions_as_slots_free(self, workload):
        """Waiting sessions are admitted when live ones finish; nothing
        submitted within queue capacity is ever lost."""
        dataset, query = workload
        registry = MetricsRegistry()
        manager = SessionManager(max_live=1, queue_limit=3, metrics=registry)
        handles = [
            manager.submit(f"s{i}", dataset, query, step_budget=10)
            for i in range(4)
        ]
        assert [h.state for h in handles] == [
            SessionState.LIVE, SessionState.WAITING,
            SessionState.WAITING, SessionState.WAITING,
        ]
        serve_workload(manager)
        assert all(h.state is SessionState.DONE for h in handles)
        assert all(h.run is not None and h.steps_taken == 10 for h in handles)
        counters = registry.snapshot()["counters"]
        assert counters["serve.sessions_admitted"] == 4
        assert counters["serve.sessions_completed"] == 4
        assert counters.get("serve.sessions_rejected", 0) == 0
        InvariantAuditor(registry).verify()

    def test_serve_with_only_rejected_sessions_returns_immediately(self, workload):
        dataset, query = workload
        registry = MetricsRegistry()
        manager = SessionManager(max_live=1, queue_limit=0, metrics=registry)
        live = manager.submit("keeper", dataset, query, step_budget=5)
        rejects = [manager.submit(f"r{i}", dataset, query) for i in range(3)]
        serve_workload(manager)
        assert live.state is SessionState.DONE
        assert all(r.state is SessionState.REJECTED for r in rejects)
        # A second serve pass over a drained fleet is a clean no-op.
        serve_workload(manager)
        counters = registry.snapshot()["counters"]
        assert counters["serve.sessions_completed"] == 1
        assert counters["serve.sessions_rejected"] == 3
        InvariantAuditor(registry).verify()

    def test_rejected_stub_is_inert_but_queryable(self, workload):
        dataset, query = workload
        manager = SessionManager(max_live=1, queue_limit=0)
        manager.submit("a", dataset, query, step_budget=5)
        stub = manager.submit("b", dataset, query)
        assert stub.state is SessionState.REJECTED
        assert stub.finished and stub.results == []
        # Cancelling a stub must not blow up or resurrect it.
        stub.cancel()
        assert stub.state is SessionState.REJECTED


class TestDeterminism:
    def test_interleaved_run_byte_reproducible(self, workload):
        dataset, query = workload
        work = [(f"s{i}", dataset, query, None) for i in range(3)]
        payloads = []
        for _ in range(2):
            manager, registry, trace = _serve(work, max_live=2, seed=11)
            payloads.append(
                (
                    [_session_payload(s) for s in manager.sessions.values()],
                    metrics_to_json(registry),
                    [(e.kind.value, e.time, repr(sorted(e.detail.items()))) for e in trace],
                )
            )
            audit = InvariantAuditor(registry.snapshot()).report()
            assert audit["ok"], audit["violations"]
        assert payloads[0] == payloads[1]

    def test_disjoint_tables_do_not_interfere(self):
        """Interleaved sessions over distinct tables == their solo runs."""
        loads = []
        for seed in (5, 6):
            dataset = synthetic_dataset("medium", scale=0.15, seed=seed)
            loads.append((dataset, synthetic_query(dataset)))
        work = [(f"s{i}", d, q, None) for i, (d, q) in enumerate(loads)]
        manager, _, _ = _serve(work, max_live=2, slice_steps=8)
        for (dataset, query), session in zip(loads, manager.sessions.values()):
            assert _session_payload(session) == _solo_payload(
                dataset, query, SemanticCache()
            )

    def test_warm_cache_equivalence(self, workload):
        """Session B after A == solo B against a cache solo A warmed."""
        dataset, query = workload
        work = [("a", dataset, query, None), ("b", dataset, query, None)]
        manager, _, _ = _serve(work, max_live=1, queue_limit=2)

        shared = SemanticCache()
        solo_a = _solo_payload(dataset, query, shared)  # warms `shared`
        solo_b = _solo_payload(dataset, query, shared)
        assert _session_payload(manager.sessions["a"]) == solo_a
        assert _session_payload(manager.sessions["b"]) == solo_b

    def test_checkpoint_park_equals_live_park(self, workload):
        dataset, query = workload
        work = [(f"s{i}", dataset, query, None) for i in range(2)]
        # A step budget keeps the captures small: each session still parks
        # through a checkpoint 24 times (8-step slices, 200 steps).
        live_mgr, _, _ = _serve(work, max_live=2, park="live", step_budget=200)
        ckpt_mgr, ckpt_reg, _ = _serve(
            work, max_live=2, park="checkpoint", step_budget=200
        )
        for name in live_mgr.sessions:
            assert _session_payload(live_mgr.sessions[name]) == _session_payload(
                ckpt_mgr.sessions[name]
            )
        # The checkpoint leg really went through the capture path.
        assert all(s.parks >= 20 for s in ckpt_mgr.sessions.values())
        counters = ckpt_reg.snapshot()["counters"]
        assert counters["serve.parks"] == counters["serve.resumes"] > 0


class TestPolicies:
    def test_round_robin_cycles_all_live(self, workload):
        dataset, query = workload
        work = [(f"s{i}", dataset, query, None) for i in range(3)]
        manager, registry, trace = _serve(work, max_live=3, slice_steps=4)
        preempted = {e.detail["session"] for e in trace if e.kind is EventKind.PREEMPT}
        assert preempted == {"s0", "s1", "s2"}
        assert all(s.slices_taken > 1 for s in manager.sessions.values())

    def test_round_robin_seed_changes_interleaving(self):
        sessions = [
            SimpleNamespace(name=f"s{i}", frontier_priority=lambda: None)
            for i in range(4)
        ]
        orders = {}
        for seed in (0, 1):
            policy = RoundRobinPolicy(seed)
            for s in sessions:
                policy.on_admit(s)
            orders[seed] = [policy.pick(sessions).name for _ in range(4)]
            assert sorted(orders[seed]) == ["s0", "s1", "s2", "s3"]
        assert orders[0] != orders[1]

    def test_utility_policy_picks_best_frontier(self):
        def stub(name, priority):
            return SimpleNamespace(name=name, frontier_priority=lambda p=priority: p)

        policy = UtilityPolicy()
        assert policy.pick([stub("a", 1.0), stub("b", 5.0)]).name == "b"
        # Empty frontiers lose to any work; name breaks exact ties.
        assert policy.pick([stub("a", None), stub("b", 0.0)]).name == "b"
        assert policy.pick([stub("b", 2.0), stub("a", 2.0)]).name == "a"

    def test_deadline_preemption_evicts_latest_deadline(self, workload):
        dataset, query = workload
        work = [
            ("late", dataset, query, SearchConfig(alpha=1.0, deadline_s=1e6)),
            ("early", dataset, query, SearchConfig(alpha=1.0, deadline_s=10.0)),
        ]
        manager, registry, trace = _serve(
            work, max_live=1, queue_limit=2, policy="deadline"
        )
        counters = registry.snapshot()["counters"]
        assert counters["serve.preemptions"] >= 1
        evictions = [
            e.detail for e in trace
            if e.kind is EventKind.PREEMPT and "evicted_for" in e.detail
        ]
        assert evictions[0] == {
            "session": "late", "mode": "checkpoint", "evicted_for": "early",
        }
        assert all(s.state is SessionState.DONE for s in manager.sessions.values())

    def test_deadline_policy_orders_by_deadline(self):
        def stub(name, deadline):
            return SimpleNamespace(name=name, deadline=deadline)

        policy = DeadlinePolicy()
        live = [stub("a", 50.0), stub("b", None)]
        assert policy.pick(live).name == "a"
        # No-deadline entrants never preempt; no-deadline victims always lose.
        assert policy.preempt_victim(live, [stub("c", None)]) is None
        victim, entrant = policy.preempt_victim(live, [stub("c", 5.0)])
        assert (victim.name, entrant.name) == ("b", "c")

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("fifo")


class TestBudgets:
    def test_step_budget_interrupts(self, workload):
        dataset, query = workload
        registry = MetricsRegistry()
        manager = SessionManager(max_live=1, metrics=registry)
        session = manager.submit("a", dataset, query, step_budget=7)
        serve_workload(manager, slice_steps=4)
        assert session.run.interrupted
        assert session.run.interrupt_reason == "step_budget"
        assert session.steps_taken == 7
        assert session.state is SessionState.DONE

    def test_block_budget_interrupts(self, workload):
        dataset, query = workload
        manager = SessionManager(max_live=1)
        session = manager.submit("a", dataset, query, block_budget=3)
        serve_workload(manager, slice_steps=4)
        assert session.run.interrupted
        assert session.run.interrupt_reason == "block_budget"
        assert session.search.data.blocks_read_cumulative > 3


class TestResults:
    def test_merged_results_dedupe_identical_sessions(self, workload):
        dataset, query = workload
        work = [(f"s{i}", dataset, query, None) for i in range(3)]
        manager, _, _ = _serve(work, max_live=3)
        solo = len(manager.sessions["s0"].results)
        assert solo > 0
        merged = manager.merged_results()
        assert len(merged) == solo
        assert sum(len(s.results) for s in manager.sessions.values()) == 3 * solo
        # Attribution goes to the earliest discovery (ties: submit order).
        times = {name: s.results[0].time for name, s in manager.sessions.items()}
        earliest = min(times, key=lambda n: (times[n], n))
        assert merged[0][0] == earliest

    def test_merged_results_keep_distinct_tables_apart(self):
        loads = []
        for seed in (5, 6):
            dataset = synthetic_dataset("medium", scale=0.15, seed=seed)
            loads.append((dataset, synthetic_query(dataset)))
        work = [(f"s{i}", d, q, None) for i, (d, q) in enumerate(loads)]
        manager, _, _ = _serve(work, max_live=2)
        per_session = sum(len(s.results) for s in manager.sessions.values())
        assert len(manager.merged_results()) == per_session

    def test_summary_shape(self, workload):
        dataset, query = workload
        manager, _, _ = _serve([("a", dataset, query, None)], max_live=1)
        summary = manager.summary()
        assert summary["sessions"]["a"]["state"] == "done"
        assert summary["sessions"]["a"]["results"] > 0
        assert summary["pool_totals"]["pools"] == 0  # unregistered at finish
        assert summary["cache"]["resident_cells"] > 0


def _pool(capacity: int) -> BufferPool:
    from repro.costs import DEFAULT_COST_MODEL
    from repro.storage.database import SimClock
    from repro.storage.disk import SimulatedDisk

    disk = SimulatedDisk(64, DEFAULT_COST_MODEL, SimClock())
    return BufferPool(capacity, disk)


class TestPoolGroup:
    def test_register_totals_rebalance(self):
        group = PoolGroup()
        a, b = _pool(10), _pool(20)
        group.register("a", a)
        group.register("b", b)
        with pytest.raises(ValueError, match="already registered"):
            group.register("a", a)
        assert group.names() == ["a", "b"] and len(group) == 2
        assert group.totals()["capacity"] == 30
        shares = group.rebalance(7)
        assert shares == {"a": 4, "b": 3}
        assert a.capacity == 4 and b.capacity == 3
        group.unregister("a")
        group.unregister("missing")  # no-op
        assert group.names() == ["b"]

    def test_rebalance_floors_at_one_block(self):
        group = PoolGroup()
        pools = {n: _pool(8) for n in ("a", "b", "c")}
        for name, pool in pools.items():
            group.register(name, pool)
        shares = group.rebalance(2)
        assert all(v >= 1 for v in shares.values())
