"""Backend resilience: seeded faults, retry/breaker/fallback, journal.

The contract under test (ISSUE 9 / DESIGN.md §16): under **any** injected
backend fault plan, a run either completes with a result set
byte-identical to the fault-free golden run, or reports ``degraded`` /
``aborted`` with a machine-checkable reason — no exception escapes the
engine — and replaying the same ``(seed, plan)`` is byte-deterministic.
Kill-point tests interrupt the SQLite install journal at every
transaction boundary and verify the store recovers on reopen with
installed-cell accounting identical to the simulator oracle.

Seeds extend under ``CHAOS_SEED`` (the dedicated CI matrix),
mirroring the storage-chaos suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import SearchConfig, SWEngine
from repro.core.trace import EventKind, SearchTrace
from repro.errors import BackendError, ConfigError, TornWriteError
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage import (
    BACKEND_FAULT_KINDS,
    BackendFaultInjector,
    BackendFaultPlan,
    CircuitBreaker,
    HeapTable,
    ResilienceConfig,
    ResilientBackend,
    SimulatorBackend,
    SQLiteBackend,
    TableSchema,
)
from repro.storage.sqlite_backend import _IN_CHUNK
from repro.workloads import make_database, synthetic_dataset, synthetic_query

pytestmark = pytest.mark.backend_chaos

CHAOS_SEEDS = [1, 2, 3]
if os.environ.get("CHAOS_SEED"):
    CHAOS_SEEDS.append(173 * int(os.environ["CHAOS_SEED"]) + 11)

_DATASET = synthetic_dataset("high", scale=0.2, seed=5)
_QUERY = synthetic_query(_DATASET)


# -- helpers ------------------------------------------------------------------


def _result_set(report) -> list:
    """Result-set fingerprint: bounds + objective values, times excluded.

    Retry backoff charges simulated time, so faulted runs may emit the
    same windows at later instants — the *set* is the clock-independent
    equivalence the contract pins.
    """
    return sorted(
        (repr(r.bounds), tuple(sorted(r.objective_values.items())))
        for r in report.results
    )


def _timed_set(report) -> list:
    """Full fingerprint including emission times (zero-fault / replay)."""
    return sorted((repr(r.bounds), r.time) for r in report.results)


def _run(plan=None, config=None, backend="sqlite:", trace=None):
    database = make_database(_DATASET, "cluster", backend=backend)
    registry = MetricsRegistry()
    database.attach_metrics(registry)
    if plan is not None:
        database.attach_resilience(plan)
    engine = SWEngine(database, _DATASET.name, sample_fraction=0.1)
    report = engine.execute(
        _QUERY, config or SearchConfig(alpha=1.0), trace=trace
    )
    return report, registry, database


# -- the fault plan is pure in (seed, op_index) -------------------------------


def test_plan_purity_and_replay():
    plan = BackendFaultPlan.chaos(11, 0.5)
    draws = [plan.fault_at(i) for i in range(500)]
    assert draws == [plan.fault_at(i) for i in range(500)]
    assert any(draws), "a 0.5-rate plan must inject something in 500 draws"
    for kind in draws:
        assert kind is None or kind in BACKEND_FAULT_KINDS
    # Index i's decision is independent of whether earlier indexes were
    # consulted — the property that makes retries replayable.
    assert plan.fault_at(250) == draws[250]


def test_plan_torn_install_degrades_on_reads():
    plan = BackendFaultPlan(seed=3, torn_install_prob=1.0)
    assert plan.fault_at(0, install=True) == "torn_install"
    assert plan.fault_at(0, install=False) == "transient"


def test_plan_scheduled_overrides_and_validation():
    plan = BackendFaultPlan(seed=0, scheduled=((4, "busy"), (7, "disconnect")))
    assert plan.active
    assert plan.fault_at(4) == "busy"
    assert plan.fault_at(7) == "disconnect"
    assert plan.fault_at(5) is None
    with pytest.raises(ConfigError, match="must be in"):
        BackendFaultPlan(transient_prob=1.5)
    with pytest.raises(ConfigError, match="sum"):
        BackendFaultPlan(transient_prob=0.6, busy_prob=0.6)
    with pytest.raises(ConfigError, match="unknown backend fault kind"):
        BackendFaultPlan(scheduled=((0, "meteor"),))
    with pytest.raises(ConfigError, match="op_index"):
        BackendFaultPlan(scheduled=((-1, "busy"),))
    with pytest.raises(ConfigError, match="slow_extra_ms"):
        BackendFaultPlan(slow_extra_ms=-1.0)


def test_injector_counts_and_state_roundtrip():
    plan = BackendFaultPlan(seed=0, scheduled=((0, "busy"), (2, "slow")))
    injector = BackendFaultInjector(plan)
    assert injector.next_fault() == "busy"
    assert injector.next_fault() is None
    assert injector.next_fault() == "slow"
    assert injector.injected["busy"] == 1
    assert injector.injected["slow"] == 1
    assert injector.total_injected == 2
    state = injector.state()
    other = BackendFaultInjector(plan)
    other.restore_state(state)
    assert other.op_index == 3 and other.injected == injector.injected


# -- circuit breaker unit behaviour -------------------------------------------


def test_breaker_trips_after_threshold_and_reopens_from_half_open():
    breaker = CircuitBreaker(threshold=3, probes=1, open_s=0.05)
    assert breaker.state == "closed"
    assert not breaker.record_failure(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(0.0)  # third consecutive failure trips
    assert breaker.state == "open" and breaker.trips == 1
    assert not breaker.allow(0.01)  # still inside the open window
    assert breaker.allow(0.06)  # window elapsed: half-open probe
    assert breaker.state == "half_open"
    assert breaker.record_failure(0.06)  # failed probe re-trips immediately
    assert breaker.state == "open" and breaker.trips == 2


def test_breaker_closes_after_successful_probes():
    breaker = CircuitBreaker(threshold=1, probes=2, open_s=0.05)
    assert breaker.record_failure(0.0)
    assert breaker.allow(0.1)
    assert not breaker.record_success()  # 1 of 2 probes
    assert breaker.state == "half_open"
    assert breaker.record_success()  # 2 of 2: closes
    assert breaker.state == "closed"
    # A success in closed state resets the consecutive-failure streak.
    breaker2 = CircuitBreaker(threshold=2, probes=1, open_s=0.05)
    assert not breaker2.record_failure(0.0)
    breaker2.record_success()
    assert not breaker2.record_failure(0.0)
    assert breaker2.state == "closed"


def test_resilience_config_validation():
    with pytest.raises(ConfigError):
        ResilienceConfig(max_attempts=0)
    with pytest.raises(ConfigError):
        ResilienceConfig(breaker_threshold=0)
    with pytest.raises(ConfigError):
        ResilienceConfig(breaker_probes=0)
    with pytest.raises(ConfigError, match="cannot wrap"):
        inner = ResilientBackend(SimulatorBackend(), BackendFaultPlan())
        ResilientBackend(inner, BackendFaultPlan())


# -- the equivalence invariant ------------------------------------------------


def test_zero_fault_plan_is_byte_identical_including_times():
    golden, golden_reg, _ = _run()
    wrapped, wrapped_reg, db = _run(plan=BackendFaultPlan(seed=0))
    assert wrapped.outcome == "complete"
    assert wrapped.degradations == ()
    assert _timed_set(wrapped) == _timed_set(golden)
    assert wrapped.run.completion_time_s == golden.run.completion_time_s
    stats = db.backend.stats()
    assert stats["injected_faults"] == 0 and stats["retries"] == 0
    audit = InvariantAuditor(wrapped_reg).report()
    assert audit["ok"], audit["violations"]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_equivalence_invariant(seed):
    """Any fault plan: identical result set, or degraded/aborted with reason."""
    golden, _, _ = _run()
    plan = BackendFaultPlan.chaos(seed, 0.3)
    report, registry, db = _run(plan=plan)

    assert report.outcome in ("complete", "degraded", "aborted")
    if report.outcome == "complete":
        assert _result_set(report) == _result_set(golden)
    elif report.outcome == "degraded":
        (degradation,) = report.degradations
        assert degradation.layer == "backend" and degradation.reason
        # The mirror fallback is byte-identical, so even degraded runs
        # return the golden result set — degradation records that the
        # *real* store did not serve it.
        assert _result_set(report) == _result_set(golden)
    else:
        assert report.run.interrupt_reason is not None

    # Replay of the same (seed, plan) is byte-deterministic, times included.
    replay, _, _ = _run(plan=BackendFaultPlan.chaos(seed, 0.3))
    assert _timed_set(replay) == _timed_set(report)
    assert replay.outcome == report.outcome
    assert replay.backend_retries == report.backend_retries

    # The resilience counters satisfy every auditor identity.
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]
    stats = db.backend.stats()
    assert stats["attempts"] == stats["successes"] + stats["injected_faults"]
    assert stats["fallback_ops"] == stats["short_circuits"] + stats["failures"]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_install_counts_match_oracle(seed):
    """Dedup accounting is fault-independent (mirror-authoritative)."""
    _, _, clean_db = _run()
    _, _, chaos_db = _run(plan=BackendFaultPlan.chaos(seed, 0.3))
    assert chaos_db.backend.installed_cell_count(
        _DATASET.name
    ) == clean_db.backend.installed_cell_count(_DATASET.name)


def test_forced_outage_degrades_and_serves_from_mirror():
    golden, _, _ = _run()
    trace = SearchTrace()
    plan = BackendFaultPlan(seed=9, transient_prob=1.0)
    report, registry, db = _run(plan=plan, trace=trace)
    assert report.outcome == "degraded"
    (degradation,) = report.degradations
    assert report.fallback_reads == degradation.lost["fallback_reads"] > 0
    assert report.breaker_trips == degradation.lost["breaker_trips"] > 0
    assert "mirror" in degradation.describe()
    # Bit-identical fallback: the degraded run still returns the answer.
    assert _result_set(report) == _result_set(golden)
    stats = db.backend.stats()
    assert stats["short_circuits"] > 0, "open breaker must short-circuit"
    assert stats["fallback_reads"] <= stats["fallback_ops"]
    # The trace carries the new event kinds.
    summary = trace.summary()
    assert summary["backend_retries"] > 0
    assert summary["breaker_events"] > 0
    assert summary["fallbacks"] > 0
    transitions = {e.detail["transition"] for e in trace.events(EventKind.BREAKER)}
    assert "open" in transitions
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]


def test_slow_faults_charge_time_but_keep_results():
    golden, _, _ = _run()
    report, _, db = _run(plan=BackendFaultPlan(seed=4, slow_prob=1.0))
    assert report.outcome == "complete"
    assert _result_set(report) == _result_set(golden)
    stats = db.backend.stats()
    assert stats["slow_faults"] == stats["ops"]
    assert stats["injected_faults"] == 0
    assert report.run.completion_time_s > golden.run.completion_time_s


def test_deadline_abort_is_not_stuck_in_backoff():
    golden, _, _ = _run()
    deadline = golden.run.completion_time_s / 4.0
    plan = BackendFaultPlan(seed=2, transient_prob=0.9)
    report, _, _ = _run(
        plan=plan, config=SearchConfig(alpha=1.0, deadline_s=deadline)
    )
    assert report.outcome == "aborted"
    assert report.run.interrupt_reason == "deadline"


def test_simulator_primary_under_chaos_too():
    """The wrapper is backend-agnostic: simulator-on-simulator works."""
    golden, _, _ = _run(backend="simulator")
    report, _, _ = _run(backend="simulator", plan=BackendFaultPlan.chaos(1, 0.3))
    assert report.outcome in ("complete", "degraded")
    assert _result_set(report) == _result_set(golden)


def test_attach_resilience_detach_restores_direct_handles():
    database = make_database(_DATASET, "cluster", backend="sqlite:")
    inner = database.backend
    database.attach_resilience(BackendFaultPlan(seed=0))
    assert getattr(database.backend, "resilient", False)
    assert database.table(_DATASET.name) is not None
    database.attach_resilience(None)
    assert database.backend is inner
    assert not getattr(database.backend, "resilient", False)


# -- the install journal under kill points ------------------------------------


def _heap(rows: int = 120) -> HeapTable:
    rng = np.random.default_rng(7)
    return HeapTable(
        "jt",
        TableSchema(["x", "y"], ["x", "y"]),
        {"x": rng.uniform(0, 10, rows), "y": rng.uniform(0, 10, rows)},
        tuples_per_block=16,
    )


def _journal_ids():
    """An install spanning several apply chunks."""
    return list(range(int(2.4 * _IN_CHUNK)))


def _journal_rows(backend) -> int:
    return backend._conn.execute("SELECT COUNT(*) FROM sw_install_journal").fetchone()[0]


def test_install_journal_recovers_at_every_kill_point(tmp_path):
    """Tear the flush at each protocol point; reopening always recovers it."""
    path = str(tmp_path / "tear.db")
    ids = _journal_ids()
    oracle = SimulatorBackend()
    oracle.bind_table(_heap())
    expected = oracle.install_cells("jt", "g", ids)

    point = 1
    torn_points = []
    while True:
        backend = SQLiteBackend(path)
        if point == 1:
            backend.bind_table(_heap())
        backend.arm_install_tear(point)
        # The install itself is RAM only; the tear surfaces from the flush.
        counts = backend.install_cells("jt", "g", ids)
        assert counts == expected
        try:
            backend.flush_installs()
        except TornWriteError as err:
            torn_points.append(err.point)
            backend._conn.close()  # a crash: ``close()`` would flush again
            # Reopen = crash recovery: the pending intent rolls forward.
            reopened = SQLiteBackend(path)
            assert reopened.recovered_installs == 1
            assert reopened.installed_cell_count("jt", "g") == len(ids)
            # Reset the record so the next kill point starts clean.
            reopened.restore_install_state("jt", {"installs": {}})
            reopened.close()
            point += 1
            continue
        backend._install_kill = None  # disarm the unspent trigger
        backend.close()
        break

    # intent + 3 id chunks + commit = 5 distinct points.
    assert len(torn_points) == 5
    assert torn_points[0] == "intent" and torn_points[-1] == "commit"
    assert len(set(torn_points)) == len(torn_points)


def test_torn_install_retry_resumes_pending_journal(tmp_path):
    """A same-process retry rolls the pending intent forward, same counts."""
    path = str(tmp_path / "resume.db")
    ids = _journal_ids()
    backend = SQLiteBackend(path)
    backend.bind_table(_heap())
    backend.arm_install_tear(2)
    counts = backend.install_cells("jt", "g", ids)
    with pytest.raises(TornWriteError):
        backend.flush_installs()
    assert _journal_rows(backend) == 1
    backend.flush_installs()
    oracle = SimulatorBackend()
    oracle.bind_table(_heap())
    assert counts == oracle.install_cells("jt", "g", ids)
    assert backend.installed_cell_count("jt", "g") == len(ids)
    # The journal is empty again; a reopen recovers nothing.
    backend.close()
    assert SQLiteBackend(path).recovered_installs == 0


# -- installs that change nothing write nothing -------------------------------


def test_noop_install_skips_journal_and_leaves_tear_armed(tmp_path):
    """Every cell already stored: simulator counts, no write."""
    backend = SQLiteBackend(str(tmp_path / "noop.db"))
    backend.bind_table(_heap())
    ids = _journal_ids()
    oracle = SimulatorBackend()
    oracle.bind_table(_heap())
    assert backend.install_cells("jt", "g", ids) == oracle.install_cells("jt", "g", ids)
    backend.flush_installs()
    before = backend._conn.total_changes

    backend.arm_install_tear(1)
    assert backend.install_cells("jt", "g", ids) == oracle.install_cells("jt", "g", ids)
    assert backend.install_cells("jt", "g", ids[:7]) == (0, 7)
    backend.flush_installs()
    assert _journal_rows(backend) == 0
    assert backend._conn.total_changes == before, "a flush with nothing new must not write"
    # The trigger is unspent: the next flush that does write tears.
    assert backend.install_cells("jt", "g", [max(ids) + 1]) == (1, 0)
    with pytest.raises(TornWriteError, match="intent"):
        backend.flush_installs()
    assert backend.install_cells("jt", "g", [max(ids) + 1]) == (0, 1)
    backend.flush_installs()
    assert backend.installed_cell_count("jt", "g") == len(ids) + 1


def test_pending_journal_rolls_forward_before_the_short_cut(tmp_path):
    """A torn flush's payload is re-applied even once its rows all exist."""
    backend = SQLiteBackend(str(tmp_path / "pending.db"))
    backend.bind_table(_heap())
    ids = _journal_ids()
    # Tear at the commit point: every row applied, journal row pending.
    backend.arm_install_tear(5)
    # Counted once, against the pre-intent state, however the flush fares.
    assert backend.install_cells("jt", "g", ids) == (len(ids), 0)
    with pytest.raises(TornWriteError, match="commit"):
        backend.flush_installs()
    assert _journal_rows(backend) == 1
    # Reading the record flushes first: the pending intent is retired.
    assert backend.installed_cell_count("jt", "g") == len(ids)
    assert _journal_rows(backend) == 0
    assert backend.install_cells("jt", "g", ids) == (0, len(ids))


def test_torn_fault_on_noop_install_is_modelled_not_leaked():
    """A torn_install drawn for an install with nothing to tear.

    The guard arms the tear, the install changes nothing and returns, so
    the guard must take the trigger back (or the next, unfaulted install
    would tear) and count the attempt as the failure the plan asked for.
    """
    heap = _heap()
    inner = SQLiteBackend()
    registry = MetricsRegistry()
    # Guarded ops: bind(0), install(1), install(2: torn), its retry(3), install(4).
    plan = BackendFaultPlan(seed=0, scheduled=((2, "torn_install"),))
    backend = ResilientBackend(inner, plan, metrics=registry)
    backend.bind_table(heap)
    assert backend.install_cells("jt", "g", [1, 2, 3]) == (3, 0)
    assert backend.install_cells("jt", "g", [1, 2, 3]) == (0, 3)
    assert inner._install_kill is None
    assert backend.install_cells("jt", "g", [4]) == (1, 0)
    stats = backend.stats()
    assert (stats["injected_faults"], stats["retries"], stats["failures"]) == (1, 1, 0)
    assert inner.installed_cell_count("jt", "g") == 4
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]


# -- real driver errors take the injected faults' path ------------------------


def test_locked_database_is_retried_then_served_from_the_mirror(tmp_path):
    """A second connection's exclusive lock degrades the run, never raises."""
    import sqlite3

    golden, _, _ = _run()
    path = str(tmp_path / "locked.db")
    database = make_database(_DATASET, "cluster", backend=f"sqlite:{path}")
    registry = MetricsRegistry()
    database.attach_metrics(registry)
    database.attach_resilience(BackendFaultPlan(seed=0))  # injects nothing
    inner = database.backend.inner
    inner._conn.execute("PRAGMA busy_timeout = 0")  # fail fast, not after 5 s
    engine = SWEngine(database, _DATASET.name, sample_fraction=0.1)
    before = database.backend.stats()
    locker = sqlite3.connect(path)
    try:
        locker.execute("BEGIN EXCLUSIVE")
        with pytest.raises(BackendError, match="locked") as raised:
            inner.handle(_DATASET.name).column("x")
        assert raised.value.kind == "busy"
        trace = SearchTrace()
        report = engine.execute(_QUERY, SearchConfig(alpha=1.0), trace=trace)
    finally:
        locker.rollback()
        locker.close()
    assert report.outcome == "degraded"
    assert _result_set(report) == _result_set(golden)
    stats = database.backend.stats()
    assert stats["retries"] > 0 and stats["fallback_reads"] > 0
    assert stats["successes"] == before["successes"], "nothing reached the locked file"
    assert {e.detail["fault"] for e in trace.events(EventKind.BACKEND_RETRY)} == {"busy"}
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]
    # The lock is gone: the store answers again.
    assert inner.handle(_DATASET.name).column("x").size == inner.handle(_DATASET.name).num_rows


def test_torn_installs_under_engine_keep_parity(tmp_path):
    """torn_install-only chaos: engine completes, store matches the oracle."""
    golden, _, clean_db = _run()
    plan = BackendFaultPlan(seed=6, torn_install_prob=0.8)
    report, registry, db = _run(plan=plan)
    assert report.outcome in ("complete", "degraded")
    assert _result_set(report) == _result_set(golden)
    assert db.backend.installed_cell_count(
        _DATASET.name
    ) == clean_db.backend.installed_cell_count(_DATASET.name)
    # Interrupted installs are resumed by the retry path, so the real
    # store never *exceeds* the mirror and only lags it when an install
    # exhausted every attempt (a recorded failure, not silent loss).
    inner = db.backend.inner
    mirror = db.backend.mirror
    stats = db.backend.stats()
    inner_count = inner.installed_cell_count(_DATASET.name)
    mirror_count = mirror.installed_cell_count(_DATASET.name)
    assert inner_count <= mirror_count
    if stats["failures"] == 0:
        assert inner_count == mirror_count
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]
