"""Cell installs dedup in RAM and are journalled by a flush (DESIGN.md §15-16).

``SQLiteBackend.install_cells`` only counts and buffers; the journal
protocol runs in ``flush_installs`` — at the search's terminal step, at
checkpoint capture, before any read of the persisted record and on
``close()``.  This file pins what that split promises:

* whatever the interleaving of installs, flushes, reopens, restores,
  rebinds and torn flushes, every ``(installed, deduped)`` pair equals
  the simulator's, and after a flush the store equals RAM and the
  journal is empty (model-based, hypothesis);
* between a query's first window read and its terminal step the store
  sees no write statement;
* a crash before a flush loses that flush's installs and nothing else;
* a file written before the stat rows left the store (stat table, count
  columns, a ``"stats"`` journal payload) opens, recovers and dedups;
* a checkpoint captured mid-query carries the buffered installs;
* under the resilience layer a torn flush leaves a pending journal row
  that its own retry retires.

The kill-point tests of the protocol itself stay in
``test_backend_resilience.py``.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SearchConfig, SWEngine
from repro.errors import TornWriteError
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage import (
    BackendFaultPlan,
    HeapTable,
    ResilientBackend,
    SimulatorBackend,
    SQLiteBackend,
    TableSchema,
)
from repro.workloads import make_database, synthetic_dataset, synthetic_query

pytestmark = pytest.mark.backend

_DATASET = synthetic_dataset("high", scale=0.2, seed=5)
_QUERY = synthetic_query(_DATASET)


def _heap() -> HeapTable:
    rng = np.random.default_rng(7)
    return HeapTable(
        "jt",
        TableSchema(["x", "y"], ["x", "y"]),
        {"x": rng.uniform(0, 10, 40), "y": rng.uniform(0, 10, 40)},
        tuples_per_block=16,
    )


def _journal_rows(backend) -> int:
    return backend._conn.execute("SELECT COUNT(*) FROM sw_install_journal").fetchone()[0]


# -- model-based: any interleaving counts like the simulator ------------------

_GKEYS = ("g1", "g2")
_cells = st.lists(st.integers(0, 9), max_size=6)
_install = st.tuples(st.just("install"), st.sampled_from(_GKEYS), _cells)
_restore = st.tuples(
    st.just("restore"), st.sampled_from(_GKEYS), st.lists(st.integers(0, 9), max_size=4, unique=True)
)
_step = st.one_of(
    _install,
    _install,
    st.tuples(st.just("flush")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("rebind")),
    st.tuples(st.just("tear"), st.integers(1, 6)),
    _restore,
)


_ONE = ("install", "g1", [1, 2])


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_step, max_size=25))
@example(steps=[_ONE, ("reopen",), _ONE])  # counts against what the file holds
@example(steps=[_ONE, ("rebind",), _ONE])  # a rebind forgets RAM and store alike
@example(steps=[_ONE, ("restore", "g2", [2]), _ONE])
@example(steps=[_ONE, ("tear", 2), ("flush",)])  # the next flush retires the intent
@example(steps=[_ONE, ("tear", 1), ("install", "g1", [3]), ("reopen",), _ONE])
def test_any_interleaving_counts_like_the_simulator(steps):
    """install / flush / reopen / restore / rebind / torn flush vs the oracle."""
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "model.db")
        backend, oracle = SQLiteBackend(path), SimulatorBackend()
        backend.bind_table(_heap())
        oracle.bind_table(_heap())
        for step in steps:
            if step[0] == "install":
                _, gkey, cells = step
                got = backend.install_cells("jt", gkey, cells)
                assert got == oracle.install_cells("jt", gkey, cells)
            elif step[0] == "flush":
                backend.flush_installs()
                assert _journal_rows(backend) == 0
                assert not backend._pending
            elif step[0] == "reopen":
                backend.close()
                backend = SQLiteBackend(path)
                assert backend.recovered_installs == 0, "close() flushed everything"
            elif step[0] == "rebind":
                backend.bind_table(_heap())
                oracle.bind_table(_heap())
            elif step[0] == "tear":
                backend.arm_install_tear(step[1])
                try:
                    backend.flush_installs()
                except TornWriteError:
                    assert _journal_rows(backend) >= 1
                backend.disarm_install_tear()
            else:
                _, gkey, cells = step
                state = {"installs": {gkey: sorted(cells)}}
                backend.restore_install_state("jt", state)
                oracle.restore_install_state("jt", state)
        backend.flush_installs()
        assert _journal_rows(backend) == 0
        state = backend.install_state("jt")
        expected = {g: c for g, c in oracle.install_state("jt")["installs"].items() if c}
        assert state == {"installs": expected}
        backend.close()


# -- the read path writes nothing ---------------------------------------------

_WRITES = ("INSERT", "DELETE", "UPDATE", "COMMIT", "BEGIN")


def test_no_write_statement_between_first_read_and_terminal_step(tmp_path):
    database = make_database(_DATASET, "cluster", backend=f"sqlite:{tmp_path / 'read.db'}")
    conn = database.backend._conn
    engine = SWEngine(database, _DATASET.name, sample_fraction=0.1)
    statements: list[str] = []
    conn.set_trace_callback(statements.append)
    before = conn.total_changes

    stream = engine.execute_iter(_QUERY, SearchConfig(alpha=1.0))
    results = [next(stream) for _ in range(10)]
    assert len(results) == 10 and stream.search.data.reads > 0
    assert conn.total_changes == before
    written = [s for s in statements if s.lstrip().upper().startswith(_WRITES)]
    assert not written, written[:3]
    assert database.backend._pending, "the installs of those reads wait in RAM"

    stream.cancel()
    assert next(stream, None) is None  # the terminal step flushes
    conn.set_trace_callback(None)
    assert any(s.startswith("INSERT INTO sw_install_journal") for s in statements)
    assert not database.backend._pending
    assert _journal_rows(database.backend) == 0
    assert conn.execute("SELECT COUNT(*) FROM sw_cell_installs").fetchone()[0] > 0
    assert conn.total_changes > before
    database.close()


# -- crash before a flush -------------------------------------------------------


def test_crash_before_a_flush_keeps_exactly_the_previous_flush(tmp_path):
    path = str(tmp_path / "crash.db")
    backend = SQLiteBackend(path)
    backend.bind_table(_heap())
    backend.install_cells("jt", "g", [1, 2, 3])
    backend.flush_installs()
    flushed = backend.install_state("jt")
    assert backend.install_cells("jt", "g", [3, 4, 5]) == (2, 1)
    backend._conn.close()  # the process dies: no close(), no flush

    reopened = SQLiteBackend(path)
    assert reopened.recovered_installs == 0
    assert _journal_rows(reopened) == 0
    assert reopened.install_state("jt") == flushed
    # The lost installs count as new again: the store is the authority.
    assert reopened.install_cells("jt", "g", [3, 4, 5]) == (2, 1)
    reopened.close()


# -- files written before the stat rows left the store ----------------------------

_OLD_SCHEMA = """
CREATE TABLE sw_tables (name TEXT PRIMARY KEY, tuples_per_block INTEGER,
    num_rows INTEGER, columns TEXT, coord_columns TEXT);
CREATE TABLE sw_cell_installs (table_name TEXT, grid_key TEXT, flat_id INTEGER,
    PRIMARY KEY (table_name, grid_key, flat_id));
CREATE TABLE sw_cell_stats (table_name TEXT, grid_key TEXT, flat_id INTEGER,
    objective TEXT, tuples INTEGER, total REAL, minimum REAL, maximum REAL,
    PRIMARY KEY (table_name, grid_key, flat_id, objective));
CREATE TABLE sw_install_journal (journal_id INTEGER PRIMARY KEY AUTOINCREMENT,
    table_name TEXT, grid_key TEXT, payload TEXT, installed INTEGER, deduped INTEGER);
INSERT INTO sw_cell_installs VALUES ('jt', 'g', 1), ('jt', 'g', 2);
INSERT INTO sw_cell_stats VALUES ('jt', 'g', 1, 'avg:v', 2, 1.0, 0.5, NULL);
INSERT INTO sw_install_journal (table_name, grid_key, payload, installed, deduped)
    VALUES ('jt', 'g', '{"ids": [2, 3, 4], "stats": [[3, "avg:v", 1, 9.0, 9.0, 9.0]]}', 3, 0);
"""


def test_a_file_in_the_old_format_opens_recovers_and_dedups(tmp_path):
    """Stat table, count columns, a torn flush whose payload has ``"stats"``."""
    path = str(tmp_path / "old.db")
    conn = sqlite3.connect(path)
    conn.executescript(_OLD_SCHEMA)
    conn.close()

    backend = SQLiteBackend(path)
    assert backend.recovered_installs == 1
    assert _journal_rows(backend) == 0
    assert backend.install_state("jt") == {"installs": {"g": [1, 2, 3, 4]}}, "2 installed once"
    tables = {n for (n,) in backend._conn.execute("SELECT name FROM sqlite_master")}
    assert "sw_cell_stats" not in tables
    # The journal keeps its two old nullable columns; new rows omit them.
    assert backend.install_cells("jt", "g", [4, 5]) == (1, 1)
    backend.arm_install_tear(1)
    with pytest.raises(TornWriteError, match="intent"):
        backend.flush_installs()
    assert backend._conn.execute(
        "SELECT payload, installed, deduped FROM sw_install_journal"
    ).fetchall() == [('{"ids": [5]}', None, None)]
    backend.close()  # flushes: the torn intent rolls forward first
    reopened = SQLiteBackend(path)
    assert reopened.recovered_installs == 0
    assert reopened.installed_cell_count("jt", "g") == 5
    reopened.close()


# -- checkpoint capture -----------------------------------------------------------


def test_mid_query_checkpoint_carries_the_buffered_installs():
    captures = {}
    for name in ("sqlite:", "simulator"):
        database = make_database(_DATASET, "cluster", backend=name)
        engine = SWEngine(database, _DATASET.name, sample_fraction=0.1)
        search = engine.prepare(_QUERY, SearchConfig(alpha=1.0))
        search.begin()
        while search.data.reads < 3:
            assert search.step()[0] in ("step", "result")
        if name == "sqlite:":
            assert database.backend._pending, "nothing flushed mid-query"
        captures[name] = search.checkpoint_state()["backend_installs"]
        if name == "sqlite:":
            assert not database.backend._pending, "capture flushes first"
            assert _journal_rows(database.backend) == 0
    assert captures["sqlite:"] == captures["simulator"]
    assert set(captures["simulator"]) == {"installs"}


# -- a torn flush under the resilience layer ----------------------------------------


def test_scheduled_torn_flush_is_retired_by_its_own_retry():
    inner = SQLiteBackend()
    registry = MetricsRegistry()
    # Guarded ops: bind(0), install(1), flush(2: torn), its retry(3).
    plan = BackendFaultPlan(seed=0, scheduled=((2, "torn_install"),))
    backend = ResilientBackend(inner, plan, metrics=registry)
    backend.bind_table(_heap())
    assert backend.install_cells("jt", "g", [1, 2, 3]) == (3, 0)

    pending_at_entry = []
    flush = inner.flush_installs

    def spying_flush():
        pending_at_entry.append(_journal_rows(inner))
        flush()

    inner.flush_installs = spying_flush
    backend.flush_installs()
    assert pending_at_entry == [0, 1], "the tear left its intent row for the retry"
    assert _journal_rows(inner) == 0 and inner._install_kill is None
    assert inner.installed_cell_count("jt", "g") == 3
    stats = backend.stats()
    assert (stats["injected_faults"], stats["retries"], stats["failures"]) == (1, 1, 0)
    assert registry.value("storage.backend.faults.torn_install") == 1
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]
