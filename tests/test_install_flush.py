"""Cell installs dedup in RAM and are written by a flush (DESIGN.md §15).

``SQLiteBackend.install_cells`` only counts and buffers; ``flush_installs``
writes every buffered batch in one transaction — at the search's
terminal step, at checkpoint capture, before any read of the persisted
record and on ``close()``.  This file pins what that split promises:

* whatever the interleaving of installs, flushes, reopens, restores,
  rebinds and flushes aborted mid-statement, every ``(installed,
  deduped)`` pair equals the simulator's, and after a flush the store
  equals RAM (model-based, hypothesis);
* between a query's first window read and its terminal step the store
  sees no write statement;
* a crash before a flush, or a process killed inside one, loses that
  flush's installs and nothing else;
* a file written by the older journalled flush (stat table, count
  columns, a torn intent whose payload has ``"stats"``) opens, applies
  the intent once and dedups;
* a checkpoint captured mid-query carries the buffered installs;
* under the resilience layer a drawn torn flush is retired by its own
  retry.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.core import SearchConfig, SWEngine
from repro.errors import BackendError
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


def _tables(backend) -> set[str]:
    return {n for (n,) in backend._conn.execute("SELECT name FROM sqlite_master")}


@contextlib.contextmanager
def _aborting(backend, rows: int):
    """Abort the flush's statement once ``rows`` of its rows went in.

    Only inside the ``executemany``, while rows are still to come: a
    flush writing no more than ``rows`` rows is never aborted.
    """
    conn = backend._conn
    base, total = conn.total_changes, sum(map(len, backend._pending.values()))
    fired = False

    def abort() -> bool:
        nonlocal fired
        # Once only: the rollback that follows must run.
        if fired or not rows <= conn.total_changes - base < total:
            return False
        fired = True
        return True

    conn.set_progress_handler(abort, 1)
    try:
        yield
    finally:
        conn.set_progress_handler(None, 0)


def _stored(backend) -> list:
    return backend._conn.execute("SELECT * FROM sw_cell_installs").fetchall()


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
@example(steps=[_ONE, ("tear", 1), ("flush",)])  # the next flush writes the batch
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
                assert not backend._pending
            elif step[0] == "reopen":
                backend.close()
                backend = SQLiteBackend(path)
            elif step[0] == "rebind":
                backend.bind_table(_heap())
                oracle.bind_table(_heap())
            elif step[0] == "tear":
                stored = _stored(backend)
                pending = {key: list(ids) for key, ids in backend._pending.items()}
                try:
                    with _aborting(backend, step[1]):
                        backend.flush_installs()
                except BackendError:
                    assert _stored(backend) == stored and backend._pending == pending
            else:
                _, gkey, cells = step
                state = {"installs": {gkey: sorted(cells)}}
                backend.restore_install_state("jt", state)
                oracle.restore_install_state("jt", state)
        backend.flush_installs()
        state = backend.install_state("jt")
        expected = {g: c for g, c in oracle.install_state("jt")["installs"].items() if c}
        assert state == {"installs": expected}
        backend.close()


def test_a_flush_aborted_mid_statement_rolls_back_whole(tmp_path):
    """An abort 300 rows into 1202: nothing stored, everything kept for the retry."""
    backend, oracle = SQLiteBackend(str(tmp_path / "abort.db")), SimulatorBackend()
    backend.bind_table(_heap())
    oracle.bind_table(_heap())
    backend.install_cells("jt", "g", [7, 8])
    oracle.install_cells("jt", "g", [7, 8])
    backend.flush_installs()
    stored = _stored(backend)
    ids = list(range(1200))
    assert backend.install_cells("jt", "g", ids) == oracle.install_cells("jt", "g", ids)
    assert backend.install_cells("jt", "h", [1, 2, 3, 4]) == (4, 0)
    pending = {key: list(ids) for key, ids in backend._pending.items()}

    changes = backend._conn.total_changes
    with pytest.raises(BackendError, match="interrupted") as raised:
        with _aborting(backend, 300):
            backend.flush_installs()
    assert raised.value.kind == "disconnect"
    assert backend._conn.total_changes - changes == 300, "rows went in, then rolled back"
    assert not backend._conn.in_transaction
    assert _stored(backend) == stored
    assert backend._pending == pending

    backend.flush_installs()
    assert not backend._pending
    assert backend.installed_cell_count("jt", "g") == 1200
    assert backend.installed_cell_count("jt", "h") == 4
    assert backend.install_cells("jt", "g", ids) == oracle.install_cells("jt", "g", ids)
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
    assert any(s.startswith("INSERT INTO sw_cell_installs") for s in statements)
    assert not database.backend._pending
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
    assert reopened.install_state("jt") == flushed
    # The lost installs count as new again: the store is the authority.
    assert reopened.install_cells("jt", "g", [3, 4, 5]) == (2, 1)
    reopened.close()


_KILLED_FLUSH = """
import os, sys
import numpy as np
from repro.storage import HeapTable, SQLiteBackend, TableSchema

backend = SQLiteBackend(sys.argv[1])
xy = np.arange(40.0)
backend.bind_table(HeapTable("jt", TableSchema(["x", "y"], ["x", "y"]), {"x": xy, "y": xy}))
backend.install_cells("jt", "g", [1, 2, 3])
backend.flush_installs()
backend.install_cells("jt", "g", range(3, 600))
conn = backend._conn
base = conn.total_changes
# The process dies inside the flush's executemany, 200 rows in.
conn.set_progress_handler(lambda: conn.total_changes - base >= 200 and os._exit(0), 1)
backend.flush_installs()
sys.exit("the flush was not killed")
"""


def test_a_process_killed_inside_a_flush_keeps_exactly_the_previous_flush(tmp_path):
    """SQLite rolls the hot journal back: none of the killed flush's rows."""
    path = str(tmp_path / "killed.db")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_FLUSH, path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert Path(path + "-journal").exists(), "the killed flush left a hot journal"

    reopened = SQLiteBackend(path)
    assert reopened.install_state("jt") == {"installs": {"g": [1, 2, 3]}}
    assert reopened.install_cells("jt", "g", [2, 3, 4]) == (1, 2)
    reopened.close()


# -- files written by the journalled flush -----------------------------------------

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
    assert not {"sw_install_journal", "sw_cell_stats"} & _tables(backend)
    assert backend.install_state("jt") == {"installs": {"g": [1, 2, 3, 4]}}, "2 installed once"
    assert backend.install_cells("jt", "g", [4, 5]) == (1, 1)
    backend.close()
    reopened = SQLiteBackend(path)
    assert "sw_install_journal" not in _tables(reopened)
    assert reopened.install_state("jt") == {"installs": {"g": [1, 2, 3, 4, 5]}}
    assert reopened.install_cells("jt", "g", [1, 5, 6]) == (1, 2)
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

    calls = []
    flush = inner.flush_installs

    def spying_flush():
        calls.append(dict(inner._pending))
        flush()

    inner.flush_installs = spying_flush
    backend.flush_installs()
    # The torn attempt never reached the store; its retry wrote the batch.
    assert calls == [{("jt", "g"): [1, 2, 3]}]
    assert not inner._pending
    assert inner.installed_cell_count("jt", "g") == 3
    stats = backend.stats()
    assert (stats["injected_faults"], stats["retries"], stats["failures"]) == (1, 1, 0)
    assert registry.value("storage.backend.faults.torn_install") == 1
    audit = InvariantAuditor(registry).report()
    assert audit["ok"], audit["violations"]
