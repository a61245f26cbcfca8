"""Served sessions on a file-backed store: every ended session closes.

Only a search that takes its terminal step flushes its buffered cell
installs by itself; a session stopped by its step budget, cancelled or
cut off by a server shutdown never does.  ``SessionManager.finish`` (and
``SessionManager.close`` at shutdown) close the session's database, and
the close is what makes those installs durable.  Each test reads the
file back through a fresh ``sqlite3`` connection, as a second process
would.
"""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from repro.serve import ExplorationServer, ServeConfig, ServeCore

pytestmark = pytest.mark.serve

_SUBMIT = {"session": "s1", "workload": "synth-high", "scale": 0.3, "seed": 101}


def _stored(path) -> tuple[int, int]:
    """``(installed ids, journal rows)`` as a second connection sees them."""
    conn = sqlite3.connect(path)
    try:
        return tuple(
            conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("sw_cell_installs", "sw_install_journal")
        )
    finally:
        conn.close()


def test_budget_stopped_session_leaves_its_installs_in_the_file(tmp_path, monkeypatch):
    path = tmp_path / "s.db"
    monkeypatch.setenv("DATABASE_URL", f"sqlite:{path}")
    core = ServeCore(ServeConfig())
    assert core.submit({**_SUBMIT, "step_budget": 40})["outcome"] == "live"
    while core.tick() is not None:
        pass
    status = core.status("s1")
    assert (status["state"], status["interrupted"], status["interrupt_reason"]) == (
        "done", True, "step_budget"
    )
    backend = core.handles["s1"].database.backend
    assert backend._closed and not backend._pending
    installed, journal = _stored(path)
    assert installed == sum(map(len, backend._seen.values())) > 0
    assert journal == 0
    # A finished session answers from its Python objects, not the store.
    assert core.results("s1")["total"] == status["results"] > 0
    assert core.fingerprint_payload()["sessions"]["s1"]["steps"] == 40


def test_cancelled_session_closes_too(tmp_path, monkeypatch):
    path = tmp_path / "c.db"
    monkeypatch.setenv("DATABASE_URL", f"sqlite:{path}")
    core = ServeCore(ServeConfig(slice_steps=8))
    core.submit(_SUBMIT)
    core.tick()
    assert core.cancel("s1")["cancelled"]
    while core.tick() is not None:
        pass
    assert core.handles["s1"].database.backend._closed
    installed, journal = _stored(path)
    assert installed > 0 and journal == 0


def test_server_stop_closes_sessions_still_live_or_waiting(tmp_path, monkeypatch):
    path = tmp_path / "stop.db"
    monkeypatch.setenv("DATABASE_URL", f"sqlite:{path}")

    async def body():
        server = ExplorationServer(ServeConfig(max_live=1, queue_limit=2, slice_steps=4))
        await server.start()
        core = server.core
        # Equal data: sessions on one file may share a stored table.
        core.submit(_SUBMIT)
        core.submit({**_SUBMIT, "session": "s2"})
        for _ in range(3):
            core.tick()
        states = {name: core.status(name)["state"] for name in ("s1", "s2")}
        await server.stop()
        return core, states

    core, states = asyncio.run(body())
    assert states == {"s1": "live", "s2": "waiting"}
    assert all(core.handles[n].database.backend._closed for n in ("s1", "s2"))
    installed, journal = _stored(path)
    assert installed > 0 and journal == 0
