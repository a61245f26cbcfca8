"""Sessions fail alone: one session's failing store ends that session only.

A served session attaches no resilience layer, so a
:class:`~repro.errors.BackendError` (a locked or corrupt store, a full
disk) reaches the scheduler from inside the session's slice.  The
scheduler ends that session ``aborted`` with a ``serve`` degradation
naming the error, and every other session runs on exactly as if it had
been alone.  An exception that is not a :class:`~repro.errors.ReproError`
is a bug: the socket server stops loudly and answers ``server_error``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.serve.manager as manager_module
from repro.errors import BackendError, ProtocolError
from repro.serve import AsyncServeClient, ExplorationServer, RunRecorder, ServeConfig, ServeCore
from repro.serve.replay import replay_journal

pytestmark = pytest.mark.serve

SUBMITS = [
    {"session": f"s{i}", "workload": "synth-low", "scale": 0.1, "seed": 100 + i}
    for i in range(3)
]
FAILING = "s1"
FAIL_ON_SCAN = 3


def _config() -> ServeConfig:
    # No shared cache: each session's run is then a function of its own
    # submission alone, so "equal to a solo run" is exact.
    return ServeConfig(max_live=3, queue_limit=4, slice_steps=4, use_cache=False)


@pytest.fixture()
def failing_store(monkeypatch):
    """The second database built fails its ``FAIL_ON_SCAN``-th region scan.

    Databases are built in submission order, so the double hits session
    ``s1``.  ``error`` picks the exception the scan raises; ``healthy``
    turns the double off; ``built`` counts databases since the last reset.
    """
    real = manager_module.make_database
    state = {
        "built": 0,
        "healthy": False,
        "error": lambda: BackendError("database is locked", kind="busy"),
    }

    def make_database(dataset, placement):
        database = real(dataset, placement)
        state["built"] += 1
        if state["built"] == 2 and not state["healthy"]:
            handle = database.table(dataset.name)
            scan = handle.scan_region
            scans = [0]

            def failing_scan(*args, **kwargs):
                scans[0] += 1
                if scans[0] == FAIL_ON_SCAN:
                    raise state["error"]()
                return scan(*args, **kwargs)

            handle.scan_region = failing_scan
        return database

    monkeypatch.setattr(manager_module, "make_database", make_database)
    return state


def _session_bytes(core: ServeCore, name: str) -> bytes:
    return json.dumps(core.fingerprint_payload()["sessions"][name], sort_keys=True).encode()


def _solo(name: str) -> bytes:
    core = ServeCore(_config())
    core.submit(next(s for s in SUBMITS if s["session"] == name))
    while core.tick() is not None:
        pass
    return _session_bytes(core, name)


def test_failing_session_aborts_and_the_others_run_as_if_alone(failing_store):
    core = ServeCore(_config())
    for payload in SUBMITS:
        core.submit(payload)
    decisions = []
    while (decision := core.tick()) is not None:
        decisions.append(decision)
    assert (FAILING, "aborted") in decisions

    failed = core.handles[FAILING]
    assert failed.outcome == "aborted"
    assert failed.run.interrupt_reason == "error:BackendError"
    (degradation,) = failed.degradations
    assert degradation.layer == "serve"
    assert "BackendError" in degradation.reason and "locked" in degradation.reason
    status = core.status(FAILING)
    assert status["state"] == "done" and status["interrupted"] is True
    assert status["interrupt_reason"] == "error:BackendError"
    # The outcome and its reason are on the wire, verbatim.
    wire = {"layer": "serve", "reason": degradation.reason}
    assert (status["outcome"], status["degradations"]) == ("aborted", [wire])
    page = core.results(FAILING)
    assert (page["outcome"], page["degradations"]) == ("aborted", [wire])

    stats = core.stats()
    assert stats["counters"]["serve.sessions_completed"] == 3
    failing_store["healthy"] = True
    for name in ("s0", "s2"):
        assert core.handles[name].outcome == "complete"
        assert _session_bytes(core, name) == _solo(name)


def test_replay_reproduces_the_abort_or_names_the_session(failing_store):
    recorder = RunRecorder(_config())
    core = ServeCore(_config(), on_event=recorder.record)
    for payload in SUBMITS:
        core.submit(payload)
    while core.tick() is not None:
        pass
    recorder.finish(core.fingerprint_payload())

    failing_store["built"] = 0
    report = replay_journal(recorder.dump())
    assert report.matches, report.mismatches

    # Against a healthy store the failing slice does not fail: the replay
    # finishes and names the session that diverged.
    failing_store["healthy"] = True
    report = replay_journal(recorder.dump())
    assert not report.matches
    assert any(f"'{FAILING}'" in line for line in report.mismatches)


async def _serve_three(server: ExplorationServer) -> dict:
    host, port = await server.start()
    try:
        async with await AsyncServeClient.open(host, port) as client:
            for payload in SUBMITS:
                spec = {k: v for k, v in payload.items() if k != "session"}
                await client.submit(payload["session"], spec.pop("workload"), **spec)
            statuses = {
                s["session"]: await client.wait(s["session"], poll_s=0.01, timeout_s=60.0)
                for s in SUBMITS
            }
            statuses["page"] = await client.results(FAILING)
            statuses["stats"] = await client.stats()
            return statuses
    finally:
        await server.stop()


def test_socket_server_survives_a_failing_session(failing_store):
    server = ExplorationServer(_config())
    statuses = asyncio.run(asyncio.wait_for(_serve_three(server), timeout=120))
    assert statuses[FAILING]["interrupt_reason"] == "error:BackendError"
    for payload in (statuses[FAILING], statuses["page"]):
        assert payload["outcome"] == "aborted"
        (degradation,) = payload["degradations"]
        assert degradation["layer"] == "serve"
        assert "BackendError" in degradation["reason"] and "locked" in degradation["reason"]
    for name in ("s0", "s2"):
        assert statuses[name]["state"] == "done"
        assert statuses[name]["interrupt_reason"] is None
        assert (statuses[name]["outcome"], statuses[name]["degradations"]) == ("complete", [])
    assert statuses["stats"]["counters"]["serve.sessions_completed"] == 3
    assert server.failure is None


def test_a_bug_stops_the_socket_server_loudly(failing_store, capsys):
    failing_store["error"] = lambda: ZeroDivisionError("not a store fault")
    server = ExplorationServer(_config())
    with pytest.raises(ProtocolError) as excinfo:
        asyncio.run(asyncio.wait_for(_serve_three(server), timeout=120))
    assert excinfo.value.args[0] == "server_error"
    assert "ZeroDivisionError" in excinfo.value.args[1]
    assert isinstance(server.failure, ZeroDivisionError)
    assert "scheduler pump failed" in capsys.readouterr().err
