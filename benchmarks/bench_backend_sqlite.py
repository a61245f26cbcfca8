"""SQLite backend overhead: wall-clock cost of real SQL behind the seam.

One canonical exploration (the paper's synthetic workload) runs twice —
simulator reference, then the SQLite backend — and the section reports
the wall-clock ratio alongside proof the runs were byte-identical
(result payloads, simulated completion time, block reads).  The
overhead number is informational — the dev-tier backend trades speed
for realism — but the equality gate is hard: a bench run that diverges
fails, because a backend that drifts from the oracle has no overhead
worth reporting.

Folded into ``BENCH_backend.json`` at the repo root via the same
latest-record-per-section scheme as the other suites.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench import emit_json
from repro.core import SearchConfig, SWEngine
from repro.workloads import make_database, synthetic_dataset, synthetic_query

_BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_backend.json"


def _record(section: str, payload: dict) -> None:
    """Latest-record-per-section fold into ``BENCH_backend.json``."""

    def _round(value):
        if isinstance(value, float):
            return round(value, 4)
        if isinstance(value, dict):
            return {k: _round(v) for k, v in value.items()}
        return value

    try:
        doc = json.loads(_BENCH_FILE.read_text())
    except (OSError, ValueError):
        doc = {}
    doc.setdefault("sections", {})[section] = _round(payload)
    doc["date"] = time.strftime("%Y-%m-%d")
    _BENCH_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _timed_run(dataset, query, backend):
    # Best-of-3 on the build: it is a ~10ms measurement, so a single
    # scheduler hiccup would dominate the gated ratio.
    build_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        database = make_database(dataset, "cluster", backend=backend)
        build_s = min(build_s, time.perf_counter() - start)

    start = time.perf_counter()
    engine = SWEngine(database, dataset.name, sample_fraction=0.1)
    report = engine.execute(query, SearchConfig(alpha=1.0))
    run_s = time.perf_counter() - start

    fingerprint = [
        (
            tuple(r.window.lo),
            tuple(r.window.hi),
            tuple(sorted(r.objective_values.items())),
            r.time,
        )
        for r in report.results
    ]
    return {
        "backend": database.backend.name,
        "build_s": build_s,
        "run_s": run_s,
        "results": len(report.results),
        "completion_time_s": report.run.completion_time_s,
        "blocks_read": database.disk(dataset.name).blocks_read,
        "installed_cells": database.backend.installed_cell_count(dataset.name),
    }, fingerprint


def test_sqlite_backend_overhead():
    dataset = synthetic_dataset("high", scale=0.2, seed=5)
    query = synthetic_query(dataset)

    sim, sim_fp = _timed_run(dataset, query, "simulator")
    sql, sql_fp = _timed_run(dataset, query, "sqlite:")

    # Hard gate: the overhead number is only meaningful for a backend
    # that is byte-identical to the oracle.
    assert sql_fp == sim_fp
    assert sql["completion_time_s"] == sim["completion_time_s"]
    assert sql["blocks_read"] == sim["blocks_read"]
    assert sql["installed_cells"] == sim["installed_cells"]

    payload = {
        "workload": "synth-high scale=0.2",
        "simulator": sim,
        "sqlite": sql,
        "overhead_run": sql["run_s"] / sim["run_s"],
        "overhead_build": sql["build_s"] / max(sim["build_s"], 1e-9),
        "byte_identical": True,
    }
    _record("sqlite_overhead", payload)
    emit_json("backend_sqlite_overhead", payload, metrics=None)
    print(
        f"\nsqlite overhead: run {payload['overhead_run']:.2f}x "
        f"(sim {sim['run_s']:.2f}s -> sqlite {sql['run_s']:.2f}s), "
        f"build {payload['overhead_build']:.1f}x, "
        f"{sim['results']} identical results"
    )


def _timed_resilient_run(dataset, query, plan):
    """One sqlite-backed run with the resilience wrapper attached."""
    database = make_database(dataset, "cluster", backend="sqlite:")
    if plan is not None:
        database.attach_resilience(plan)
    start = time.perf_counter()
    engine = SWEngine(database, dataset.name, sample_fraction=0.1)
    report = engine.execute(query, SearchConfig(alpha=1.0))
    run_s = time.perf_counter() - start
    fingerprint = [
        (
            tuple(r.window.lo),
            tuple(r.window.hi),
            tuple(sorted(r.objective_values.items())),
            r.time,
        )
        for r in report.results
    ]
    return run_s, report, fingerprint


def test_resilience_fault_overhead():
    """Zero-fault resilience wrapper costs <10% wall clock on sqlite.

    The retry/breaker/mirror machinery is pay-nothing when no faults
    fire: a zero-fault plan must return byte-identical results (times
    included) at under 10% overhead versus the bare backend.
    """
    from repro.storage import BackendFaultPlan

    dataset = synthetic_dataset("high", scale=0.2, seed=5)
    query = synthetic_query(dataset)

    # Warm-up, then best-of-3 each way to dampen scheduler noise.
    _timed_resilient_run(dataset, query, None)
    bare_s, bare_fp = float("inf"), None
    wrapped_s, wrapped_fp, wrapped_report = float("inf"), None, None
    for _ in range(3):
        s, _, fp = _timed_resilient_run(dataset, query, None)
        if s < bare_s:
            bare_s, bare_fp = s, fp
        s, report, fp = _timed_resilient_run(
            dataset, query, BackendFaultPlan(seed=0)
        )
        if s < wrapped_s:
            wrapped_s, wrapped_report, wrapped_fp = s, report, fp

    # Hard gates: byte-identical results, nothing injected, complete run.
    assert wrapped_fp == bare_fp
    assert wrapped_report.outcome == "complete"
    assert wrapped_report.backend_retries == 0

    overhead = wrapped_s / bare_s - 1.0
    payload = {
        "workload": "synth-high scale=0.2",
        "bare_run_s": bare_s,
        "resilient_run_s": wrapped_s,
        "overhead_fraction": overhead,
        "byte_identical": True,
    }
    assert overhead < 0.10, overhead
    _record("fault_overhead", payload)
    emit_json("backend_fault_overhead", payload, metrics=None)
    print(
        f"\nzero-fault resilience overhead: {overhead * 100:.1f}% "
        f"(bare {bare_s:.2f}s -> resilient {wrapped_s:.2f}s)"
    )
