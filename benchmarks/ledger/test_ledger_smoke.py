"""Smoke and schema self-test of the ledger (a few minutes; not in tier-1).

    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Every workload is run three times in ``--quick`` mode (two rounds): seed 5
untraced, seed 5 traced, seed 6 untraced.  The tests compare what those
runs print with ``BENCHMARK.json`` and with each other.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload, seed, trace, cwd=ROOT, command=None):
    argv = [*(command or SPEC["command"]), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for key, seed, trace in (("plain", 5, 0), ("traced", 5, 1), ("other", 6, 0)):
            done = run(workload, seed, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            out[workload, key] = (lines[:-1], json.loads(lines[-1]))
    return out


def printed(lines, key):
    (line,) = [l for l in lines if l.split()[0] == key]
    return line.split()[1:]


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert len(SPEC["workloads"]) == 4
    assert len(SPEC["end_to_end"]) == 9
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("key,section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_metric_printed_once_with_its_unit(runs, workload, key, section):
    lines, result = runs[workload, key]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        value, unit = printed(lines, metric["name"])
        assert unit == metric["unit"]
        assert float(value) == pytest.approx(entry["value"], rel=1e-4, abs=1e-12)
    for metric in SPEC["end_to_end"]:
        assert result["metrics"].get(metric["name"], {"value": 1})["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_integrity(runs, workload):
    _, result = runs[workload, "traced"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["bench.unattributed_ratio"] <= 0.10
    assert metrics["bench.trace_missing_targets"] == 0
    assert metrics["bench.ops_failed"] == 0
    with open(os.path.join(HERE, "out", f"{workload}.trace.json")) as handle:
        trace = json.load(handle)
    by_index = trace["spans"]
    assert by_index[0][0] == "bench.round" and by_index[0][3] == -1
    for layer, start, end, parent, _round in by_index[1:]:
        assert 0 <= parent < len(by_index) and start <= end
        assert by_index[parent][1] <= start and end <= by_index[parent][2] + 1e-6
    # Parts sum to the whole: self times of all layers add up to the round.
    assert sum(trace["self_s"].values()) == pytest.approx(trace["round_wall_s"], rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_discriminate(runs, workload):
    _, result = runs[workload, "traced"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}

    def total(prefix):
        return sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith("self_s"))

    if workload != "sqlite_firstk":
        assert total("storage.sqlite_backend.") == 0
    if workload != "dist16":
        assert total("distributed.") == 0
    if workload != "serve_burst":
        assert total("serve.") == 0
    own = {"serial_full": "core.search.", "sqlite_firstk": "storage.sqlite_backend.",
           "serve_burst": "serve.", "dist16": "distributed."}[workload]
    assert total(own) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_makes_the_inputs_and_the_same_seed_the_same_results(runs, workload):
    plain, _ = runs[workload, "plain"]
    traced, _ = runs[workload, "traced"]
    other, _ = runs[workload, "other"]
    assert printed(plain, "inputs") == printed(traced, "inputs")
    assert printed(plain, "inputs") != printed(other, "inputs")
    assert printed(plain, "results") == printed(traced, "results")
    assert printed(plain, "sim_completion_s") == printed(traced, "sim_completion_s")


def test_oracle_agrees_with_the_sql_baseline():
    from repro.dbms.baseline import run_sql_baseline
    from repro.workloads import (SDSS_QUERIES, make_database, sdss_dataset, sdss_query,
                                 synthetic_dataset, synthetic_query)
    from workloads import qualifying_windows

    synth = synthetic_dataset("high", scale=0.2, seed=5)
    sdss = sdss_dataset(scale=0.25, seed=5)
    spec = SDSS_QUERIES["medium"]
    cases = [
        (synth, synthetic_query(synth), (5, 10), (20.0, 30.0)),
        (sdss, sdss_query(sdss, "medium"), (spec.card_lo, spec.card_hi),
         (spec.speed_lo, spec.speed_hi)),
    ]
    for dataset, query, card, avg in cases:
        sure, edge = qualifying_windows(dataset, query, card, avg)
        baseline = run_sql_baseline(make_database(dataset, "cluster", backend="simulator"),
                                    dataset.name, query)
        expected = {(tuple(r.window.lo), tuple(r.window.hi)) for r in baseline.results}
        assert expected and sure <= expected <= sure | edge


def test_oracle_wants_enough_windows_not_only_sound_ones():
    from workloads import FIRST_K, Expectation, Op, _peek

    sure = frozenset(((i, 0), (i + 1, 1)) for i in range(FIRST_K + 2))
    edge = frozenset([((0, 5), (1, 6))])
    windows = sorted(sure)

    def op(count):
        return Op(0.0, [0.1] * count, 0.2, windows[:count])

    session = Expectation(sure, edge, at_least=FIRST_K)
    assert session.violation(op(FIRST_K - 1)) and not session.violation(op(FIRST_K + 2))
    # A window near a threshold may go either way; it does not excuse the count.
    peek = _peek(sure, edge)
    assert peek.violation(op(FIRST_K - 1)) and peek.violation(op(FIRST_K + 1))
    assert not peek.violation(op(FIRST_K))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(WORKLOADS[0], 5, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
