"""Table 4 — Distributed execution of the synthetic high-spread query.

Paper (Section 6.7), Synth-clust placement, a=1.0 (times in seconds):

    Nodes, Overlap   First result  All results  Total time
    1 node,  no           6            820         1820
    2 nodes, no           6            470         1050
    4 nodes, no           5            360          580
    8 nodes, no           7            200          350
    ... (full overlap consistently worse in total time)
    8 nodes, part         7            300          540

Expected shapes: sub-linear total-time scaling with node count; the
full-overlap case does not consistently beat no-overlap (overlapped data
is read multiple times); part-overlap lands between them; and the
deliberately skewed split degrades total time (slowest worker dominates).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench import bench_scale, emit_json, format_seconds, get_synthetic, print_table
from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    SearchConfig,
    SWQuery,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    col,
)
from repro.distributed import DistributedConfig, FaultPlan, run_distributed
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage import TableSchema
from repro.workloads import Dataset, synthetic_query

CASES = [
    (1, "no_overlap"),
    (2, "no_overlap"),
    (4, "no_overlap"),
    (8, "no_overlap"),
    (1, "full_overlap"),
    (2, "full_overlap"),
    (4, "full_overlap"),
    (8, "full_overlap"),
    (8, "part_overlap"),
]


def _run_experiment() -> dict:
    fraction = bench_scale().sample_fraction
    dataset = get_synthetic("high")
    query = synthetic_query(dataset)
    out: dict = {"cases": {}, "skew": {}, "registries": []}

    def run(label: str, config: DistributedConfig):
        registry = MetricsRegistry()
        report = run_distributed(dataset, query, config, metrics=registry)
        out["registries"].append((label, registry))
        return report

    for nodes, overlap in CASES:
        config = DistributedConfig(
            num_workers=nodes,
            overlap=overlap,
            placement="cluster",
            search=SearchConfig(alpha=1.0),
            sample_fraction=fraction,
        )
        out["cases"][(nodes, overlap)] = run(f"{nodes}x_{overlap}", config)
    for skew in (0.0, 0.3, 0.6):
        config = DistributedConfig(
            num_workers=8,
            overlap="no_overlap",
            placement="cluster",
            search=SearchConfig(alpha=1.0),
            sample_fraction=fraction,
            skew=skew,
        )
        out["skew"][skew] = run(f"skew_{skew}", config)
    # Fault overhead: the same 8-node run under a chaos plan (one crash,
    # lossy channel, one straggler) — recovery cost shows up as extra
    # total time; the result set must not move.
    baseline = out["cases"][(8, "no_overlap")]
    out["faults"] = {}
    for seed in (1, 2):
        config = DistributedConfig(
            num_workers=8,
            overlap="no_overlap",
            placement="cluster",
            search=SearchConfig(alpha=1.0),
            sample_fraction=fraction,
            faults=FaultPlan.chaos(seed, 8, crash_at_s=baseline.total_time_s / 3),
        )
        out["faults"][seed] = run(f"chaos_{seed}", config)
    return out


def test_table4_distributed(benchmark):
    out = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    rows = []
    for nodes, overlap in CASES:
        rep = out["cases"][(nodes, overlap)]
        rows.append(
            [
                f"{nodes} node(s), {overlap.split('_')[0]}",
                format_seconds(rep.first_result_time_s),
                format_seconds(rep.all_results_time_s),
                format_seconds(rep.total_time_s),
                rep.num_results,
                rep.messages_sent,
            ]
        )
    print_table(
        "Table 4: distributed synthetic high-spread query (Synth-clust, a=1.0)",
        ["Nodes, Overlap", "First result", "All results", "Total time", "Results", "Msgs"],
        rows,
    )
    skew_rows = [
        [f"skew={skew}", format_seconds(rep.total_time_s), format_seconds(max(rep.worker_times_s))]
        for skew, rep in out["skew"].items()
    ]
    print_table(
        "Partition-size skew (8 nodes, no overlap)",
        ["Skew", "Total time", "Slowest worker"],
        skew_rows,
    )

    fault_rows = []
    for seed, rep in out["faults"].items():
        fault_rows.append(
            [
                f"chaos seed {seed}",
                format_seconds(rep.total_time_s),
                rep.num_results,
                rep.retries,
                rep.recovered_anchors,
                rep.messages_lost,
                "yes" if rep.degradations else "no",
            ]
        )
    print_table(
        "Fault overhead (8 nodes, no overlap, chaos plan: crash+loss+straggler)",
        ["Plan", "Total time", "Results", "Retries", "Re-seeded anchors", "Lost msgs", "Degraded"],
        fault_rows,
    )

    cases = out["cases"]
    counts = {rep.num_results for rep in cases.values()}
    assert len(counts) == 1, f"distribution changed the result set: {counts}"
    # Sub-linear but real scaling for the no-overlap case.
    no = {n: cases[(n, "no_overlap")].total_time_s for n in (1, 2, 4, 8)}
    assert no[2] < no[1] and no[4] < no[2] and no[8] < no[4]
    assert no[8] > no[1] / 16, "scaling should be sub-linear"
    # Full overlap is not better than no overlap at >= 4 nodes.
    assert cases[(8, "full_overlap")].total_time_s >= no[8] * 0.95
    # No remote traffic under full overlap.
    assert cases[(8, "full_overlap")].messages_sent == 0
    # Skew hurts total time.
    assert out["skew"][0.6].total_time_s > out["skew"][0.0].total_time_s
    # Chaos plans recover the identical result set, at a time cost.
    expected = {r.window for r in cases[(8, "no_overlap")].results}
    for rep in out["faults"].values():
        assert not rep.degradations
        assert {r.window for r in rep.results} == expected

    # Every run — all overlaps, skews, and chaos plans — must pass the
    # accounting-identity audit over its merged coordinator registry.
    merged = MetricsRegistry()
    for label, registry in out["registries"]:
        audit = InvariantAuditor(registry).report()
        assert audit["ok"], f"{label}: invariant audit failed: {audit['violations']}"
        merged.merge(registry)
    emit_json(
        "table4_distributed",
        {
            "no_overlap_total_s": {n: no[n] for n in (1, 2, 4, 8)},
            "runs_audited": len(out["registries"]),
        },
        metrics=merged,
    )


# -- cluster-scale recovery overhead -----------------------------------------

_BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_scale.json"

SCALE_WORKERS = (4, 16, 64, 256)


def _record(section: str, payload: dict) -> None:
    """Fold one section's numbers into ``BENCH_scale.json`` at repo root.

    The file keeps the latest result per section so fault-tolerance cost
    trajectories can be diffed commit-over-commit without scraping pytest
    output.  Floats are rounded: past ~4 significant digits the values
    are machine noise, and stable digits keep the committed diffs small.
    """

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


def _wide_dataset(cols: int = 512, seed: int = 1, n: int = 6000):
    """A wide dim-0 dataset so each of up to ``cols`` workers owns a slab."""
    rng = np.random.default_rng(seed)
    columns = {
        "x": rng.uniform(0, cols, n),
        "y": rng.uniform(0, 2, n),
        "v": rng.normal(20, 8, n),
    }
    grid = Grid(Rect.from_bounds([(0.0, float(cols)), (0.0, 2.0)]), (1.0, 1.0))
    dataset = Dataset(
        name="wide",
        columns=columns,
        schema=TableSchema(["x", "y", "v"], ["x", "y"]),
        grid=grid,
    )
    query = SWQuery.build(
        dimensions=("x", "y"),
        area=[(0.0, float(cols)), (0.0, 2.0)],
        steps=(1.0, 1.0),
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, 4),
            ContentCondition(
                ContentObjective.of("avg", col("v")), ComparisonOp.GT, 22.0
            ),
        ],
    )
    return dataset, query


def _run_scale_experiment() -> dict:
    dataset, query = _wide_dataset()
    out: dict = {}
    for nw in SCALE_WORKERS:
        config = DistributedConfig(num_workers=nw, sample_fraction=0.5)
        baseline = run_distributed(dataset, query, config)
        plan = FaultPlan.chaos_scale(1, nw, crash_at_s=baseline.total_time_s / 3.0)
        chaos = run_distributed(
            dataset,
            query,
            DistributedConfig(num_workers=nw, sample_fraction=0.5, faults=plan),
        )
        out[nw] = (baseline, chaos)
    return out


def test_scale_recovery_overhead(benchmark):
    """Recovery cost and reassignment traffic at 4 to 256 workers.

    The same wide query runs fault-free and under the seeded
    ``chaos_scale`` plan (a 12.5% rack storm, healing partitions, lossy
    network, straggler disk) at each cluster size.  Asserted shapes:
    every chaos run recovers the exact fault-free result set; recovery
    control-plane traffic stays O(lost cells) — a handful of adoption
    directives even when 32 of 256 workers die — and the simulated-time
    overhead of recovery stays bounded.
    """
    out = benchmark.pedantic(_run_scale_experiment, rounds=1, iterations=1)

    rows, payload = [], {}
    for nw in SCALE_WORKERS:
        baseline, chaos = out[nw]
        overhead = chaos.total_time_s / baseline.total_time_s
        efficiency = out[SCALE_WORKERS[0]][0].total_time_s / (
            baseline.total_time_s * nw / SCALE_WORKERS[0]
        )
        rows.append(
            [
                f"{nw} workers",
                format_seconds(baseline.total_time_s),
                format_seconds(chaos.total_time_s),
                f"{overhead:.2f}x",
                len(chaos.crashed_workers),
                chaos.reassignment_msgs,
                chaos.cells_reassigned,
                chaos.outcome,
            ]
        )
        payload[str(nw)] = {
            "baseline_total_s": baseline.total_time_s,
            "chaos_total_s": chaos.total_time_s,
            "recovery_overhead": overhead,
            "scaling_efficiency": efficiency,
            "crashed_workers": len(chaos.crashed_workers),
            "reassignment_msgs": chaos.reassignment_msgs,
            "cells_reassigned": chaos.cells_reassigned,
            "retries": chaos.retries,
            "partition_drops": chaos.faults_injected.get("partition_drops", 0),
        }
    print_table(
        "Cluster-scale recovery (chaos_scale seed 1, 12.5% rack storm)",
        [
            "Cluster",
            "Fault-free",
            "Under chaos",
            "Overhead",
            "Crashed",
            "Reassign msgs",
            "Cells moved",
            "Outcome",
        ],
        rows,
    )

    for nw in SCALE_WORKERS:
        baseline, chaos = out[nw]
        assert chaos.outcome == "complete", f"{nw} workers: {chaos.outcome}"
        expected = {r.window for r in baseline.results}
        assert {r.window for r in chaos.results} == expected
        # Control-plane traffic scales with the lost slab, not the grid:
        # one merged rack run needs at most two adoption directives plus
        # the touched-survivor notifications.
        assert chaos.reassignment_msgs <= 2 + nw // 4
        assert chaos.cells_reassigned >= len(chaos.crashed_workers)
    # The storm grows 1 -> 32 victims across the sweep while directive
    # counts stay flat — the O(lost cells) claim, measured.
    msgs = [out[nw][1].reassignment_msgs for nw in SCALE_WORKERS]
    assert max(msgs) <= 2 * max(3, min(msgs) + 2)

    _record("scale_recovery", payload)
    emit_json("table4_scale_recovery", payload, metrics=None)
