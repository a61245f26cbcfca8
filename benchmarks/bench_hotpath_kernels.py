"""Hot-path kernel benchmarks: SAT lookups and observability overheads.

Three sections, each asserting both *speed* and *exactness*:

* **micro** — ``SummedAreaTable.window_sum`` / ``placement_sums`` versus
  per-window ``ndarray`` slice sums over random boxes (values must match
  exactly: integer-valued float64 prefix sums are exact below 2^53);
* **observability overhead** — a metrics registry attached versus
  detached on a time-budgeted exploration over a fine 200x200 query grid,
  with byte-identical runs and a clean invariant audit;
* **checksum overhead** — checksummed block reads versus plain ones on
  the same exploration, byte-identical when no fault fires.

Byte identity of the kernel search against the naive per-window oracle
is a tier-1 test (``tests/test_oracle_parity.py``).

Results are emitted machine-readably via ``repro.bench.emit_json`` and
folded into ``BENCH_hotpath.json`` at the repo root (one latest record
per section, committed so perf is diffable commit-over-commit).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench import emit_json, fresh_database, get_table, print_table
from repro.core import SearchConfig, SWEngine
from repro.core.conditions import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
)
from repro.core.expressions import col
from repro.core.kernels import SummedAreaTable
from repro.core.query import SWQuery
from repro.obs import InvariantAuditor
from repro.workloads.synthetic import synthetic_dataset


_BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"


def _record(section: str, payload: dict) -> None:
    """Fold one section's numbers into ``BENCH_hotpath.json`` at repo root.

    The file keeps the latest result per section so perf trajectories can
    be diffed commit-over-commit without scraping pytest output.  Floats
    are rounded: past ~4 significant digits the values are machine noise,
    and stable digits keep the committed file's diffs meaningful.
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


def _seed_heavy_query(dataset, steps=None) -> SWQuery:
    """A query whose shape conditions make seeding the dominant phase.

    ``len >= 3`` per dimension yields one start window per grid cell
    offset (~n placements on an n-cell grid), and the ``avg(value)``
    interval forces a content estimate for every one of them.
    """
    grid = dataset.grid
    avg_value = ContentObjective.of("avg", col("value"))
    conditions = [
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 3),
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.GE, 3),
        ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 16),
        ContentCondition(avg_value, ComparisonOp.GT, 20.0),
        ContentCondition(avg_value, ComparisonOp.LT, 30.0),
    ]
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
        steps=steps if steps is not None else grid.steps,
        conditions=conditions,
    )


def _run_fingerprint(run) -> tuple:
    """Everything observable about a search run, for byte-identity checks."""
    return (
        [(r.window, r.bounds, tuple(sorted(r.objective_values.items())), r.time) for r in run.results],
        run.completion_time_s,
        run.stats,
    )


# -- micro: SAT versus slice reductions --------------------------------------


def _run_micro() -> dict:
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 200, size=(400, 400)).astype(np.int64)
    sat = SummedAreaTable(grid)

    boxes = []
    for _ in range(2000):
        lo = rng.integers(0, 396, size=2)
        hi = np.minimum(lo + 1 + rng.integers(0, 40, size=2), 400)
        boxes.append((tuple(int(v) for v in lo), tuple(int(v) for v in hi)))

    t0 = time.perf_counter()
    naive = [float(grid[lo[0] : hi[0], lo[1] : hi[1]].sum()) for lo, hi in boxes]
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = [sat.box_sum(lo, hi) for lo, hi in boxes]
    sat_s = time.perf_counter() - t0
    assert fast == naive, "SAT box sums must match slice sums exactly"

    lengths = (5, 5)
    t0 = time.perf_counter()
    naive_grid = np.array(
        [
            [float(grid[i : i + 5, j : j + 5].sum()) for j in range(396)]
            for i in range(396)
        ]
    )
    naive_place_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_grid = sat.placement_sums(lengths)
    place_s = time.perf_counter() - t0
    assert np.array_equal(fast_grid, naive_grid), "placement sums must match slice sums"

    return {
        "box_naive_s": naive_s,
        "box_sat_s": sat_s,
        "placement_naive_s": naive_place_s,
        "placement_sat_s": place_s,
        "placement_speedup": naive_place_s / place_s,
    }


def test_sat_micro_kernels(benchmark):
    out = benchmark.pedantic(_run_micro, rounds=1, iterations=1)
    print_table(
        "Summed-area-table kernels vs slice reductions (2000 boxes / 156k placements)",
        ["Kernel", "naive (s)", "SAT (s)", "speedup"],
        [
            ["box_sum", f"{out['box_naive_s']:.4f}", f"{out['box_sat_s']:.4f}",
             f"{out['box_naive_s'] / out['box_sat_s']:.1f}x"],
            ["placement_sums", f"{out['placement_naive_s']:.4f}", f"{out['placement_sat_s']:.4f}",
             f"{out['placement_speedup']:.1f}x"],
        ],
    )
    _record("micro", out)
    emit_json("hotpath_micro", out)
    # Batch placement sums replace ~n^2 slice reductions with 2^d shifted
    # array subtractions; anything less than an order of magnitude here
    # means the kernel layer regressed badly.
    assert out["placement_speedup"] > 10.0


# -- observability overhead: registry attached vs detached -------------------


def _run_obs_overhead() -> dict:
    dataset = synthetic_dataset("high", scale=0.5)
    extent = dataset.grid.area[0].hi - dataset.grid.area[0].lo
    query = _seed_heavy_query(dataset, steps=(extent / 200, extent / 200))
    table = get_table(dataset, "axis", axis_dim=0)
    config = SearchConfig(time_limit_s=0.3)

    # Scheduler noise on shared machines dwarfs the effect being measured,
    # so time CPU seconds (process_time), run the two modes back-to-back
    # in alternating order each round, and take the median of the
    # per-round paired ratios — pairing cancels load drift, and the
    # median is robust where min-of-N reads biased (even negative).
    cpu: dict[bool, list[float]] = {False: [], True: []}
    runs: dict[bool, tuple] = {}
    snapshot = None
    for i in range(8):
        for attached in (False, True) if i % 2 == 0 else (True, False):
            database = fresh_database(table, metrics=attached)
            engine = SWEngine(database, dataset.name, sample_fraction=0.05)
            engine.sample_for(query)  # offline; also outside the overhead measurement
            t0 = time.process_time()
            report = engine.execute(query, config)
            cpu[attached].append(time.process_time() - t0)
            runs[attached] = _run_fingerprint(report.run)
            if attached:
                snapshot = database.metrics.snapshot()

    assert runs[True] == runs[False], "metrics must never alter search behavior"
    audit = InvariantAuditor(snapshot).report()
    assert audit["ok"], f"invariant audit failed: {audit['violations']}"
    return {
        "detached_cpu_s": statistics.median(cpu[False]),
        "attached_cpu_s": statistics.median(cpu[True]),
        "overhead_fraction": statistics.median(
            on / off - 1.0 for off, on in zip(cpu[False], cpu[True])
        ),
        "audit_checked": audit["checked"],
        "counters_recorded": len(snapshot["counters"]),
    }


def test_observability_overhead(benchmark):
    out = benchmark.pedantic(_run_obs_overhead, rounds=1, iterations=1)
    print_table(
        "Observability overhead, 200x200 query grid, time_limit_s=0.3 (median of 8, CPU s)",
        ["detached CPU (s)", "attached CPU (s)", "overhead", "identities checked"],
        [[f"{out['detached_cpu_s']:.3f}", f"{out['attached_cpu_s']:.3f}",
          f"{out['overhead_fraction'] * 100:.1f}%", out["audit_checked"]]],
    )
    _record("obs_overhead", out)
    emit_json("hotpath_obs_overhead", out)
    # Acceptance: a full registry (every hot-path counter, spans, histograms)
    # must cost < 10% end-to-end; the detached path pays only `is not None`
    # branch checks.
    assert out["overhead_fraction"] < 0.10, (
        f"metrics overhead {out['overhead_fraction'] * 100:.1f}% above 10% ceiling"
    )


# -- integrity overhead: checksummed reads on vs off -------------------------


def _run_checksum_overhead() -> dict:
    from repro.storage.integrity import StorageFaultPlan

    dataset = synthetic_dataset("high", scale=0.5)
    extent = dataset.grid.area[0].hi - dataset.grid.area[0].lo
    query = _seed_heavy_query(dataset, steps=(extent / 200, extent / 200))
    table = get_table(dataset, "axis", axis_dim=0)
    config = SearchConfig(time_limit_s=1.0)

    # CPU seconds, interleaved modes in alternating order, median of
    # eight — scheduler noise exceeds the 5% effect being bounded, and
    # min-of-N turns that noise into a biased (sometimes negative)
    # overhead; a fixed plain-then-checksummed order hands the second
    # mode warm caches, so the order flips every round.  A zero-fault
    # plan still pays the full checksum path (crc32 per block read plus
    # the injector's bookkeeping).
    cpu: dict[bool, list[float]] = {False: [], True: []}
    runs: dict[bool, tuple] = {}
    for i in range(8):
        for checksummed in (False, True) if i % 2 == 0 else (True, False):
            database = fresh_database(table, metrics=False)
            if checksummed:
                database.attach_integrity(StorageFaultPlan(seed=0))
            engine = SWEngine(database, dataset.name, sample_fraction=0.05)
            engine.sample_for(query)  # offline; outside the measurement
            t0 = time.process_time()
            report = engine.execute(query, config)
            cpu[checksummed].append(time.process_time() - t0)
            runs[checksummed] = _run_fingerprint(report.run)
            assert not report.degradations, "zero-fault plan must never degrade"

    assert runs[True] == runs[False], "a clean checksummed run must be byte-identical"
    # Median of per-round paired ratios: each round's two modes run
    # back-to-back under the same machine load, so pairing cancels the
    # slow drift that a ratio of independent medians is exposed to.
    plain = statistics.median(cpu[False])
    checksummed_s = statistics.median(cpu[True])
    overhead = statistics.median(
        chk / base - 1.0 for base, chk in zip(cpu[False], cpu[True])
    )
    return {
        "plain_cpu_s": plain,
        "checksummed_cpu_s": checksummed_s,
        "overhead_fraction": overhead,
    }


def test_checksum_overhead(benchmark):
    out = benchmark.pedantic(_run_checksum_overhead, rounds=1, iterations=1)
    print_table(
        "Checksummed-read overhead, 200x200 query grid, time_limit_s=1.0 (median of 8, CPU s)",
        ["plain CPU (s)", "checksummed CPU (s)", "overhead"],
        [[f"{out['plain_cpu_s']:.3f}", f"{out['checksummed_cpu_s']:.3f}",
          f"{out['overhead_fraction'] * 100:.1f}%"]],
    )
    _record("checksum_overhead", out)
    emit_json("storage_checksum_overhead", out)
    # Acceptance: crc verification on every block read must cost < 5%
    # end-to-end; the detached path pays only an `integrity is None` check.
    assert out["overhead_fraction"] < 0.05, (
        f"checksum overhead {out['overhead_fraction'] * 100:.1f}% above 5% ceiling"
    )
