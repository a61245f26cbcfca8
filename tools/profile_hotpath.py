#!/usr/bin/env python
"""Profile the hot-path end-to-end workload: cProfile + obs-span breakdown.

Runs the same time-budgeted exploration as
``benchmarks/bench_hotpath_kernels.py``'s overhead sections (200x200
query grid) and reports where the wall time goes, from two angles::

    python tools/profile_hotpath.py [--top N] [--sort tottime|cumtime]
                                    [--repeat K]

* **cProfile top-N** — functions ranked by self time (``tottime``, the
  default) or cumulative time; the Python-level view of the inner loop.
* **obs spans** — the engine's own phase accounting (``span.*`` counters
  from ``repro.obs``): *simulated* seconds charged to seed / read /
  expand / estimate / ..., i.e. where the modelled exploration spends
  its budget, independent of host speed.

The two views intentionally disagree on units (host wall seconds versus
simulated seconds); optimizing the first must never move the second —
that is the kernel layer's exactness contract.

``--repeat`` runs the workload K times inside one profile (default 3)
so per-call overhead dominates over interpreter warm-up; the reported
wall time is the minimum of the K runs, measured outside cProfile to
stay honest about instrumentation overhead.

``--distributed N`` profiles the distributed tier instead: one warm-up,
then the cProfile top-N of one N-worker ``run_distributed`` on the
performance ledger's ``dist16`` input (seed 5), with the report's own
counters beside it so the profile can be matched to a ledger run::

    python tools/profile_hotpath.py --distributed 16 [--top N] [--sort ...]

``--ledger serial_full`` profiles what the ledger's ``serial_full``
workload runs (seed 5): its exhaustive query and its 24 ten-result peeks,
one cProfile each, with ``explored`` / ``generated`` / ``estimates``
beside the top-N.  The default workload above is seed-heavy (63 pops
behind ~40 k seeded placements), so it says nothing about the per-pop
cost of a search that runs to exhaustion — this one does::

    python tools/profile_hotpath.py --ledger serial_full [--top N] [--sort ...]

``--ledger sqlite_firstk`` does one round of that workload (seed 5: six
catalogs bulk-loaded into fresh SQLite files, three ten-result peeks
each) three times over: un-profiled with the backend's parts timed —
bulk load, the sample (and inside it the full ``coordinates()`` pull) and
the objective grids drawn over SQL, ``scan_region``, ``install_cells``
(RAM), ``flush_installs`` (the journal protocol), the rest being the
search core, and the ``coordinates()`` pull in ms per query on a line of
its own — then with every SQL statement counted (statements and commits
per query) and every region scan's reads (block-range statements per
scan, blocks fetched vs blocks matching, payload bytes per query), then
under cProfile::

    python tools/profile_hotpath.py --ledger sqlite_firstk [--top N] [--sort ...]

``--ledger-setup`` profiles what happens *before* the first search step
(seed 5): ``make_database`` + ``sample_for`` over ``serial_full``'s 25
datasets, then ``ServeCore.submit`` over one ``serve_burst`` lane of four
specs.  Each section prints un-profiled wall milliseconds per dataset (or
per submit) for ``make_table``, the block-MBR build inside it, the
sample, the two signatures and ``prepare``, then the cProfile top-N of a
second pass over the same work::

    python tools/profile_hotpath.py --ledger-setup [--top N] [--sort ...]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))
sys.path.insert(0, str(_REPO))

import numpy.ma  # noqa: F401  (preload: keep the lazy import out of profiles)

from repro.bench import fresh_database, get_table
from repro.core import SearchConfig, SWEngine
from repro.workloads.synthetic import synthetic_dataset

from benchmarks.bench_hotpath_kernels import _seed_heavy_query


def _build_workload(metrics: bool):
    dataset = synthetic_dataset("high", scale=0.5)
    extent = dataset.grid.area[0].hi - dataset.grid.area[0].lo
    query = _seed_heavy_query(dataset, steps=(extent / 200, extent / 200))
    table = get_table(dataset, "axis", axis_dim=0)

    def run():
        # Setup (database + offline sample) stays outside the caller's
        # timing/profiling window, matching the benchmark's protocol.
        database = fresh_database(table, metrics=metrics)
        engine = SWEngine(database, dataset.name, sample_fraction=0.05)
        engine.sample_for(query)

        def execute():
            return engine.execute(query, SearchConfig(time_limit_s=0.3))

        return execute, database

    return run


def _span_rows(counters: dict) -> list[list[str]]:
    names = sorted(
        {n.split(".")[1] for n in counters if n.startswith("span.") and n.endswith(".self_s")}
    )
    rows = []
    for name in names:
        count = counters.get(f"span.{name}.count", 0.0)
        total = counters.get(f"span.{name}.total_s", 0.0)
        self_s = counters.get(f"span.{name}.self_s", 0.0)
        rows.append([name, f"{int(count)}", f"{total:.4f}", f"{self_s:.4f}"])
    rows.sort(key=lambda r: -float(r[3]))
    return rows


def _profile_distributed(workers: int, top: int, sort: str) -> int:
    """cProfile one ``run_distributed`` on the ledger's ``dist16`` input."""
    from benchmarks.ledger.workloads import Dist16
    from repro.distributed import DistributedConfig, run_distributed

    workload = Dist16(scratch="")
    workload.generate(5)  # the ledger's default seed
    config = DistributedConfig(num_workers=workers, overlap="no_overlap")
    t0 = time.perf_counter()
    run_distributed(workload.dataset, workload.query, config)  # warm-up
    wall = time.perf_counter() - t0

    profile = cProfile.Profile()
    report = profile.runcall(run_distributed, workload.dataset, workload.query, config)
    stream = io.StringIO()
    pstats.Stats(profile, stream=stream).sort_stats(sort).print_stats(top)

    print(f"== distributed profile ({workers} workers, dist16 input) ==")
    print(
        f"warm-up wall time: {wall:.4f}s   results: {report.num_results}   "
        f"simulated completion: {report.total_time_s:.6f}s"
    )
    print(
        f"explored: {sum(report.worker_explored)}   "
        f"messages: {report.messages_sent}   cells shipped: {report.cells_shipped}"
    )
    print()
    print(f"== cProfile top {top} by {sort} ==")
    print(stream.getvalue())
    return 0


def _profile_ledger_serial(top: int, sort: str) -> int:
    """cProfile the ledger's ``serial_full`` query and peeks (seed 5)."""
    from benchmarks.ledger.workloads import FIRST_K, SerialFull, _stream
    from repro.workloads import make_database

    workload = SerialFull(scratch="")
    workload.generate(5)  # the ledger's default seed
    inputs = list(zip(workload.datasets, workload.queries))

    def run(pairs, limit):
        # Placement stays outside the profile, as it is outside the
        # ledger's timed ops; the sample is built inside, as it is there.
        databases = [make_database(dataset, "cluster") for dataset, _ in pairs]
        profile = cProfile.Profile()
        t0 = time.perf_counter()
        profile.enable()
        reports = [
            _stream(database, dataset, query, limit)[1]
            for database, (dataset, query) in zip(databases, pairs)
        ]
        profile.disable()
        return profile, time.perf_counter() - t0, reports

    run(inputs[:1], FIRST_K)  # warm-up: first-touch imports and caches
    for title, pairs, limit in (
        ("exhaustive query", inputs[:1], None),
        (f"{len(inputs) - 1} ten-result peeks", inputs[1:], FIRST_K),
    ):
        profile, wall, reports = run(pairs, limit)
        stats = [report.run.stats for report in reports]
        stream = io.StringIO()
        pstats.Stats(profile, stream=stream).sort_stats(sort).print_stats(top)
        print(f"== ledger serial_full, seed 5: {title} ==")
        print(
            f"profiled wall time: {wall:.4f}s   "
            f"results: {sum(len(r.run.results) for r in reports)}"
        )
        print(
            f"explored: {sum(s.explored for s in stats)}   "
            f"generated: {sum(s.generated for s in stats)}   "
            f"estimates: {sum(s.estimates for s in stats)}"
        )
        print()
        print(f"== cProfile top {top} by {sort} ==")
        print(stream.getvalue())
    return 0


#: Set-up parts timed by ``--ledger-setup``: label, module, class, function.
#: An indented label is time already counted in the part above it.
_SETUP_PARTS = (
    ("load_workload", "repro.serve.server", None, "load_workload"),
    ("make_table", "repro.workloads.base", None, "make_table"),
    ("  block MBRs", "repro.storage.table", "HeapTable", "_build_block_mbrs"),
    ("prepare", "repro.core.engine", "SWEngine", "prepare"),
    ("  sample", "repro.sampling.stratified", "StratifiedSampler", "sample"),
    ("table_signature", "repro.serve.cache", None, "table_signature"),
    ("physical_signature", "repro.serve.cache", None, "physical_signature"),
)


#: One ``sqlite_firstk`` round, same format.  The unindented parts do not
#: nest in one another, so the round's wall time minus their sum is the
#: search core.
_SQLITE_PARTS = (
    ("bulk load", "repro.storage.sqlite_backend", "SQLiteBackend", "bind_table"),
    ("sample (SQL)", "repro.sampling.stratified", "StratifiedSampler", "sample"),
    ("  coordinates() pull", "repro.storage.sqlite_backend", "SQLiteTable", "coordinates"),
    ("objective grids (SQL)", "repro.core.datamanager", None, "build_objective_grids"),
    ("scan_region", "repro.storage.sqlite_backend", "SQLiteTable", "scan_region"),
    ("install_cells", "repro.storage.sqlite_backend", "SQLiteBackend", "install_cells"),
    ("flush_installs", "repro.storage.sqlite_backend", "SQLiteBackend", "flush_installs"),
)


def _time_parts(work, units: int, parts=_SETUP_PARTS) -> tuple[float, list[list[str]]]:
    """Run ``work()`` with ``parts`` timed; ``(wall, table rows)``.

    A part this checkout does not have is left out, so the same tool runs
    on a parent commit.
    """
    import importlib

    totals = {label: [0, 0.0] for label, *_ in parts}
    patched = []
    for label, module, owner, name in parts:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        original = getattr(holder, name, None)
        if original is None:
            continue

        def timed(*args, _original=original, _total=totals[label], **kwargs):
            t0 = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                _total[0] += 1
                _total[1] += time.perf_counter() - t0

        setattr(holder, name, timed)
        patched.append((holder, name, original))
    try:
        t0 = time.perf_counter()
        work()
        wall = time.perf_counter() - t0
    finally:
        for holder, name, original in patched:
            setattr(holder, name, original)
    rows = [
        [label, str(calls), f"{1e3 * total:.2f}", f"{1e3 * total / units:.3f}"]
        for label, (calls, total) in totals.items()
        if calls
    ]
    return wall, rows


def _count_scans(work) -> dict[str, int] | None:
    """Run ``work()`` counting what each SQLite region scan reads.

    The counts are ``None`` on a checkout whose scans do not read block
    ranges of the block map (no ``SQLiteTable._read_box``).  Payload
    bytes are the fetched rows at eight bytes per schema column: what a
    scan reads when a stored block is one row.
    """
    from repro.storage.pages import coalesce_runs
    from repro.storage.sqlite_backend import SQLiteTable

    original = vars(SQLiteTable).get("_read_box")
    if original is None:
        work()
        return None
    seen = dict.fromkeys(
        ("scans", "ranges", "blocks fetched", "blocks matching", "payload bytes"), 0
    )

    def counted(self, lows, highs, columns):
        candidates = self.blocks_intersecting(lows, highs)
        result = original(self, lows, highs, columns)
        seen["scans"] += 1
        seen["ranges"] += sum(1 for _run in coalesce_runs(candidates))
        seen["blocks fetched"] += candidates.size
        seen["blocks matching"] += self._blocks_of(result[0]).size
        fetched = self.rows_of_blocks(candidates).size
        seen["payload bytes"] += 8 * fetched * len(self.schema.columns)
        return result

    SQLiteTable._read_box = counted
    try:
        work()
    finally:
        SQLiteTable._read_box = original
    return seen


def _profile_ledger_sqlite(top: int, sort: str) -> int:
    """Time, count and cProfile one ``sqlite_firstk`` round (seed 5)."""
    import tempfile

    from benchmarks.ledger.workloads import FIRST_K, SqliteFirstK, _stream
    from repro.workloads import make_database

    with tempfile.TemporaryDirectory() as scratch:
        workload = SqliteFirstK(scratch=scratch)
        workload.generate(5)  # the ledger's default seed
        queries = sum(len(q) for q in workload.queries)

        def one_round(observe=None):
            # What ``SqliteFirstK.round`` does, minus its pacing.
            for index, (dataset, qs) in enumerate(zip(workload.datasets, workload.queries)):
                database = make_database(dataset, "cluster", backend=workload._fresh_file(index))
                if observe is not None:
                    database.backend._conn.set_trace_callback(observe)
                for query in qs:
                    _stream(database, dataset, query, FIRST_K)
                database.backend.installed_cell_count(dataset.name)
                database.backend.close()

        one_round()  # warm-up: first-touch imports and caches
        wall, rows = _time_parts(one_round, queries, _SQLITE_PARTS)
        executed = {"statements": 0, "commits": 0}

        def count(sql: str) -> None:
            executed["statements"] += 1
            executed["commits"] += sql.lstrip().upper().startswith("COMMIT")

        scans = _count_scans(lambda: one_round(count))
        profile = cProfile.Profile()
        profile.runcall(one_round)

    parts_ms = sum(float(total) for label, _calls, total, _per in rows if not label.startswith(" "))
    rows.append(["search core (rest)", "", f"{1e3 * wall - parts_ms:.2f}",
                 f"{(1e3 * wall - parts_ms) / queries:.3f}"])
    stream = io.StringIO()
    pstats.Stats(profile, stream=stream).sort_stats(sort).print_stats(top)
    print("== ledger sqlite_firstk, seed 5: one round ==")
    print(f"wall time: {1e3 * wall:.2f} ms   {1e3 * wall / queries:.3f} ms per query ({queries})")
    print(f"{'part':<22} {'calls':>6} {'total ms':>10} {'ms per query':>14}")
    for label, calls, total, per_query in rows:
        print(f"{label:<22} {calls:>6} {total:>10} {per_query:>14}")
    print(
        "   ".join(
            f"{label}: {executed[key]} ({executed[key] / queries:.1f} per query)"
            for label, key in (("SQL statement executions", "statements"), ("commits", "commits"))
        )
    )
    for label, calls, _total, per_query in rows:
        if label.strip() == "coordinates() pull":
            print(f"sampler coordinates() pull: {per_query} ms per query ({calls} pulls)")
    if scans and scans["scans"]:
        n = scans["scans"]
        fetched, matching = scans["blocks fetched"], scans["blocks matching"]
        print(
            f"region scans: {n} ({n / queries:.1f} per query)   "
            f"block-range statements per scan: {scans['ranges'] / n:.2f}"
        )
        print(
            f"blocks fetched / matching: {fetched} / {matching} "
            f"(useful/attempted {matching / max(fetched, 1):.3f})   "
            f"payload bytes per query: {scans['payload bytes'] / queries:.0f}"
        )
    print()
    print(f"== cProfile top {top} by {sort} ==")
    print(stream.getvalue())
    return 0


def _profile_ledger_setup(top: int, sort: str) -> int:
    """Time and cProfile the ledger's set-up work (seed 5), search excluded."""
    from benchmarks.ledger.workloads import SerialFull, ServeBurst, _place_and_sample
    from repro.serve import ServeConfig, TenantQuota
    from repro.serve.server import ServeCore

    serial = SerialFull(scratch="")
    serial.generate(5)  # the ledger's default seed
    burst = ServeBurst(scratch="")
    burst.generate(5)
    lane = burst.lanes[0][0]

    def place_and_sample():
        for dataset, query in zip(serial.datasets, serial.queries):
            _place_and_sample(dataset, query)

    def submit_lane():
        # A fresh core per pass, as in a round: the lane's first submit
        # generates, places, samples and hashes; the next two find the
        # sample in the semantic cache; the last has a dataset of its own.
        quotas = {name: TenantQuota(tier=tier) for name, tier in burst.TENANTS.items()}
        core = ServeCore(ServeConfig(max_live=4, queue_limit=64, policy="wfq", quotas=quotas))
        for spec in lane:
            core.submit(spec)

    for title, work, units, unit in (
        ("serial_full make_database + sample_for", place_and_sample, len(serial.datasets), "dataset"),
        ("serve_burst ServeCore.submit, one lane", submit_lane, len(lane), "submit"),
    ):
        work()  # warm-up: first-touch imports and caches
        wall, rows = _time_parts(work, units)
        profile = cProfile.Profile()
        profile.runcall(work)
        stream = io.StringIO()
        pstats.Stats(profile, stream=stream).sort_stats(sort).print_stats(top)
        print(f"== ledger set-up, seed 5: {title} ==")
        print(f"wall time: {1e3 * wall:.2f} ms   {1e3 * wall / units:.3f} ms per {unit} ({units})")
        print(f"{'part':<20} {'calls':>6} {'total ms':>10} {'ms per ' + unit:>16}")
        for label, calls, total, per_unit in rows:
            print(f"{label:<20} {calls:>6} {total:>10} {per_unit:>16}")
        print()
        print(f"== cProfile top {top} by {sort} ==")
        print(stream.getvalue())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--top", type=int, default=25, help="functions to print (default 25)")
    parser.add_argument(
        "--sort",
        choices=("tottime", "cumtime"),
        default="tottime",
        help="cProfile ranking: self time (default) or cumulative",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="workload runs inside one profile (default 3)"
    )
    parser.add_argument(
        "--distributed",
        type=int,
        metavar="N",
        help="profile one N-worker run_distributed on the ledger's dist16 input instead",
    )
    parser.add_argument(
        "--ledger",
        choices=("serial_full", "sqlite_firstk"),
        help="profile what that ledger workload runs instead (see the module docstring)",
    )
    parser.add_argument(
        "--ledger-setup",
        action="store_true",
        help="time and profile placement, sample and serve submit on the ledger's inputs instead",
    )
    args = parser.parse_args(argv)
    if args.distributed is not None:
        return _profile_distributed(args.distributed, args.top, args.sort)
    if args.ledger_setup:
        return _profile_ledger_setup(args.top, args.sort)
    if args.ledger == "serial_full":
        return _profile_ledger_serial(args.top, args.sort)
    if args.ledger == "sqlite_firstk":
        return _profile_ledger_sqlite(args.top, args.sort)

    # Wall time first, un-instrumented: cProfile roughly doubles the cost
    # of tight Python loops, so the honest number comes from outside it.
    build = _build_workload(metrics=False)
    build()[0]()  # warm-up: first-touch imports and caches
    wall = float("inf")
    report = None
    for _ in range(args.repeat):
        execute, _db = build()
        t0 = time.perf_counter()
        report = execute()
        wall = min(wall, time.perf_counter() - t0)

    profile = cProfile.Profile()
    for _ in range(args.repeat):
        execute, _db = build()
        profile.enable()
        execute()
        profile.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profile, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)

    # Span breakdown needs a metrics registry attached; do one extra run.
    execute, database = _build_workload(metrics=True)()
    report = execute()
    counters = database.metrics.snapshot()["counters"]

    print(f"== hot path profile ({args.repeat} runs) ==")
    print(f"best wall time: {wall:.4f}s   results: {len(report.run.results)}")
    print()
    print(f"== cProfile top {args.top} by {args.sort} ==")
    print(stream.getvalue())
    print("== obs spans (simulated seconds, by self_s) ==")
    print(f"{'phase':<12} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for name, count, total, self_s in _span_rows(counters):
        print(f"{name:<12} {count:>8} {total:>10} {self_s:>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
