"""Command-line interface: run SW queries against the bundled workloads.

Usage (also via ``python -m repro``)::

    python -m repro run --workload synth-high --placement cluster --alpha 1.0
    python -m repro run --backend sqlite: --backend-chaos-seed 3
    python -m repro sql --workload sdss "SELECT LB(ra), UB(ra), ... HAVING ..."
    python -m repro optimize --workload synth-high "SELECT ... MAXIMIZE AVG(value)"
    python -m repro baseline --workload synth-high
    python -m repro metrics --workload synth-high --json metrics.json
    python -m repro metrics --distributed 8 --chaos-seed 3
    python -m repro scrub --workload synth-high --chaos-seed 7
    python -m repro serve --sessions 6 --policy wfq
    python -m repro serve --listen 127.0.0.1:7654 --record run.journal
    python -m repro serve --replay run.journal
    python -m repro info

The CLI wires the bundled workload generators to the engine; it exists so
a downstream user can reproduce any single experiment or poke at the
system without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .core.engine import SWEngine
from .core.query import SWQuery
from .core.search import SearchConfig
from .costs import DEFAULT_COST_MODEL
from .dbms.baseline import run_sql_baseline
from .sql import SqlError, execute_optimize, execute_sql
from .storage.database import Database
from .errors import BackendError, ConfigError
from .workloads import WORKLOAD_NAMES, load_workload, make_database

__all__ = ["main", "build_parser"]

_WORKLOADS = WORKLOAD_NAMES


def _load_workload(name: str, scale: float, seed: int):
    """Dataset plus its canonical query for a workload name."""
    return load_workload(name, scale=scale, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic Windows: interactive data exploration (SIGMOD 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=_WORKLOADS, default="synth-high")
        p.add_argument("--scale", type=float, default=0.3, help="dataset scale in (0, 1]")
        p.add_argument("--seed", type=int, default=101)
        p.add_argument(
            "--placement",
            choices=("axis", "index", "hilbert", "cluster", "str", "random"),
            default="cluster",
        )
        p.add_argument("--axis-dim", type=int, default=0)
        p.add_argument("--sample-fraction", type=float, default=0.1)
        p.add_argument(
            "--backend",
            default=None,
            metavar="URL",
            help=(
                "storage backend URL (e.g. 'simulator', 'sqlite:', "
                "'sqlite:dev.db'); default resolves DATABASE_URL, then "
                "the in-memory simulator"
            ),
        )

    run = sub.add_parser("run", help="run a workload's canonical query online")
    common(run)
    run.add_argument("--alpha", type=float, default=1.0, help="prefetch aggressiveness")
    run.add_argument("--s", type=float, default=0.8, help="benefit weight")
    run.add_argument(
        "--diversification",
        choices=("none", "utility_jumps", "dist_jumps", "static"),
        default="none",
    )
    run.add_argument("--limit", type=int, default=None, help="stop after N results")
    run.add_argument(
        "--heatmap", action="store_true", help="render a result-density heatmap at the end"
    )
    run.add_argument(
        "--timeline", action="store_true", help="render a result-arrival sparkline at the end"
    )
    run.add_argument(
        "--backend-chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "wrap the storage backend in the resilience layer under a "
            "seeded backend fault plan (retries, circuit breaker, "
            "simulator fallback)"
        ),
    )
    run.add_argument(
        "--backend-fault-rate",
        type=float,
        default=0.1,
        help="per-operation fault probability under --backend-chaos-seed",
    )

    sql = sub.add_parser("sql", help="run an SW SQL query against a workload table")
    common(sql)
    sql.add_argument("query", help="the GRID BY SQL text")
    sql.add_argument("--alpha", type=float, default=1.0)
    sql.add_argument("--max-rows", type=int, default=20)

    opt = sub.add_parser("optimize", help="run a MAXIMIZE/MINIMIZE statement")
    common(opt)
    opt.add_argument("query", help="the MAXIMIZE/MINIMIZE SQL text")

    base = sub.add_parser("baseline", help="run the blocking complex-SQL baseline")
    common(base)

    met = sub.add_parser(
        "metrics",
        help="run the canonical query with full observability and audit it",
    )
    common(met)
    met.add_argument("--alpha", type=float, default=1.0, help="prefetch aggressiveness")
    met.add_argument("--json", metavar="PATH", default=None, help="write the snapshot as JSON")
    met.add_argument(
        "--no-audit", action="store_true", help="skip the invariant audit (report only)"
    )
    met.add_argument(
        "--distributed",
        type=int,
        default=None,
        metavar="N",
        help="run the canonical query across N simulated workers instead",
    )
    met.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject a seeded cluster-scale fault plan (requires --distributed)",
    )
    met.add_argument(
        "--successor-policy",
        choices=("split", "balance", "left", "right"),
        default="split",
        help="anchor reassignment policy after worker deaths (with --distributed)",
    )
    met.add_argument(
        "--hedge-delay-ms",
        type=float,
        default=0.0,
        help="speculative retransmit delay in ms, 0 disables (with --distributed)",
    )

    scrub = sub.add_parser(
        "scrub",
        help="walk a table's device verifying checksums (optionally under chaos)",
    )
    common(scrub)
    scrub.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="inject seeded storage corruption before scrubbing",
    )
    scrub.add_argument(
        "--corruption-rate",
        type=float,
        default=0.02,
        help="fault probability per block read under --chaos-seed",
    )
    scrub.add_argument(
        "--blocks-per-step", type=int, default=64, help="scrub batch size"
    )
    scrub.add_argument(
        "--no-audit", action="store_true", help="skip the invariant audit"
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run a scripted multi-session workload through the serving "
            "layer, or a live socket service with --listen"
        ),
    )
    common(serve)
    serve.add_argument("--alpha", type=float, default=1.0, help="prefetch aggressiveness")
    serve.add_argument("--sessions", type=int, default=4, help="sessions to submit")
    serve.add_argument(
        "--policy", choices=("rr", "utility", "deadline", "wfq"), default="rr"
    )
    serve.add_argument("--slice-steps", type=int, default=16, help="steps per slice")
    serve.add_argument("--max-live", type=int, default=2, help="concurrent-session cap")
    serve.add_argument("--queue-limit", type=int, default=8, help="wait-queue depth")
    serve.add_argument("--serve-seed", type=int, default=0, help="scheduler seed")
    serve.add_argument(
        "--park",
        choices=("live", "checkpoint"),
        default="live",
        help="preemption mode: park in place or round-trip the checkpoint path",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the shared semantic cache"
    )
    serve.add_argument(
        "--cache-budget", type=int, default=1 << 20, help="cache budget in cells"
    )
    serve.add_argument("--step-budget", type=int, default=None, help="per-session step cap")
    serve.add_argument(
        "--block-budget", type=int, default=None, help="per-session block-read cap"
    )
    serve.add_argument(
        "--json", metavar="PATH", default=None, help="write the serve report as JSON"
    )
    serve.add_argument(
        "--listen",
        nargs="?",
        const="127.0.0.1:0",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve the newline-JSON protocol on a socket instead of the "
            "scripted workload (port 0 picks an ephemeral port)"
        ),
    )
    serve.add_argument(
        "--record",
        metavar="PATH",
        default=None,
        help="journal the --listen run for deterministic replay",
    )
    serve.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay a recorded journal in simulated time and verify byte-identity",
    )
    serve.add_argument(
        "--tenant-quota",
        action="append",
        default=None,
        metavar="NAME=TIER[:SESSIONS[:STEPS]]",
        help=(
            "per-tenant quota spec (repeatable); tiers: free, standard, "
            "premium — e.g. alice=premium, bob=free:2, carol=standard:4:5000"
        ),
    )

    sub.add_parser("info", help="print version and cost-model constants")
    return parser


def main(argv: Sequence[str] | None = None, out: Callable[[str], None] = print) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except (ValueError, KeyError, SqlError, BackendError) as exc:
        out(f"error: {exc}")
        return 2


def _dispatch(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.command == "info":
        from . import __version__

        out(f"repro {__version__} — Semantic Windows reproduction")
        out(f"cost model: {DEFAULT_COST_MODEL}")
        return 0

    if args.command == "serve":
        # Fail fast on bad serve knobs before any dataset build.
        _validate_serve_args(args)
        if args.listen is not None or args.replay is not None:
            # Network/replay modes resolve workloads per-submission; no
            # upfront dataset build.
            return _cmd_serve_network(args, out)

    dataset, query = _load_workload(args.workload, args.scale, args.seed)
    banner = (
        f"workload {args.workload}: {dataset.num_rows:,} tuples, grid "
        f"{dataset.grid.shape}, placement {args.placement}"
    )
    if args.command == "serve":
        # Each served session builds its own database (SessionManager.submit).
        out(banner)
        return _cmd_serve(args, dataset, query, out)
    database = make_database(
        dataset, args.placement, axis_dim=args.axis_dim, backend=args.backend
    )
    # Closing is what makes an abandoned stream's cell installs durable
    # (``run --limit`` never reaches the search's terminal step).
    with database:
        out(f"{banner}, backend {database.backend.describe()}")

        if args.command == "run":
            return _cmd_run(args, database, dataset, query, out)
        if args.command == "sql":
            return _cmd_sql(args, database, out)
        if args.command == "optimize":
            return _cmd_optimize(args, database, out)
        if args.command == "baseline":
            return _cmd_baseline(args, database, dataset, query, out)
        if args.command == "metrics":
            return _cmd_metrics(args, database, dataset, query, out)
        if args.command == "scrub":
            return _cmd_scrub(args, database, dataset, out)
        raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


def _cmd_run(args, database: Database, dataset, query: SWQuery, out) -> int:
    config = SearchConfig(alpha=args.alpha, s=args.s, diversification=args.diversification)
    chaos = getattr(args, "backend_chaos_seed", None)
    if chaos is not None:
        from .storage.resilience import BackendFaultPlan

        plan = BackendFaultPlan.chaos(chaos, fault_rate=args.backend_fault_rate)
        database.attach_resilience(plan)
        out(
            f"backend chaos: seed={chaos} fault_rate={args.backend_fault_rate:g} "
            f"({database.backend.describe()})"
        )
    engine = SWEngine(database, dataset.name, sample_fraction=args.sample_fraction)
    results = []
    stopped = False
    stream = engine.execute_iter(query, config)
    for result in stream:
        results.append(result)
        values = ", ".join(f"{k}={v:.3f}" for k, v in result.objective_values.items())
        out(f"t={result.time:8.3f}s  {result.bounds!r}  {values}")
        if args.limit is not None and len(results) >= args.limit:
            out(f"-- stopped after {len(results)} results (limit)")
            stream.close()
            stopped = True
            break
    if not stopped:
        out(f"-- {len(results)} qualifying windows; query complete")
    if chaos is not None:
        report = stream.report()
        out(
            f"-- outcome {report.outcome}: {report.backend_retries} backend "
            f"retries, {report.breaker_trips} breaker trip(s), "
            f"{report.fallback_reads} fallback read(s)"
        )
        for degradation in report.degradations:
            out(f"-- {degradation.describe()}")
    if args.heatmap and results:
        from .viz import render_results

        out("\nresult density over the search area:")
        out(render_results(results, query.grid))
    if args.timeline and results:
        from .viz import render_timeline

        out(render_timeline(results, total_time=max(r.time for r in results) or 1.0))
    return 0


def _cmd_sql(args, database: Database, out) -> int:
    labels, rows = execute_sql(
        database, args.query, SearchConfig(alpha=args.alpha), args.sample_fraction
    )
    out("  ".join(labels))
    for row in rows[: args.max_rows]:
        out("  ".join(f"{v:.4g}" for v in row))
    if len(rows) > args.max_rows:
        out(f"... {len(rows) - args.max_rows} more rows")
    out(f"-- {len(rows)} rows")
    return 0


def _cmd_optimize(args, database: Database, out) -> int:
    result = execute_optimize(database, args.query, args.sample_fraction)
    for inc in result.trajectory:
        out(f"t={inc.time:8.3f}s  value={inc.value:.4f}  window={inc.window!r}")
    if result.best is None:
        out("-- no qualifying window")
        return 1
    out(
        f"-- optimum {result.best.value:.4f} proven after "
        f"{result.windows_evaluated:,} windows ({result.completion_time_s:.2f}s)"
    )
    return 0


def _print_snapshot(snapshot: dict, out) -> None:
    """Print a metrics snapshot's counters, gauges and histograms."""
    for section in ("counters", "gauges"):
        values = snapshot.get(section, {})
        if not values:
            continue
        out(f"\n{section}:")
        for name, value in values.items():
            out(f"  {name:<40} {value:>14g}")
    if snapshot.get("histograms"):
        out("\nhistograms:")
        for name, payload in snapshot["histograms"].items():
            n = sum(payload["counts"])
            mean = payload["total"] / n if n else 0.0
            out(f"  {name:<40} n={n:<8d} mean={mean:g}")


def _audit_snapshot(snapshot, out) -> int:
    """Audit a snapshot or registry, print the verdict; exit code 1 on violations."""
    from .obs import InvariantAuditor

    verdict = InvariantAuditor(snapshot).report()
    if verdict["ok"]:
        out(f"\naudit: {verdict['checked']} identities checked, all hold")
        return 0
    out(f"\naudit: {len(verdict['violations'])} violation(s):")
    for violation in verdict["violations"]:
        out(f"  {violation}")
    return 1


def _export_and_audit(args, snapshot: dict, out) -> int:
    """The tail of a ``metrics`` run: the ``--json`` export, then the audit."""
    if args.json is not None:
        from .io import write_metrics_json

        out(f"\nwrote {write_metrics_json(snapshot, args.json)}")
    if args.no_audit:
        return 0
    return _audit_snapshot(snapshot, out)


def _cmd_metrics(args, database: Database, dataset, query: SWQuery, out) -> int:
    """Run the canonical query with a registry attached; print and audit."""
    from .obs import MetricsRegistry

    if args.distributed is not None:
        return _cmd_metrics_distributed(args, dataset, query, out)
    if args.chaos_seed is not None:
        raise ValueError("--chaos-seed requires --distributed")

    registry = MetricsRegistry()
    database.attach_metrics(registry)
    engine = SWEngine(database, dataset.name, sample_fraction=args.sample_fraction)
    report = engine.execute(query, SearchConfig(alpha=args.alpha))
    out(
        f"-- {len(report.results)} results in "
        f"{report.run.completion_time_s:.2f}s simulated"
    )

    snapshot = registry.snapshot()
    _print_snapshot(snapshot, out)
    return _export_and_audit(args, snapshot, out)


def _cmd_metrics_distributed(args, dataset, query: SWQuery, out) -> int:
    """Distributed run with full fault/recovery accounting; print and audit.

    A fault-free run establishes the oracle result set.  With
    ``--chaos-seed`` a second run executes under a seeded cluster-scale
    fault plan (correlated crash storm, healing link partitions, message
    faults, a straggler disk) and its merged results are checked against
    the oracle, so the recovery layer's behavior — outcome class, fault
    and reassignment counters, any degradation manifest — is inspectable
    without parsing traces.
    """
    from .distributed import DistributedConfig, FaultPlan, run_distributed
    from .obs import MetricsRegistry

    def config_for(faults=None) -> DistributedConfig:
        return DistributedConfig(
            num_workers=args.distributed,
            placement=args.placement,
            search=SearchConfig(alpha=args.alpha),
            sample_fraction=args.sample_fraction,
            successor_policy=args.successor_policy,
            hedge_delay_ms=args.hedge_delay_ms,
            faults=faults,
        )

    baseline = run_distributed(dataset, query, config_for())
    out(
        f"-- fault-free: {len(baseline.results)} results in "
        f"{baseline.total_time_s:.2f}s simulated across {args.distributed} workers"
    )

    registry = MetricsRegistry()
    if args.chaos_seed is not None:
        plan = FaultPlan.chaos_scale(
            args.chaos_seed, args.distributed, crash_at_s=baseline.total_time_s / 3.0
        )
        report = run_distributed(dataset, query, config_for(plan), metrics=registry)
        out(
            f"-- chaos seed {args.chaos_seed}: {len(report.results)} results in "
            f"{report.total_time_s:.2f}s simulated"
        )
    else:
        report = run_distributed(dataset, query, config_for(), metrics=registry)

    out("\nfault tolerance:")
    rows: list[tuple[str, object]] = [
        ("outcome", report.outcome),
        ("crashed_workers", report.crashed_workers),
        ("fenced_workers", report.fenced_workers),
        ("recovered_anchors", report.recovered_anchors),
        ("retries", report.retries),
        ("hedges", report.hedges),
        ("duplicates_ignored", report.duplicates_ignored),
        ("messages_lost", report.messages_lost),
        ("reassignment_msgs", report.reassignment_msgs),
        ("cells_reassigned", report.cells_reassigned),
    ]
    for name, count in sorted(report.faults_injected.items()):
        rows.append((f"faults_injected.{name}", count))
    for name, value in rows:
        out(f"  {name:<40} {value!s:>14}")
    for degradation in report.degradations:  # an abort's reason is its manifest's
        out(f"  {degradation.describe()}")

    oracle = {(r.window.lo, r.window.hi) for r in baseline.results}
    got = {(r.window.lo, r.window.hi) for r in report.results}
    if got == oracle:
        out(f"  equivalence vs fault-free oracle: EQUAL ({len(oracle)} windows)")
    else:
        out(
            f"  equivalence vs fault-free oracle: {len(oracle - got)} missing, "
            f"{len(got - oracle)} extra of {len(oracle)}"
        )

    snapshot = report.metrics if report.metrics is not None else registry.snapshot()
    _print_snapshot(snapshot, out)
    return _export_and_audit(args, snapshot, out)


def _cmd_scrub(args, database: Database, dataset, out) -> int:
    """Full checksum pass over the workload table's device; print and audit.

    Without ``--chaos-seed`` the scrub runs over a pristine device under a
    zero-fault plan — a clean bill of health verifies the checksum path
    itself.  With it, a seeded :meth:`StorageFaultPlan.chaos` plan injects
    corruption at read time and the pass exercises the full detect →
    repair → quarantine pipeline deterministically.
    """
    from .obs import MetricsRegistry
    from .storage.integrity import Scrubber, StorageFaultPlan

    registry = MetricsRegistry()
    database.attach_metrics(registry)
    if args.chaos_seed is not None:
        plan = StorageFaultPlan.chaos(args.chaos_seed, args.corruption_rate)
        out(
            f"chaos plan: seed={args.chaos_seed} "
            f"corruption_rate={args.corruption_rate:g}"
        )
    else:
        plan = StorageFaultPlan(seed=0)
    database.attach_integrity(plan)
    scrubber = Scrubber(database, dataset.name, blocks_per_step=args.blocks_per_step)
    totals = scrubber.run()
    integ = database.integrity(dataset.name)
    out(
        f"scrubbed {totals['blocks']} blocks in {totals['passes']} pass(es): "
        f"{totals['corruptions']} corruption(s) detected, "
        f"{totals['quarantined']} block(s) quarantined "
        f"(t={database.clock.now:.3f}s simulated)"
    )
    if integ.quarantined:
        out(f"quarantined blocks: {sorted(integ.quarantined)}")
    if args.no_audit:
        return 0
    return _audit_snapshot(registry, out)


def _parse_listen(listen: str) -> tuple[str, int]:
    """``HOST:PORT`` (either part optional) → a bindable address."""
    host, _, port_text = listen.partition(":")
    try:
        port = int(port_text) if port_text else 0
    except ValueError:
        raise ConfigError(f"bad --listen port {port_text!r}") from None
    return host or "127.0.0.1", port


def _validate_serve_args(args) -> None:
    """Fail fast on out-of-range serve knobs (exit code 2 via main)."""
    if args.backend is not None:
        raise ConfigError(
            "--backend does not apply to serve: sessions choose their store "
            "through DATABASE_URL"
        )
    if args.sessions < 1:
        raise ConfigError(f"--sessions must be >= 1, got {args.sessions}")
    if args.max_live < 1:
        raise ConfigError(f"--max-live must be >= 1, got {args.max_live}")
    if args.queue_limit < 0:
        raise ConfigError(f"--queue-limit must be >= 0, got {args.queue_limit}")
    if args.slice_steps < 1:
        raise ConfigError(f"--slice-steps must be >= 1, got {args.slice_steps}")
    if args.cache_budget < 1:
        raise ConfigError(f"--cache-budget must be >= 1, got {args.cache_budget}")
    if args.step_budget is not None and args.step_budget < 1:
        raise ConfigError(f"--step-budget must be >= 1, got {args.step_budget}")
    if args.block_budget is not None and args.block_budget < 1:
        raise ConfigError(f"--block-budget must be >= 1, got {args.block_budget}")
    if args.record is not None and args.listen is None:
        raise ConfigError("--record requires --listen")
    if args.tenant_quota:
        from .serve import parse_quota_specs

        parse_quota_specs(args.tenant_quota)
    if args.listen is not None:
        _parse_listen(args.listen)


def _cmd_serve(args, dataset, query: SWQuery, out) -> int:
    """Run N sessions of the canonical query through the serving layer."""
    import json

    from .core.trace import SearchTrace
    from .obs import MetricsRegistry
    from .serve import SemanticCache, SessionManager, parse_quota_specs, serve_workload

    quotas = parse_quota_specs(args.tenant_quota or [])
    registry = MetricsRegistry()
    trace = SearchTrace()
    cache = None if args.no_cache else SemanticCache(budget_cells=args.cache_budget)
    manager = SessionManager(
        max_live=args.max_live,
        queue_limit=args.queue_limit,
        cache=cache,
        metrics=registry,
        trace=trace,
        quotas=quotas,
    )
    tenants = sorted(quotas) or ["default"]
    for i in range(args.sessions):
        config = SearchConfig(alpha=args.alpha)
        if args.policy == "deadline":
            # Staggered urgency: later submissions carry earlier deadlines,
            # which exercises capacity preemption when slots fill up.
            config = SearchConfig(
                alpha=args.alpha, deadline_s=60.0 * (args.sessions - i)
            )
        manager.submit(
            f"s{i:02d}",
            dataset,
            query,
            config,
            placement=args.placement,
            sample_fraction=args.sample_fraction,
            step_budget=args.step_budget,
            block_budget=args.block_budget,
            tenant=tenants[i % len(tenants)],
        )
    try:
        serve_workload(
            manager,
            policy=args.policy,
            slice_steps=args.slice_steps,
            park=args.park,
            seed=args.serve_seed,
        )
    finally:
        manager.close()

    summary = manager.summary()
    for name, info in summary["sessions"].items():
        flag = " (interrupted)" if info["interrupted"] else ""
        out(
            f"{name}: {info['state']:<9} {info['results']:>4} results "
            f"in {info['steps']:>6} steps{flag}"
        )
    merged = manager.merged_results()
    total = sum(info["results"] for info in summary["sessions"].values())
    out(f"-- {total} results across sessions, {len(merged)} after dedupe")

    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    if counters:
        out("\nserve counters:")
        for name, value in counters.items():
            out(f"  {name:<40} {value:>14g}")
    if cache is not None:
        lookups = counters.get("serve.cache.lookup_cells", 0.0)
        hits = counters.get("serve.cache.hit_cells", 0.0)
        rate = hits / lookups if lookups else 0.0
        out(
            f"\ncache: {cache.stats()['resident_cells']} resident cells, "
            f"hit rate {rate:.1%} ({hits:g}/{lookups:g})"
        )

    if args.json is not None:
        report = {
            "summary": summary,
            "metrics": snapshot,
            "merged_results": len(merged),
            "trace": trace.summary(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        out(f"\nwrote {args.json}")

    return _audit_snapshot(snapshot, out)


def _cmd_serve_network(args, out) -> int:
    """``--listen``: socket service; ``--replay``: verify a journal."""
    import asyncio

    from .serve import (
        ExplorationServer,
        RunRecorder,
        ServeConfig,
        parse_quota_specs,
        replay_journal,
    )

    if args.replay is not None:
        report = replay_journal(args.replay)
        verdict = "byte-identical" if report.matches else "MISMATCH"
        out(f"replayed {report.events} events in simulated time: {verdict}")
        for mismatch in report.mismatches[:10]:
            out(f"  {mismatch}")
        return 0 if report.matches else 1

    host, port = _parse_listen(args.listen)
    config = ServeConfig(
        host=host,
        port=port,
        max_live=args.max_live,
        queue_limit=args.queue_limit,
        slice_steps=args.slice_steps,
        policy=args.policy,
        seed=args.serve_seed,
        park=args.park,
        use_cache=not args.no_cache,
        cache_budget=args.cache_budget,
        quotas=parse_quota_specs(args.tenant_quota or []),
    ).validate()
    recorder = None if args.record is None else RunRecorder(config)

    async def run() -> BaseException | None:
        server = ExplorationServer(config, recorder=recorder)
        bound_host, bound_port = await server.start()
        out(
            f"serving on {bound_host}:{bound_port} "
            f"(policy {config.policy}, max_live {config.max_live}; "
            f"send a 'shutdown' op or ctrl-c to stop)"
        )
        # The banner is how drivers learn the bound port — make sure it
        # leaves the process even when stdout is a pipe.
        sys.stdout.flush()
        try:
            await server.serve_until_stopped()
        finally:
            await server.stop()
        return server.failure

    failure = None
    try:
        failure = asyncio.run(run())
    except KeyboardInterrupt:
        out("interrupted")
    if recorder is not None:
        recorder.save(args.record)
        out(f"journal written to {args.record}")
    if failure is not None:
        print(f"error: server stopped: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_baseline(args, database: Database, dataset, query: SWQuery, out) -> int:
    report = run_sql_baseline(database, dataset.name, query)
    out(
        f"baseline: {report.num_results} results at t={report.total_time_s:.2f}s "
        f"(I/O {report.io_time_s:.2f}s + CPU {report.cpu_time_s:.2f}s, "
        f"{report.windows_enumerated:,} windows enumerated)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
