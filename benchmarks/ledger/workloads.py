"""The ledger's four workloads: inputs from a seed, rounds of operations.

A workload is generated from ``--seed`` and then driven in identical
*rounds*.  A round opens fresh program state (database, engine, server),
issues the workload's operations — queries or sessions — through the
program's public API only, and returns one :class:`Op` per operation
holding what the caller saw and when.  ``run.py`` times set-up, repeats
rounds, checks every op against the oracle and turns the records into
metrics; nothing here computes a metric.

Delay to the k-th result swings by 30-60 % from one dataset to the next
(it depends on where the search happens to look first), so a workload
whose headline is an early delay issues many cheap operations over
sibling datasets (same generator, seeds derived from ``--seed``) and the
metric averages over them.  README.md gives the measured spreads.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import distributed
from repro.core import SearchConfig, SWEngine
from repro.dbms.executor import materialize_cells
from repro.distributed import DistributedConfig
from repro.serve import AsyncServeClient, ExplorationServer, ServeConfig, TenantQuota
from repro.workloads import (
    SDSS_QUERIES,
    load_workload,
    make_database,
    sdss_dataset,
    sdss_query,
    synthetic_dataset,
    synthetic_query,
)

__all__ = ["Op", "Expectation", "Workload", "WORKLOADS", "derive_seed", "qualifying_windows"]

#: Results an analyst looks at before moving on (the "k" of delay-to-k-th).
FIRST_K = 10

#: ``card(w)`` and ``avg(value)`` open intervals of the synthetic query.
_SYNTH_CARD, _SYNTH_AVG = (5, 10), (20.0, 30.0)


def derive_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th sibling input of a run seeded ``seed``."""
    return seed * 1000 + index


@dataclass
class Op:
    """One query or session of one round, as its caller saw it.

    ``deliveries`` are seconds from issuing the operation to each result
    window being in the caller's hands; ``completion_s`` runs to search
    exhaustion, terminal session state, or the cancel being acknowledged.
    ``windows`` are the delivered ``(lo, hi)`` cell boxes in delivery
    order; ``sim_s`` is the simulated time of the last result;
    ``issued_at`` is the ``perf_counter`` reading at issue.
    """

    issued_at: float
    deliveries: list[float]
    completion_s: float
    windows: list[tuple]
    sim_s: float = 0.0
    error: str | None = None

    @property
    def first_s(self) -> float:
        return self.deliveries[0] if self.deliveries else self.completion_s

    @property
    def kth_s(self) -> float:
        if not self.deliveries:
            return self.completion_s
        return self.deliveries[min(FIRST_K, len(self.deliveries)) - 1]

    @property
    def gap_max_s(self) -> float:
        """Longest silence, from issue through each delivery to completion."""
        stamps = [0.0, *self.deliveries, self.completion_s]
        return max(b - a for a, b in zip(stamps, stamps[1:]))


@dataclass(frozen=True)
class Expectation:
    """What the oracle allows one op to return.

    ``sure`` windows qualify beyond doubt; ``edge`` ones have an average
    within rounding distance of a threshold and may go either way.  Any op
    must return distinct windows from ``sure | edge``, ``at_least`` and
    ``at_most`` that many; an ``exact`` op must return all of ``sure``.
    """

    sure: frozenset
    edge: frozenset
    at_least: int = 0
    at_most: int | None = None
    exact: bool = False

    def violation(self, op: Op) -> str | None:
        if op.error is not None:
            return op.error
        got = set(op.windows)
        if len(got) != len(op.windows):
            return "duplicate result windows"
        if not got <= self.sure | self.edge:
            return f"{len(got - self.sure - self.edge)} windows do not qualify"
        if self.exact and not self.sure <= got:
            return f"{len(self.sure - got)} qualifying windows missing"
        if len(got) < self.at_least:
            return f"expected at least {self.at_least} windows, got {len(got)}"
        if self.at_most is not None and len(got) > self.at_most:
            return f"expected at most {self.at_most} windows, got {len(got)}"
        return None


def qualifying_windows(dataset, query, card, avg, tol=1e-9):
    """Every window with ``card`` cells and ``avg`` objective in the open intervals.

    Cell aggregates come from one full scan by the program; the windows
    are enumerated here with summed-area tables, independently of the
    search.  Returns ``(sure, edge)`` sets of ``(lo, hi)`` boxes.
    """
    database = make_database(dataset, "cluster", backend="simulator")
    objectives = query.conditions.content_objectives()
    scan = database.full_scan_cell_aggregates(dataset.name, query.grid, objectives)
    cells = materialize_cells(query.grid, scan.cells, [o.key for o in objectives])
    (totals,) = cells.sums.values()

    def table(values):
        out = np.zeros(tuple(n + 1 for n in values.shape))
        out[1:, 1:] = values.cumsum(0).cumsum(1)
        return out

    counts_sat, totals_sat = table(cells.counts), table(totals)
    nx, ny = cells.counts.shape
    sure, edge = set(), set()
    for w in range(1, nx + 1):
        for h in range(1, ny + 1):
            if not card[0] < w * h < card[1]:
                continue

            def boxes(sat):
                return sat[w:, h:] - sat[:-w, h:] - sat[w:, :-h] + sat[:-w, :-h]

            count, total = boxes(counts_sat), boxes(totals_sat)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean = np.where(count > 0, total / count, np.nan)
            near = (np.abs(mean - avg[0]) <= tol) | (np.abs(mean - avg[1]) <= tol)
            inside = (mean > avg[0]) & (mean < avg[1])
            for target, mask in ((sure, inside & ~near), (edge, near)):
                for x, y in zip(*np.nonzero(mask)):
                    target.add(((int(x), int(y)), (int(x) + w, int(y) + h)))
    return frozenset(sure), frozenset(edge)


def _box(window) -> tuple:
    return (tuple(int(c) for c in window.lo), tuple(int(c) for c in window.hi))


def _stream(database, dataset, query, limit: int | None):
    """One ``execute_iter`` on a fresh engine; cancel after ``limit`` results."""
    deliveries, windows = [], []
    sim_s = 0.0
    issued = perf_counter()
    engine = SWEngine(database, dataset.name, sample_fraction=0.1)
    stream = engine.execute_iter(query, SearchConfig(alpha=1.0))
    for result in stream:
        deliveries.append(perf_counter() - issued)
        windows.append(_box(result.window))
        sim_s = result.time
        if len(windows) == limit:
            stream.cancel()
    report = stream.report()
    return Op(issued, deliveries, perf_counter() - issued, windows, sim_s), report


def _place_and_sample(dataset, query, backend="simulator"):
    """The program's once-per-dataset work: placement (and bulk load), then the sample."""
    database = make_database(dataset, "cluster", backend=backend)
    SWEngine(database, dataset.name, sample_fraction=0.1).sample_for(query)
    return database


def _peek(sure, edge) -> Expectation:
    """A ten-result peek: ten distinct qualifying windows, or all if there are fewer."""
    return Expectation(sure, edge, at_least=min(FIRST_K, len(sure)), at_most=FIRST_K)


def _engine_counts(reports) -> dict[str, float]:
    """Per-layer counts that the engine's own reports give."""
    return {
        "core.search.explored": sum(r.run.stats.explored for r in reports),
        "core.search.results": sum(len(r.run.results) for r in reports),
        "core.datamanager.cells_read": sum(r.run.stats.cells_read for r in reports),
        "core.datamanager.prefetched_cells": sum(
            r.run.stats.prefetched_cells for r in reports
        ),
        "storage.disk.seeks": sum(r.disk_stats["seeks"] for r in reports),
        "storage.disk.sim_time_s": sum(r.disk_stats["total_time_s"] for r in reports),
    }


class Workload:
    """Inputs from a seed, fresh state per round, one :class:`Op` per operation."""

    name: str
    #: Ops whose completion is the workload's own (all, unless peeks ride along).
    primary = slice(None)

    def __init__(self, scratch: str) -> None:
        #: Directory inside the checkout for files a round creates.
        self.scratch = scratch
        #: The generated datasets, filled by :meth:`generate`.
        self.datasets: list = []
        #: Per-layer counts of the last round, from the program's reports.
        self.counts: dict[str, float] = {}
        #: One entry per op of a round, filled by :meth:`build_oracle`.
        self.expected: list[Expectation] = []

    def generate(self, seed: int) -> None:
        """Make the inputs from the seed."""
        raise NotImplementedError

    def prepare(self) -> None:
        """The program's once-per-dataset work: placement, sample, bulk load."""
        raise NotImplementedError

    def build_oracle(self) -> None:
        raise NotImplementedError

    def round(self, pace) -> list[Op]:
        """Run one round on fresh state; also refreshes :attr:`counts`.

        ``pace.between_ops()`` is called between operations, so that the
        box's speed is sampled at least every few tenths of a second.
        """
        raise NotImplementedError

    def input_digest(self) -> str:
        """Changes whenever the generated inputs change."""
        digest = hashlib.sha256()
        for dataset in self.datasets:
            for name in sorted(dataset.columns):
                digest.update(np.ascontiguousarray(dataset.columns[name]).tobytes())
        return digest.hexdigest()


class SerialFull(Workload):
    name = "serial_full"
    SCALE = 0.2
    PEEKS = 24
    primary = slice(0, 1)

    def generate(self, seed):
        self.datasets = [
            synthetic_dataset("high", scale=self.SCALE, seed=derive_seed(seed, i))
            for i in range(1 + self.PEEKS)
        ]
        self.queries = [synthetic_query(d) for d in self.datasets]

    def prepare(self):
        for dataset, query in zip(self.datasets, self.queries):
            _place_and_sample(dataset, query)

    def build_oracle(self):
        allowed = [
            qualifying_windows(dataset, query, _SYNTH_CARD, _SYNTH_AVG)
            for dataset, query in zip(self.datasets, self.queries)
        ]
        self.expected = [Expectation(*allowed[0], exact=True)]
        self.expected += [_peek(sure, edge) for sure, edge in allowed[1:]]

    def round(self, pace):
        ops, reports = [], []
        for i, (dataset, query) in enumerate(zip(self.datasets, self.queries)):
            pace.between_ops()
            database = make_database(dataset, "cluster", backend="simulator")
            op, report = _stream(database, dataset, query, None if i == 0 else FIRST_K)
            ops.append(op)
            reports.append(report)
        self.counts = _engine_counts(reports)
        return ops


class SqliteFirstK(Workload):
    name = "sqlite_firstk"
    DATASETS = 6
    SCALE = 0.25
    # A quarter of the generator's default densities: ~12 k rows per catalog,
    # so that 18 queries fit in a round.
    BACKGROUND_PER_CELL = 2.0
    CLUSTER_PER_CELL = 40.0

    def generate(self, seed):
        self.datasets = [
            sdss_dataset(
                scale=self.SCALE,
                background_per_cell=self.BACKGROUND_PER_CELL,
                cluster_per_cell=self.CLUSTER_PER_CELL,
                seed=derive_seed(seed, i),
            )
            for i in range(self.DATASETS)
        ]
        self.queries = [
            [sdss_query(dataset, spread) for spread in SDSS_QUERIES]
            for dataset in self.datasets
        ]

    def _fresh_file(self, index: int) -> str:
        """Backend URL of an SQLite file that does not exist yet."""
        path = os.path.join(self.scratch, f"catalog{index}.db")
        for leftover in (path, path + "-journal"):
            if os.path.exists(leftover):
                os.remove(leftover)
        return f"sqlite://{path}"

    def prepare(self):
        for index, (dataset, queries) in enumerate(zip(self.datasets, self.queries)):
            _place_and_sample(dataset, queries[0], self._fresh_file(index)).backend.close()

    def build_oracle(self):
        self.expected = []
        for dataset, queries in zip(self.datasets, self.queries):
            for query, spec in zip(queries, SDSS_QUERIES.values()):
                sure, edge = qualifying_windows(
                    dataset, query, (spec.card_lo, spec.card_hi), (spec.speed_lo, spec.speed_hi)
                )
                self.expected.append(_peek(sure, edge))

    def round(self, pace):
        ops, reports = [], []
        installed = 0
        for index, (dataset, queries) in enumerate(zip(self.datasets, self.queries)):
            database = make_database(dataset, "cluster", backend=self._fresh_file(index))
            for query in queries:
                pace.between_ops()
                op, report = _stream(database, dataset, query, FIRST_K)
                ops.append(op)
                reports.append(report)
            installed += database.backend.installed_cell_count(dataset.name)
            database.backend.close()
        self.counts = _engine_counts(reports)
        self.counts["storage.sqlite_backend.cells_installed"] = installed
        return ops


class ServeBurst(Workload):
    name = "serve_burst"
    SESSIONS = 64
    CONNECTIONS = 2
    LANES = 8  # sessions each connection keeps in flight, one per lane
    SCALE = 0.15
    STEP_BUDGET = 128
    POLL_S = 0.005
    TENANTS = {"free-0": "free", "std-0": "standard", "prem-0": "premium"}
    _TERMINAL = ("done", "rejected", "throttled")

    def generate(self, seed):
        tenants = list(self.TENANTS)
        per_lane = self.SESSIONS // (self.CONNECTIONS * self.LANES)
        self.specs = []
        for i in range(self.SESSIONS):
            # A lane's sessions run one after the other.  All but its last
            # share one dataset, so the second and later take their cells
            # from the semantic cache; the last has a dataset of its own and
            # only ever publishes.  No two sessions in flight share a dataset,
            # so what the cache holds for a session never depends on how
            # submissions and slices interleave on the wall clock.
            lane, place = divmod(i, per_lane)
            own = place == per_lane - 1
            self.specs.append(
                {
                    "session": f"s{i:02d}",
                    "workload": "synth-high" if lane % 2 == 0 else "synth-low",
                    "scale": self.SCALE,
                    "seed": derive_seed(seed, i if own else 100 + lane),
                    "step_budget": self.STEP_BUDGET,
                    "tenant": tenants[i % len(tenants)],
                }
            )
        lanes = [self.specs[i : i + per_lane] for i in range(0, self.SESSIONS, per_lane)]
        self.lanes = [lanes[c :: self.CONNECTIONS] for c in range(self.CONNECTIONS)]
        self.inputs = {
            (s["workload"], s["seed"]): load_workload(s["workload"], s["scale"], s["seed"])
            for s in self.specs
        }
        self.datasets = [dataset for dataset, _query in self.inputs.values()]

    def prepare(self):
        # What the server does once per distinct dataset it is asked about.
        for dataset, query in self.inputs.values():
            _place_and_sample(dataset, query)

    def build_oracle(self):
        allowed = {
            key: qualifying_windows(dataset, query, _SYNTH_CARD, _SYNTH_AVG)
            for key, (dataset, query) in self.inputs.items()
        }
        # A budgeted session stops early: it owes soundness and the ten
        # windows the early-delay metrics read, not completeness.
        self.expected = [
            Expectation(*allowed[(s["workload"], s["seed"])], at_least=FIRST_K)
            for s in self.specs
        ]

    def round(self, pace):
        return asyncio.run(self._burst(pace))

    async def _sample(self, pace):
        """The box's speed, sampled from inside the loop while the burst runs."""
        while True:
            pace.between_ops()
            await asyncio.sleep(pace.EVERY_S / 2)

    async def _burst(self, pace):
        config = ServeConfig(
            max_live=4,
            queue_limit=self.SESSIONS,
            slice_steps=16,
            policy="wfq",
            quotas={name: TenantQuota(tier=tier) for name, tier in self.TENANTS.items()},
        )
        server = ExplorationServer(config)
        host, port = await server.start()
        clients = [
            await AsyncServeClient.open(host, port) for _ in range(self.CONNECTIONS)
        ]
        sampler = asyncio.create_task(self._sample(pace))
        try:
            self._polls = self._empty_polls = 0
            per_connection = await asyncio.gather(
                *(self._drive(client, lanes, pace) for client, lanes in zip(clients, self.lanes))
            )
            stats = await clients[0].stats()
            # Every connection says goodbye before the loop ends, so that no
            # server-side handler is left to be cancelled at teardown.
            for client in clients[1:]:
                await client.close_session()
            await clients[0].shutdown()
            await server.wait_stopped()
        finally:
            sampler.cancel()
            for client in clients:
                await client.close()
            await server.stop()
            await asyncio.gather(sampler, return_exceptions=True)
        by_name = {name: op for ops in per_connection for name, op in ops.items()}
        counters = stats["counters"]
        sessions = stats["summary"]["sessions"]
        for name, op in by_name.items():
            if op.error is None and sessions[name]["steps"] != self.STEP_BUDGET:
                op.error = f"ran {sessions[name]['steps']} steps, not {self.STEP_BUDGET}"
        lookups = counters.get("serve.cache.lookup_cells", 0.0)
        self.counts = {
            "core.search.explored": sum(s["steps"] for s in sessions.values()),
            "core.search.results": sum(s["results"] for s in sessions.values()),
            "serve.manager.admitted": counters.get("serve.sessions_admitted", 0.0),
            "serve.manager.rejected": counters.get("serve.sessions_rejected", 0.0)
            + counters.get("serve.sessions_throttled", 0.0),
            "serve.scheduler.slices": counters.get("serve.slices", 0.0),
            "serve.cache.lookup_cells": lookups,
            "serve.cache.hit_ratio": counters.get("serve.cache.hit_cells", 0.0) / lookups
            if lookups
            else 0.0,
            "serve.client.polls": self._polls,
            "serve.client.empty_poll_ratio": self._empty_polls / max(1, self._polls),
        }
        return [by_name[s["session"]] for s in self.specs]

    async def _drive(self, client, lanes, pace) -> dict[str, Op]:
        """One connection: one session in flight per lane, polled round-robin."""
        lanes = [list(lane) for lane in lanes]
        ops = {}
        live = {}  # lane -> [session, next result to ask for, reference-loop time at issue]
        while any(lanes) or live:
            for index, lane in enumerate(lanes):
                if lane and index not in live:
                    spec = lane.pop(0)
                    name = spec["session"]
                    ops[name] = Op(perf_counter(), [], 0.0, [])
                    live[index] = [name, 0, pace.spent_s]
                    response = await client.submit(**spec)
                    if response["outcome"] not in ("live", "waiting"):
                        ops[name].error = f"submit {response['outcome']}"
                        del live[index]
            progressed = False
            for index, (name, since, paced) in list(live.items()):
                page = await client.results(name, since=since)
                op = ops[name]
                # The reference loop shares the event loop: its time since
                # the session was issued is the benchmark's, not the program's.
                now = (perf_counter() - op.issued_at) - (pace.spent_s - paced)
                self._polls += 1
                for result in page["results"]:
                    op.deliveries.append(now)
                    op.windows.append((tuple(result["lo"]), tuple(result["hi"])))
                    op.sim_s = result["time"]
                live[index][1] = page["next"]
                if page["state"] in self._TERMINAL:
                    op.completion_s = now
                    if page["state"] != "done":
                        op.error = f"session ended {page['state']}"
                    del live[index]
                elif not page["results"]:
                    self._empty_polls += 1
                    continue
                progressed = True
            if live and not progressed:
                await asyncio.sleep(self.POLL_S)
        return ops


class Dist16(Workload):
    name = "dist16"
    SCALE = 0.2
    WORKERS = 16

    def generate(self, seed):
        self.dataset = synthetic_dataset("high", scale=self.SCALE, seed=derive_seed(seed, 0))
        self.query = synthetic_query(self.dataset)
        self.datasets = [self.dataset]

    def prepare(self):
        # run_distributed partitions, places and samples on every call; the
        # serial equivalents stand in for what a change could hoist here.
        _place_and_sample(self.dataset, self.query)

    def build_oracle(self):
        sure, edge = qualifying_windows(self.dataset, self.query, _SYNTH_CARD, _SYNTH_AVG)
        self.expected = [Expectation(sure, edge, exact=True)]

    def round(self, pace):
        config = DistributedConfig(num_workers=self.WORKERS, overlap="no_overlap")
        pace.between_ops()
        issued, paced = perf_counter(), pace.spent_s
        # Looked up on the package at call time, so that a trace sees it.  The
        # callback only samples the box's speed while the run is under way.
        report = distributed.run_distributed(
            self.dataset, self.query, config, on_result=lambda worker, result: pace.between_ops()
        )
        completion = (perf_counter() - issued) - (pace.spent_s - paced)
        # The merged, deduplicated report is what the caller consumes: every
        # window is in its hands when the call returns, none before.
        op = Op(
            issued, [], completion, [_box(r.window) for r in report.results], report.total_time_s
        )
        if report.outcome != "complete":
            op.error = f"distributed run ended {report.outcome}"
        self.counts = {
            "core.search.results": len(report.results),
            "core.datamanager.cells_read": sum(report.worker_reads),
            "storage.disk.sim_time_s": sum(report.worker_disk_times_s),
            "distributed.worker.explored": sum(report.worker_explored),
            "distributed.messages.messages_sent": report.messages_sent,
            "distributed.messages.cells_shipped": report.cells_shipped,
        }
        return [op]


WORKLOADS = {w.name: w for w in (SerialFull, SqliteFirstK, ServeBurst, Dist16)}
