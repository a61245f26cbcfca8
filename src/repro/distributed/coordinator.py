"""The distributed coordinator: build partitions, run workers, merge results.

The coordinator "is responsible for starting workers, collecting all
results and presenting them to the user" (Section 5).  Execution is a
conservative discrete-event simulation: every worker has its own clock
(its database's clock); the coordinator repeatedly steps the worker with
the earliest actionable time, fast-forwarding idle workers to their next
message arrival.  The loop is event-driven: next action times sit in a
ready queue and are re-evaluated only for the workers an event can have
affected (DESIGN.md Section 9, "Event loop").  "The total query time is
essentially dominated by the total disk time of the slowest worker" —
which is exactly what the simulation yields.

Fault tolerance (DESIGN.md Section 9, "Fault model", is the plan
vocabulary, the degradation record and the outcome rule; Sections 9 and
14 are this module's recovery mechanisms).  A :class:`FaultPlan` on the
config turns the run into a chaos experiment: fail-stop crashes
(single, storms, whole failure domains), link partitions with scheduled
heals, and probabilistic message drop/duplication/delay, all drawn from
one seeded stream so a given plan replays bit-identically.  Failure
detection is driven by an observed-heartbeat :class:`LivenessView`: the
coordinator probes liveness on a periodic check tick; a worker beats if
its coordinator link is up *or* a live peer bridges both links
(quorum-style relay), and a worker silent for one heartbeat timeout is
declared dead.  Declarations made on the same tick are handled as one
batch: the dead anchor runs are reassigned in a single
:meth:`OwnershipRouter.reassign_batch` pass (cost O(lost cells)), each
adopter rebuilds its local table once, and re-seeds the adopted anchors.
A *live* worker declared dead (a partition outlasting the timeout) is
fenced — stopped permanently, its results superseded by its successor's
re-exploration — so false positives degrade performance, never
correctness.

Every run ends in one contractual outcome
(:attr:`DistributedReport.outcome`, the rule is
:func:`repro.faults.outcome_of`): ``complete``, ``degraded`` with a
:class:`~repro.faults.Degradation` manifest enumerating exactly which
slabs/windows were unrecoverable, ``aborted`` with
:attr:`DistributedReport.abort_reason` (resource limits, protocol
wedges), or ``interrupted`` at a checkpoint.  Because the search is a
deterministic exhaustive expansion from seeded anchors, re-seeding
recovers exactly the windows a dead worker would have reported, so the
merged result set of a recoverable run equals the fault-free one on all
surviving partitions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..clock import SimClock
from ..core import checkpoint as ckpt
from ..core.query import ResultWindow, SWQuery
from ..core.search import SearchConfig
from ..core.trace import EventKind, SearchTrace
from ..core.datamanager import DataManager
from ..core.window import Window
from ..costs import CostModel, DEFAULT_COST_MODEL
from ..errors import CheckpointError, ConfigError, ProtocolError, SimulationLimitError
from ..obs.metrics import MetricsRegistry
from ..sampling.stratified import StratifiedSampler
from ..storage.database import Database
from ..storage.placement import Placement, cell_flat_ids, order_rows
from ..storage.table import HeapTable
from ..workloads.base import Dataset
from ..faults import Degradation, outcome_of
from .faults import COORDINATOR, FaultInjector, FaultPlan
from .messages import Network
from .partitioning import (
    OverlapMode,
    OwnershipRouter,
    PartitionPlan,
    SuccessorPolicy,
    plan_partitions,
)
from .worker import Worker

__all__ = [
    "DistributedConfig",
    "DistributedReport",
    "LivenessView",
    "run_distributed",
]

# Event-kind priorities for the discrete-event loop: at equal timestamps a
# crash lands first, then partition cut/heal edges, then liveness check
# ticks, and only then ordinary worker steps.
_CRASH, _PART, _CHECK, _STEP = 0, 1, 2, 3


class LivenessView:
    """Coordinator-side liveness from *observed* heartbeats.

    The coordinator never inspects worker state directly; it sees beats.
    A worker beats on a check tick when a heartbeat can reach the
    coordinator: its own coordinator link is up, or — quorum-style — some
    live, undeclared peer bridges both the worker<->peer and
    peer<->coordinator links and relays the beat.  A worker whose last
    observed beat is older than the heartbeat timeout is *declared* dead,
    whether it actually crashed (detection) or is merely unreachable
    (false positive — the caller fences it).  All state is deterministic
    simulated time, so declarations replay bit-identically.
    """

    def __init__(self, num_workers: int, timeout_s: float) -> None:
        self.num_workers = num_workers
        self.timeout_s = timeout_s
        self.last_beat = [0.0] * num_workers
        self.declared: set[int] = set()

    def beat(self, worker: int, now_s: float) -> None:
        """Record an observed heartbeat."""
        if now_s > self.last_beat[worker]:
            self.last_beat[worker] = now_s

    def expired(self, worker: int, now_s: float) -> bool:
        """Whether the worker's silence has outlasted the timeout."""
        return self.last_beat[worker] + self.timeout_s <= now_s

    def declare(self, worker: int) -> None:
        """Mark a worker dead; it can never be un-declared."""
        self.declared.add(worker)

    def observed(
        self,
        worker: int,
        now_s: float,
        plan: FaultPlan,
        peer_alive,
    ) -> bool:
        """Whether a (live) worker's heartbeat reaches the coordinator now."""
        if plan.link_open(COORDINATOR, worker, now_s):
            return True
        return any(
            peer != worker
            and peer not in self.declared
            and peer_alive(peer)
            and plan.link_open(worker, peer, now_s)
            and plan.link_open(COORDINATOR, peer, now_s)
            for peer in range(self.num_workers)
        )


@dataclass
class DistributedConfig:
    """Knobs for one distributed execution (Section 6.7 parameters)."""

    num_workers: int = 4
    overlap: OverlapMode | str = OverlapMode.NONE
    placement: Placement | str = Placement.CLUSTER
    search: SearchConfig = field(default_factory=lambda: SearchConfig(alpha=1.0))
    tuples_per_block: int = 8
    buffer_fraction: float = 0.15
    sample_fraction: float = 0.1
    sample_seed: int = 17
    balance_by_data: bool = True
    skew: float = 0.0
    max_steps: int = 50_000_000
    faults: FaultPlan | None = None
    # How the router picks successors for a dead worker's anchors.
    successor_policy: SuccessorPolicy | str = SuccessorPolicy.SPLIT
    # Speculative-retransmit threshold (overrides the cost model when
    # nonzero); 0 keeps hedging off and runs byte-identical to PR2.
    hedge_delay_ms: float = 0.0
    # Stop after this many coordinator steps and capture a resumable
    # checkpoint on the report (the deterministic distributed kill point).
    # Mutually exclusive with fault injection: a run whose recovery
    # machinery is mid-flight is deliberately not serializable.
    checkpoint_after_steps: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.overlap, OverlapMode):
            self.overlap = OverlapMode(self.overlap)
        if not isinstance(self.successor_policy, SuccessorPolicy):
            self.successor_policy = SuccessorPolicy(self.successor_policy)
        if int(self.num_workers) != self.num_workers or self.num_workers < 1:
            raise ConfigError(
                f"num_workers must be a positive integer, got {self.num_workers}"
            )
        if int(self.tuples_per_block) != self.tuples_per_block or self.tuples_per_block < 1:
            raise ConfigError(
                f"tuples_per_block must be a positive integer, "
                f"got {self.tuples_per_block}"
            )
        if not 0.0 < self.buffer_fraction <= 1.0:
            raise ConfigError(
                f"buffer_fraction must be in (0, 1], got {self.buffer_fraction}"
            )
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.skew < 0.0:
            raise ConfigError(f"skew must be >= 0, got {self.skew}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.hedge_delay_ms < 0.0:
            raise ConfigError(
                f"hedge_delay_ms must be >= 0 (0 disables hedging), "
                f"got {self.hedge_delay_ms}"
            )
        if self.checkpoint_after_steps is not None and self.checkpoint_after_steps < 1:
            raise CheckpointError(
                f"checkpoint_after_steps must be >= 1, got {self.checkpoint_after_steps}"
            )


@dataclass
class DistributedReport:
    """Merged outcome of a distributed run (paper Table 4 metrics).

    Fault-injected runs additionally report the reliability-layer
    activity (retries, ignored duplicates, injected faults) and — when
    recovery was impossible — a ``distributed``
    :class:`~repro.faults.Degradation` instead of an exception, so
    callers always get the results that *were* found.  Its ``lost`` names
    ``workers`` (crashed), ``fenced_workers``, ``slabs`` (anchor ranges
    no survivor could adopt), ``windows`` (candidates abandoned because
    their remote cells became unobtainable) and ``stuck_workers``.
    """

    results: list[ResultWindow] = field(default_factory=list)
    total_time_s: float = 0.0
    worker_times_s: list[float] = field(default_factory=list)
    worker_disk_times_s: list[float] = field(default_factory=list)
    worker_result_counts: list[int] = field(default_factory=list)
    worker_reads: list[int] = field(default_factory=list)
    worker_explored: list[int] = field(default_factory=list)
    worker_blocks_read: list[int] = field(default_factory=list)
    messages_sent: int = 0
    cells_shipped: int = 0
    # Fault-tolerance accounting.
    crashed_workers: list[int] = field(default_factory=list)
    fenced_workers: list[int] = field(default_factory=list)
    recovered_anchors: int = 0
    retries: int = 0
    hedges: int = 0
    duplicates_ignored: int = 0
    messages_lost: int = 0
    # Recovery control-plane traffic: adoption directives plus
    # notifications to the survivors actually touched by a death batch —
    # scales with lost cells / affected workers, never cells x workers.
    reassignment_msgs: int = 0
    cells_reassigned: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    degradations: tuple[Degradation, ...] = ()
    # A non-None abort_reason means the run was cut short (resource
    # limit, protocol wedge) — see ``outcome``.
    abort_reason: str | None = None
    # Lifecycle: a run stopped at ``checkpoint_after_steps`` reports
    # ``interrupted=True`` with the resumable capture in ``checkpoint``
    # (pass it back as ``run_distributed(..., resume_from=...)``).
    interrupted: bool = False
    checkpoint: dict | None = None
    # Observability (populated only when run with a metrics registry):
    # the merged snapshot plus each worker's own, in worker-id order.
    metrics: dict | None = None
    worker_metrics: list[dict] = field(default_factory=list)

    @property
    def num_results(self) -> int:
        """Total qualifying windows across workers."""
        return len(self.results)

    @property
    def first_result_time_s(self) -> float | None:
        """Earliest result time across workers."""
        return self.results[0].time if self.results else None

    @property
    def all_results_time_s(self) -> float | None:
        """Time at which the last result was found."""
        return self.results[-1].time if self.results else None

    @property
    def outcome(self) -> str:
        """``complete`` | ``degraded`` | ``aborted`` | ``interrupted``."""
        return outcome_of(self.interrupted, self.abort_reason, self.degradations)


def run_distributed(
    dataset: Dataset,
    query: SWQuery,
    config: DistributedConfig,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    on_result=None,
    trace: SearchTrace | None = None,
    metrics: MetricsRegistry | None = None,
    resume_from: dict | None = None,
) -> DistributedReport:
    """Partition the data, run all workers to completion, merge results.

    ``resume_from`` continues a run from a checkpoint captured by a
    previous invocation with ``config.checkpoint_after_steps`` set (see
    :class:`DistributedReport.checkpoint`); the completed execution is
    byte-identical to an uninterrupted one.  Checkpoint and resume are
    fault-free-only: combining either with ``config.faults`` raises
    :class:`~repro.errors.CheckpointError`.

    ``on_result(worker_id, result)`` is invoked as each worker discovers a
    qualifying window — the coordinator-side online stream (Section 5:
    the coordinator "collect[s] all results and present[s] them to the
    user").  Note that within the discrete-event simulation callbacks
    arrive in per-worker causal order, not globally sorted by time; under
    fault injection a crashed worker's streamed results may be superseded
    by its adopters' re-discoveries (the merged report deduplicates).

    ``trace`` (optional) records FAULT / RETRY / RECOVERY events with
    simulated timestamps alongside the usual search events.

    ``metrics`` (optional) is the coordinator's registry: channel and
    recovery counters accrue to it during the run, each worker gets its
    own registry bound to its own clock, and at the end the per-worker
    registries are folded in (counters add, gauges max, histograms
    bucket-wise) so the caller sees one global accounting.  The report
    then carries the merged snapshot plus the per-worker ones.
    """
    if config.faults is not None and (
        config.checkpoint_after_steps is not None or resume_from is not None
    ):
        raise CheckpointError(
            "distributed checkpoint/resume requires a fault-free run; "
            "detach config.faults first"
        )
    grid = query.grid

    # Full table (generation order) — the sampling substrate; building it
    # charges no simulated time, like the paper's offline sample step.
    full_table = HeapTable(
        dataset.name, dataset.schema, dataset.columns, config.tuples_per_block
    )
    sampler = StratifiedSampler(config.sample_fraction, seed=config.sample_seed)
    sample = sampler.sample(full_table, grid, metrics=metrics)
    row_cells = cell_flat_ids(full_table.coordinates(), grid)

    max_len0 = query.conditions.max_lengths(grid.shape)[0]
    plan = plan_partitions(
        grid,
        config.num_workers,
        overlap=config.overlap,
        max_window_length_dim0=max_len0,
        cell_weights=sample.cell_true_counts if config.balance_by_data else None,
        skew=config.skew,
    )

    if config.hedge_delay_ms:
        cost_model = cost_model.with_overrides(hedge_delay_ms=config.hedge_delay_ms)
    injector = (
        FaultInjector(config.faults, config.num_workers)
        if config.faults is not None
        else None
    )
    network = Network(config.num_workers, cost_model, injector=injector)
    if metrics is not None:
        network.metrics = metrics
    router = OwnershipRouter(plan)
    worker_registries = [
        MetricsRegistry() if metrics is not None else None
        for _ in range(config.num_workers)
    ]
    workers = [
        _build_worker(
            wid, dataset, query, plan, sample, full_table, network, config,
            _worker_cost_model(cost_model, injector, wid), on_result,
            router=router, trace=trace, metrics=worker_registries[wid],
            row_cells=row_cells,
        )
        for wid in range(config.num_workers)
    ]

    # Scheduled fault events: (time, priority, worker-or-index).
    timeout = cost_model.heartbeat_timeout_s()
    check_interval = timeout / 2.0
    fault_events: list[tuple[float, int, int]] = []
    liveness: LivenessView | None = None
    check_scheduled = False
    if injector is not None:
        liveness = LivenessView(config.num_workers, timeout)
        crash_schedule = injector.plan.crash_times()
        for wid, crash_at in sorted(crash_schedule.items()):
            heapq.heappush(fault_events, (crash_at, _CRASH, wid))
        for idx, part in enumerate(injector.plan.partitions):
            heapq.heappush(fault_events, (part.start_s, _PART, idx))
            heapq.heappush(fault_events, (part.heal_s, _PART, idx))
        if crash_schedule or injector.plan.partitions:
            # First liveness tick one timeout in (initial beats at t=0);
            # plans with only message faults never need a tick, keeping
            # their schedules identical to the pre-liveness protocol.
            heapq.heappush(fault_events, (timeout, _CHECK, -1))
            check_scheduled = True

    done_at_death: dict[int, bool] = {}
    crashed: list[int] = []
    fenced: list[int] = []
    reseeded: set[int] = set()
    reassignment_msgs = 0
    cells_reassigned = 0
    table_generation = 0

    steps = 0
    if resume_from is not None:
        steps = _restore_distributed(
            resume_from, config, network, workers, trace, metrics
        )
    exceeded = False
    interrupted = False
    checkpoint_state: dict | None = None

    # The ready queue: each actionable worker's ``(next_time, _STEP, wid)``
    # plus the stamp that entry was pushed under.  An entry is live while
    # its stamp is still the worker's current one; re-evaluating a worker
    # bumps the stamp, so superseded entries are skipped when they surface.
    # ``Worker.next_time`` reads only the worker's own state and its inbox
    # head, so after a step only the stepper and the recipients of what it
    # sent are re-evaluated; fault events mutate workers from outside
    # (crash, fence, deadline rewrites, adoption) and refresh everyone.
    ready: list[tuple[float, int, int, int]] = []
    stamps = [0] * config.num_workers

    def refresh(wids) -> None:
        for wid in wids:
            stamps[wid] += 1
            t = workers[wid].next_time()
            if t is not None:
                heapq.heappush(ready, (t, _STEP, wid, stamps[wid]))

    everyone = range(config.num_workers)
    refresh(everyone)
    while True:
        while ready and ready[0][3] != stamps[ready[0][2]]:
            heapq.heappop(ready)
        # Pending fault events must drain even when every worker is
        # momentarily quiescent — a crash of an already-done worker still
        # needs its detection and ownership hand-off to be recorded.
        if fault_events and (not ready or fault_events[0] < ready[0]):
            t, kind, wid = heapq.heappop(fault_events)
        elif ready:
            t, kind, wid, _ = heapq.heappop(ready)
        else:
            break
        if kind == _CRASH:
            worker = workers[wid]
            done_at_death[wid] = worker.is_done()
            crashed.append(wid)
            worker.crash()
            network.mark_dead(wid)
            if metrics is not None:
                metrics.inc("dist.crashes")
            if trace is not None:
                trace.record(EventKind.FAULT, t, fault="crash", worker=wid)
            if not check_scheduled:
                heapq.heappush(fault_events, (t + timeout, _CHECK, -1))
                check_scheduled = True
        elif kind == _PART:
            part = injector.plan.partitions[wid]
            phase = "cut" if t == part.start_s else "heal"
            if metrics is not None and phase == "cut":
                metrics.inc("dist.partitions")
            if trace is not None:
                trace.record(
                    EventKind.PARTITION,
                    t,
                    worker=part.worker,
                    peer=part.peer,
                    phase=phase,
                )
        elif kind == _CHECK:
            check_scheduled = False
            declared_now = _liveness_tick(t, liveness, injector, workers, metrics)
            if declared_now:
                for dead_wid in declared_now:
                    if not workers[dead_wid].crashed:
                        # Alive but unreachable past the timeout: a false
                        # positive.  Fence it so its superseded results
                        # can never conflict with its successor's.
                        done_at_death[dead_wid] = workers[dead_wid].is_done()
                        workers[dead_wid].fence()
                        network.mark_dead(dead_wid)
                        fenced.append(dead_wid)
                        if metrics is not None:
                            metrics.inc("dist.fenced_workers")
                        if trace is not None:
                            trace.record(
                                EventKind.FAULT, t, fault="fence", worker=dead_wid
                            )
                    elif metrics is not None:
                        metrics.inc("dist.crash_detections")
                    if metrics is not None:
                        metrics.inc("dist.deaths_declared")
                table_generation += 1
                batch_msgs, batch_cells, batch_reseeded = _handle_deaths(
                    declared_now, t, workers, router, plan, full_table, row_cells,
                    config, done_at_death, generation=table_generation,
                    trace=trace, metrics=metrics,
                )
                reassignment_msgs += batch_msgs
                cells_reassigned += batch_cells
                reseeded.update(batch_reseeded)
            if _checks_pending(t, fault_events, workers, liveness, injector):
                heapq.heappush(fault_events, (t + check_interval, _CHECK, -1))
                check_scheduled = True
        else:
            worker = workers[wid]
            worker.advance_to(t)
            worker.step()
            steps += 1
            if steps > config.max_steps:
                if injector is None:
                    raise SimulationLimitError(
                        "distributed simulation exceeded max_steps"
                    )
                exceeded = True
                break
            if (
                config.checkpoint_after_steps is not None
                and steps >= config.checkpoint_after_steps
            ):
                checkpoint_state = _capture_distributed(
                    config, steps, network, workers, trace, metrics
                )
                interrupted = True
                break
        touched = network.drain_recipients()
        refresh(touched | {wid} if kind == _STEP else everyone)

    live = [w for w in workers if not w.crashed]
    stuck = [w.worker_id for w in live if not w.is_done()]
    if stuck and not exceeded and not interrupted and injector is None:
        # pragma: no cover - indicates a protocol bug
        raise ProtocolError(f"workers {stuck} quiesced with unresolved work")

    # A crashed worker whose slab was re-seeded has its partial results
    # superseded by its adopters' re-exploration; counting both would
    # duplicate windows.  A worker that was already done when it crashed
    # (or whose slab was lost outright) keeps what it found.
    results = sorted(
        (r for w in workers if w.worker_id not in reseeded for r in w.results),
        key=lambda r: r.time,
    )

    lost_slabs = router.lost_slabs()
    lost_windows = sum(len(w.lost_windows) for w in live)
    abort_reason: str | None = None
    if exceeded:
        abort_reason = "simulation exceeded max_steps before quiescence"
    elif stuck and not interrupted and not (lost_slabs or lost_windows):
        abort_reason = "workers quiesced with unresolved work"
    degradations: tuple[Degradation, ...] = ()
    if abort_reason is not None or lost_slabs or lost_windows:
        manifest = Degradation(
            "distributed",
            abort_reason or "crashed slab had no surviving neighbor to adopt it",
            {
                "workers": tuple(crashed),
                "fenced_workers": tuple(fenced),
                "slabs": lost_slabs,
                "windows": lost_windows,
                "stuck_workers": tuple(stuck),
            },
        )
        degradations = (manifest,)

    merged_snapshot: dict | None = None
    worker_snapshots: list[dict] = []
    if metrics is not None:
        # Fold the per-worker registries into the coordinator's, under a
        # "merge" span.  Merging is coordinator-side bookkeeping: it
        # advances no worker clock, so the span records the phase count
        # with zero simulated elapsed time.
        if metrics.clock is None:
            clock = SimClock()
            clock.advance_to(max(w.now for w in workers))
            metrics.clock = clock
        worker_snapshots = [reg.snapshot() for reg in worker_registries]
        with metrics.span("merge"):
            for reg in worker_registries:
                metrics.merge(reg)
        merged_snapshot = metrics.snapshot()

    return DistributedReport(
        results=results,
        total_time_s=max(w.now for w in (live or workers)),
        worker_times_s=[w.now for w in workers],
        worker_disk_times_s=[w.data.clock.now for w in workers],
        worker_result_counts=[len(w.results) for w in workers],
        worker_reads=[w.stats.reads for w in workers],
        worker_explored=[w.stats.explored for w in workers],
        worker_blocks_read=[w.data.blocks_read_cumulative for w in workers],
        messages_sent=network.messages_sent,
        cells_shipped=network.cells_shipped,
        crashed_workers=crashed,
        fenced_workers=fenced,
        recovered_anchors=sum(w.recovered_anchors for w in workers),
        retries=sum(w.retries for w in workers),
        hedges=sum(w.hedges for w in workers),
        duplicates_ignored=sum(w.duplicates_ignored for w in workers),
        messages_lost=network.messages_lost,
        reassignment_msgs=reassignment_msgs,
        cells_reassigned=cells_reassigned,
        faults_injected=(
            {
                "crashes": len(crashed),
                "fencings": len(fenced),
                **injector.injected,
                "partition_drops": network.partition_drops,
            }
            if injector is not None
            else {}
        ),
        degradations=degradations,
        abort_reason=abort_reason,
        interrupted=interrupted,
        checkpoint=checkpoint_state,
        metrics=merged_snapshot,
        worker_metrics=worker_snapshots,
    )


def _distributed_fingerprint(config: DistributedConfig) -> dict:
    """The distributed knobs that must match between capture and resume.

    Lifecycle knobs (``checkpoint_after_steps``, ``max_steps``) are
    deliberately excluded — resuming with a different kill point is the
    whole point — but anything that alters partitioning, placement,
    sampling or exploration order is in.
    """
    s = config.search
    placement = (
        config.placement.value
        if isinstance(config.placement, Placement)
        else str(config.placement)
    )
    return {
        "num_workers": config.num_workers,
        "overlap": config.overlap.value,
        "placement": placement,
        "tuples_per_block": config.tuples_per_block,
        "buffer_fraction": config.buffer_fraction,
        "sample_fraction": config.sample_fraction,
        "sample_seed": config.sample_seed,
        "balance_by_data": config.balance_by_data,
        "skew": config.skew,
        "successor_policy": config.successor_policy.value,
        "hedge_delay_ms": config.hedge_delay_ms,
        "search": {
            "s": s.s,
            "alpha": s.alpha,
            "prefetch": s.prefetch.value,
            "diversification": s.diversification.value,
            "refresh_reads": s.refresh_reads,
            "lazy_updates": s.lazy_updates,
            "assume_nonnegative": s.assume_nonnegative,
            "head_capacity": s.effective_head_capacity,
            "scrub_blocks_per_step": s.scrub_blocks_per_step,
        },
    }


def _capture_distributed(
    config: DistributedConfig,
    steps: int,
    network: Network,
    workers: list[Worker],
    trace: SearchTrace | None,
    metrics: MetricsRegistry | None,
) -> dict:
    """Snapshot a quiescent-at-step-boundary fault-free distributed run.

    Coordinator loop state reduces to the step counter: with no fault
    plan there are no fault events, no crashed workers and no adoption
    history, so the workers plus the in-flight mail *are* the execution.
    The CHECKPOINT trace event is recorded after the capture (live-only,
    like the serial path) and no metrics counter is touched, preserving
    snapshot byte-identity with an uninterrupted run.
    """
    state = {
        "format_version": ckpt.CHECKPOINT_FORMAT_VERSION,
        "kind": "distributed",
        "config": _distributed_fingerprint(config),
        "steps": steps,
        "network": network.state(),
        "workers": [w.state() for w in workers],
        "trace": ckpt.trace_to_state(trace) if trace is not None else None,
        "metrics": metrics.snapshot() if metrics is not None else None,
    }
    if trace is not None:
        trace.record(
            EventKind.CHECKPOINT,
            max(w.now for w in workers),
            steps=steps,
            workers=len(workers),
        )
    return state


def _restore_distributed(
    state: dict,
    config: DistributedConfig,
    network: Network,
    workers: list[Worker],
    trace: SearchTrace | None,
    metrics: MetricsRegistry | None,
) -> int:
    """Load a :func:`_capture_distributed` snapshot onto fresh machinery.

    Returns the restored step counter.  The workers must have been built
    under the same config (enforced via the fingerprint) with their
    clocks not yet past the capture point (enforced per worker).
    """
    if state.get("format_version") != ckpt.CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {state.get('format_version')!r} "
            f"(expected {ckpt.CHECKPOINT_FORMAT_VERSION})"
        )
    if state.get("kind") != "distributed":
        raise CheckpointError(
            f"expected a distributed checkpoint, got kind={state.get('kind')!r}"
        )
    fingerprint = _distributed_fingerprint(config)
    saved = state["config"]
    if saved != fingerprint:
        mismatched = sorted(
            k
            for k in set(saved) | set(fingerprint)
            if saved.get(k) != fingerprint.get(k)
        )
        raise CheckpointError(
            f"checkpoint was taken under a different distributed "
            f"configuration; mismatched keys: {mismatched}"
        )
    worker_states = state["workers"]
    if len(worker_states) != len(workers):  # pragma: no cover - fingerprint covers
        raise CheckpointError(
            f"checkpoint has {len(worker_states)} workers, run has {len(workers)}"
        )
    network.restore_state(state["network"])
    for worker, wstate in zip(workers, worker_states):
        worker.restore_state(wstate)
    if trace is not None and state.get("trace") is not None:
        ckpt.load_trace_state(trace, state["trace"])
    if metrics is not None and state.get("metrics") is not None:
        metrics.load_snapshot(state["metrics"])
    return int(state["steps"])


def _liveness_tick(
    now: float,
    liveness: LivenessView,
    injector: FaultInjector,
    workers: list[Worker],
    metrics: MetricsRegistry | None,
) -> list[int]:
    """One heartbeat probe round: record beats, return newly-dead workers.

    Crashed workers never beat; live workers beat when observable (direct
    link or quorum relay).  Every undeclared worker whose silence has
    outlasted the timeout at this tick is declared — correlated failures
    (a storm, a failed rack) whose deadlines fall inside the same tick
    come back as one batch, which is what makes reassignment batched.
    """

    def peer_alive(peer: int) -> bool:
        return not workers[peer].crashed

    declared_now: list[int] = []
    for wid in range(liveness.num_workers):
        if wid in liveness.declared:
            continue
        if not workers[wid].crashed and liveness.observed(
            wid, now, injector.plan, peer_alive
        ):
            liveness.beat(wid, now)
            if metrics is not None:
                metrics.inc("dist.heartbeats")
            continue
        if liveness.expired(wid, now):
            declared_now.append(wid)
    for wid in declared_now:
        liveness.declare(wid)
    return declared_now


def _checks_pending(
    now: float,
    fault_events: list[tuple[float, int, int]],
    workers: list[Worker],
    liveness: LivenessView,
    injector: FaultInjector,
) -> bool:
    """Whether a future liveness tick could still declare someone dead."""
    if any(
        w.crashed and w.worker_id not in liveness.declared for w in workers
    ):
        return True
    if any(kind == _CRASH for _, kind, _ in fault_events):
        return True
    return any(p.heal_s > now for p in injector.plan.partitions)


def _handle_deaths(
    dead_batch: list[int],
    now: float,
    workers: list[Worker],
    router: OwnershipRouter,
    plan: PartitionPlan,
    full_table: HeapTable,
    row_cells: np.ndarray,
    config: DistributedConfig,
    done_at_death: dict[int, bool],
    generation: int,
    trace: SearchTrace | None,
    metrics: MetricsRegistry | None,
) -> tuple[int, int, set[int]]:
    """Reassign a batch of dead workers' anchors in one pass.

    The router resolves the whole batch with one O(lost cells)
    :meth:`OwnershipRouter.reassign_batch` call; each adopter rebuilds
    its local table once no matter how many runs it adopts, and only the
    survivors actually touched by the deaths (answers owed, requests
    outstanding) count as notification messages.  A range is re-seeded
    if *any* of its source workers died with unfinished work, and every
    source of a re-seeded range is superseded — the adopter re-discovers
    their windows, so counting both would duplicate results.

    Returns ``(reassignment_msgs, cells_reassigned, reseeded_sources)``.
    """
    dead_set = set(dead_batch)
    assignments = router.reassign_batch(
        dead_batch,
        policy=config.successor_policy,
        alive=lambda w: not workers[w].crashed,
    )
    notifications = 0
    for w in workers:
        if not w.crashed and w.worker_id not in dead_set:
            if w.on_peer_deaths(dead_set):
                notifications += 1

    by_adopter: dict[int, list[tuple[tuple[int, int], tuple[int, ...]]]] = {}
    for adopter_id, rng, sources in assignments:
        by_adopter.setdefault(adopter_id, []).append((rng, sources))

    reseeded_sources: set[int] = set()
    cells = 0
    for adopter_id, items in by_adopter.items():
        adopter = workers[adopter_id]
        new_lo = min(adopter.data_lo, min(rng[0] for rng, _ in items))
        new_hi = max(
            adopter.data_hi,
            max(
                min(rng[1] + plan.data_extension, plan.boundaries[-1])
                for rng, _ in items
            ),
        )
        table, n_rows = _local_table(
            full_table,
            adopter.grid,
            row_cells,
            new_lo,
            new_hi,
            config,
            seed=7 + adopter_id,
            name=f"{full_table.name}@{adopter_id}.g{generation}",
        )
        if n_rows == 0:
            table = None  # the widened range is empty too: keep the stub
        first = True
        for (alo, ahi), sources in items:
            seed = any(not done_at_death.get(s, False) for s in sources)
            adopter.adopt_anchors(
                (alo, ahi),
                (new_lo, new_hi),
                table=table if first else None,
                seed=seed,
            )
            first = False
            cells += ahi - alo
            if seed:
                reseeded_sources.update(sources)
            if trace is not None:
                trace.record(
                    EventKind.RECOVERY,
                    now,
                    worker=adopter_id,
                    dead=list(sources),
                    anchors=(alo, ahi),
                    reseeded=seed,
                )
        if n_rows == 0:
            _mark_empty_range(adopter.data, new_lo, new_hi)

    adopted_sources = {s for _, _, sources in assignments for s in sources}
    for wid in dead_batch:
        if wid not in adopted_sources and trace is not None:
            trace.record(EventKind.FAULT, now, fault="slab_lost", worker=wid)

    msgs = len(assignments) + notifications
    if metrics is not None:
        metrics.inc("dist.adoptions", float(len(assignments)))
        metrics.inc("dist.reassignment_msgs", float(msgs))
        metrics.inc("dist.cells_reassigned", float(cells))
    return msgs, cells, reseeded_sources


def _worker_cost_model(
    cost_model: CostModel, injector: FaultInjector | None, worker_id: int
) -> CostModel:
    """Apply the fault plan's per-worker disk slowdown, if any."""
    if injector is None:
        return cost_model
    factor = injector.plan.disk_factor(worker_id)
    if factor == 1.0:
        return cost_model
    return cost_model.with_overrides(
        seek_ms=cost_model.seek_ms * factor,
        transfer_ms=cost_model.transfer_ms * factor,
    )


def _local_table(
    full_table: HeapTable,
    grid,
    row_cells: np.ndarray,
    lo: int,
    hi: int,
    config: DistributedConfig,
    seed: int,
    name: str | None = None,
) -> tuple[HeapTable, int]:
    """Build a worker-local heap table for dim-0 cell range ``[lo, hi)``.

    ``row_cells`` is ``cell_flat_ids`` of the full table's rows, computed
    once per run.  Returns ``(table, row_count)``.  A range containing no
    rows yields a one-row *stub* table (heap tables cannot be empty) whose
    single row lives outside the range — callers pre-mark the range as
    read-and-empty so the stub is never actually scanned for it.
    """
    slab = int(np.prod(grid.shape[1:]))  # flat ids per dim-0 cell; outside rows are -1
    rows = np.nonzero((row_cells >= lo * slab) & (row_cells < hi * slab))[0]
    n_rows = int(rows.size)
    if n_rows == 0:
        rows = np.array([0])
    local_coords = full_table.coordinates()[rows]
    perm = order_rows(config.placement, local_coords, grid=grid, axis_dim=0, seed=seed)
    columns = {c: full_table.column(c)[rows][perm] for c in full_table.schema.columns}
    table = HeapTable(
        name if name is not None else full_table.name,
        full_table.schema,
        columns,
        config.tuples_per_block,
    )
    return table, n_rows


def _mark_empty_range(data: DataManager, lo: int, hi: int) -> None:
    """Pre-mark a dim-0 cell range as read-and-empty (no rows live there)."""
    shape = data.grid.shape
    region = Window(
        (lo,) + (0,) * (len(shape) - 1),
        (hi,) + tuple(shape[1:]),
    )
    data.mark_region_empty(region)


def _build_worker(
    worker_id: int,
    dataset: Dataset,
    query: SWQuery,
    plan: PartitionPlan,
    sample,
    full_table: HeapTable,
    network: Network,
    config: DistributedConfig,
    cost_model: CostModel,
    on_result=None,
    router: OwnershipRouter | None = None,
    trace: SearchTrace | None = None,
    metrics: MetricsRegistry | None = None,
    row_cells: np.ndarray | None = None,
) -> Worker:
    grid = query.grid
    lo, hi = plan.data_range(worker_id)
    if row_cells is None:
        row_cells = cell_flat_ids(full_table.coordinates(), grid)
    table, n_rows = _local_table(
        full_table, grid, row_cells, lo, hi, config, seed=7 + worker_id
    )

    db = Database(
        cost_model=cost_model,
        clock=SimClock(),
        buffer_fraction=config.buffer_fraction,
    )
    if metrics is not None:
        # Bind the worker registry to the worker clock *before* anything
        # is registered so storage and estimation counters route to it.
        db.attach_metrics(metrics)
    db.register(table)
    data = DataManager(
        db,
        dataset.name,
        grid,
        query.conditions.content_objectives(),
        sample,
        sample_table=full_table,
    )
    if n_rows == 0:
        # A slab with no rows (extreme skew): the worker starts with its
        # whole local range cached as empty, quiesces immediately unless
        # neighbors need its (empty) cells, and stays eligible to adopt
        # anchors after a peer failure.
        _mark_empty_range(data, lo, hi)
    return Worker(
        worker_id,
        plan,
        query,
        data,
        network,
        config=config.search,
        cost_model=cost_model,
        on_result=on_result,
        router=router,
        trace=trace,
        metrics=metrics,
    )
