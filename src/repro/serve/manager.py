"""Admission control, backpressure and bookkeeping for serving sessions.

The :class:`SessionManager` is the serving layer's front door: it admits
at most ``max_live`` concurrent sessions, queues up to ``queue_limit``
more, and rejects the rest outright (backpressure the caller can see).
Each admitted session gets a private database — its own simulated clock,
disk and buffer pool (registered in a shared
:class:`~repro.storage.buffer.PoolGroup` for fleet-level accounting) —
plus a per-session trace and metrics registry.  The only state shared
*between* sessions is the :class:`~repro.serve.cache.SemanticCache`.

Determinism contract (DESIGN.md §12): with a fixed scheduler policy,
seed and submission order, the whole interleaved run — every session's
results, trace and metrics, the manager's ``serve.*`` counters and
SESSION/PREEMPT/CACHE_SHARE timeline — is byte-reproducible; and each
session's observables equal those of the same query run alone against an
equally warmed cache, because a session's clock advances only while it
runs and cache entries are exact.
"""

from __future__ import annotations

from ..core.engine import SWEngine
from ..core.query import ResultWindow, SWQuery
from ..core.search import SearchConfig
from ..core.trace import EventKind, SearchTrace
from ..core.window import Window
from ..storage.buffer import PoolGroup
from ..workloads.base import make_database
from .cache import SemanticCache, grid_signature, table_signature
from .quota import QuotaLedger, TenantQuota
from .scheduler import QueryScheduler, SchedulingPolicy, make_policy
from .session import ExplorationSession, SessionState

__all__ = ["SessionManager", "serve_workload"]


class SessionManager:
    """Admits, tracks and accounts exploration sessions.

    Parameters
    ----------
    max_live:
        Concurrent-session cap; further submissions wait or bounce.
    queue_limit:
        Bounded wait queue depth — the backpressure valve.  ``0`` means
        admission is strictly live-or-rejected.
    cache:
        The shared semantic cache, or ``None`` to serve without sharing.
    metrics / trace:
        Serving-side observability: ``serve.*`` counters and the
        SESSION / PREEMPT / CACHE_SHARE timeline.  Per-session metrics
        live on each session's own registry, namespaced by construction
        rather than by key prefix.
    quotas / default_quota:
        Per-tenant :class:`~repro.serve.quota.TenantQuota` bounds; a
        submission over its tenant's quota bounces ``THROTTLED`` with a
        machine-checkable reason (``REJECTED`` stays the fleet-capacity
        outcome).  ``None`` serves every tenant unlimited.
    """

    def __init__(
        self,
        max_live: int = 4,
        queue_limit: int = 8,
        cache: SemanticCache | None = None,
        metrics=None,
        trace=None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
    ) -> None:
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self.max_live = max_live
        self.queue_limit = queue_limit
        self.cache = cache
        self.metrics = metrics
        self.trace = trace
        if cache is not None:
            cache.attach_observability(metrics=metrics, trace=trace)
        self.pool_group = PoolGroup()
        self.ledger = QuotaLedger(quotas, default_quota)
        self.sessions: dict[str, ExplorationSession] = {}
        self._live: list[ExplorationSession] = []
        self._waiting: list[ExplorationSession] = []
        self._ticks = 0

    # -- observability helpers ---------------------------------------------------

    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.live_sessions").set(float(len(self._live)))
            self.metrics.gauge("serve.wait_depth").set(float(len(self._waiting)))

    def _event(self, kind: EventKind, window: Window | None = None, **detail) -> None:
        if self.trace is not None:
            self.trace.record(kind, float(self._ticks), window, **detail)

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        name: str,
        dataset,
        query: SWQuery,
        config: SearchConfig | None = None,
        placement: str = "cluster",
        sample_fraction: float = 0.1,
        sample_seed: int = 17,
        step_budget: int | None = None,
        block_budget: int | None = None,
        tenant: str = "default",
    ) -> ExplorationSession:
        """Build and admit a session; returns its handle.

        The session gets a fresh private database over ``dataset`` (its
        clock starts at zero regardless of admission order) and a
        prepared search wired to the shared cache.  The returned handle's
        ``state`` says what admission decided: ``LIVE``, ``WAITING``,
        ``THROTTLED`` (tenant over quota — ``throttle_reason`` names the
        exhausted resource) or ``REJECTED`` (fleet capacity).
        """
        if name in self.sessions:
            raise ValueError(f"session {name!r} already exists")
        self._inc("serve.sessions_submitted")
        self._inc("serve.quota.checks")
        denial = self.ledger.check_submit(tenant)
        if denial is not None:
            # Tenant over quota: bounce deterministically, with a reason
            # the client (and the replay harness) can assert on.
            self._inc("serve.quota.denied")
            self._inc("serve.sessions_throttled")
            self._event(
                EventKind.QUOTA, tenant=tenant, session=name, decision="throttled",
                reason=denial,
            )
            self._event(
                EventKind.SESSION, session=name, event="throttled", reason=denial
            )
            return self._stub(name, tenant, SessionState.THROTTLED, denial)
        self._inc("serve.quota.granted")
        if len(self._live) >= self.max_live and len(self._waiting) >= self.queue_limit:
            # Backpressure: bounce without building the execution state.
            self._inc("serve.sessions_rejected")
            self._event(EventKind.SESSION, session=name, event="rejected")
            return self._stub(name, tenant, SessionState.REJECTED, None)

        step_budget, block_budget = self.ledger.clamp_budgets(
            tenant, step_budget, block_budget
        )
        database = make_database(dataset, placement)
        engine = SWEngine(
            database,
            dataset.name,
            sample_fraction=sample_fraction,
            sample_seed=sample_seed,
        )
        if self.cache is not None:
            engine.attach_semantic_cache(self.cache)
        registry = None
        trace = SearchTrace()
        if self.metrics is not None:
            from ..obs import MetricsRegistry

            registry = MetricsRegistry()
        session = ExplorationSession(
            name,
            engine,
            query,
            config if config is not None else SearchConfig(alpha=1.0),
            trace=trace,
            registry=registry,
            step_budget=step_budget,
            block_budget=block_budget,
            tenant=tenant,
        )
        table = database.table(dataset.name)
        if self.cache is not None:
            session.binding = self.cache.binding(table, query.grid)
        else:
            session.binding = (table_signature(table), grid_signature(query.grid))
        self.sessions[name] = session
        self.pool_group.register(name, database.buffer(dataset.name))
        self.ledger.note_admitted(tenant)
        self._inc("serve.sessions_admitted")
        if len(self._live) < self.max_live:
            self._make_live(session)
        else:
            session.state = SessionState.WAITING
            self._waiting.append(session)
            self._event(EventKind.SESSION, session=name, event="waiting")
        self._gauges()
        return session

    @staticmethod
    def _stub(
        name: str, tenant: str, state: SessionState, reason: str | None
    ) -> ExplorationSession:
        """A terminal handle for a bounced submission (no execution state)."""
        session = ExplorationSession.__new__(ExplorationSession)
        session.name = name
        session.tenant = tenant
        session.state = state
        session.run = None
        session.throttle_reason = reason
        return session

    def _make_live(self, session: ExplorationSession) -> None:
        session.state = SessionState.LIVE
        self._live.append(session)
        if self.cache is not None:
            self.cache.pin(*session.binding)
        self._event(EventKind.SESSION, session=session.name, event="live")

    def admit_from_queue(self, policy: SchedulingPolicy | None = None) -> None:
        """Promote waiting sessions into free live slots (FIFO)."""
        while self._waiting and len(self._live) < self.max_live:
            session = self._waiting.pop(0)
            self._make_live(session)
            if policy is not None:
                policy.on_admit(session)
        self._gauges()

    # -- scheduler callbacks -------------------------------------------------------

    def live_sessions(self) -> list[ExplorationSession]:
        """Live sessions in admission order."""
        return list(self._live)

    def waiting_sessions(self) -> list[ExplorationSession]:
        """Queued sessions in arrival order."""
        return list(self._waiting)

    def note_slice(self, session: ExplorationSession, outcome: str) -> None:
        """Account one scheduler slice given to ``session``.

        Charges the slice's consumed steps/blocks to the owning tenant's
        ledger and, when the session's cost model prices scheduler
        bookkeeping (``serve_slice_overhead_ms`` > 0), advances the
        session's own simulated clock by that overhead.
        """
        self._ticks += 1
        self._inc("serve.slices")
        steps, blocks = session.drain_usage()
        self.ledger.charge(session.tenant, steps, blocks)
        overhead = session.database.cost_model.serve_slice_s()
        if overhead > 0.0:
            session.database.clock.advance(overhead)

    def park(self, session: ExplorationSession, mode: str) -> None:
        """Preempt an unfinished session between slices.

        ``"live"`` parks the search object as-is; ``"checkpoint"``
        round-trips it through the PR-4 capture/restore path.  Both are
        byte-equivalent; PREEMPT events record which was used.
        """
        self._inc("serve.parks")
        if mode == "checkpoint":
            session.park_checkpoint()
        self._event(
            EventKind.PREEMPT,
            session=session.name,
            mode=mode,
            steps=session.steps_taken,
        )
        self._inc("serve.resumes")  # it stays scheduled: park+resume pair

    def preempt_to_queue(
        self,
        victim: ExplorationSession,
        entrant: ExplorationSession,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        """Capacity preemption: checkpoint-park ``victim``, admit ``entrant``.

        Deadline scheduling uses this to give an urgent waiting session a
        slot.  The victim is always parked through the checkpoint path —
        a session losing its slot must be provably resumable — and goes
        to the *front* of the wait queue.
        """
        self._inc("serve.parks")
        self._inc("serve.preemptions")
        victim.park_checkpoint()
        self._live.remove(victim)
        victim.state = SessionState.WAITING
        self._waiting.insert(0, victim)
        if self.cache is not None:
            self.cache.unpin(*victim.binding)
        self._event(
            EventKind.PREEMPT,
            session=victim.name,
            mode="checkpoint",
            evicted_for=entrant.name,
        )
        self._waiting.remove(entrant)
        self._make_live(entrant)
        if policy is not None:
            policy.on_admit(entrant)
        self._gauges()

    def finish(self, session: ExplorationSession) -> None:
        """Release a finished session's slot and close its database.

        Every ended session passes through here — exhausted, budget
        stop, cancel, deadline — and only a search that takes its
        terminal step flushes by itself, so the close is what makes a
        budget-stopped session's cell installs durable.  Results, status
        and fingerprints read the session's Python objects, not the store.
        """
        if session in self._live:
            self._live.remove(session)
        if self.cache is not None:
            self.cache.unpin(*session.binding)
        self.pool_group.unregister(session.name)
        steps, blocks = session.drain_usage()
        self.ledger.charge(session.tenant, steps, blocks)
        self.ledger.note_finished(session.tenant)
        session.database.close()
        session.state = SessionState.DONE
        self._inc("serve.sessions_completed")
        self._event(
            EventKind.SESSION,
            session=session.name,
            event="completed",
            results=len(session.results),
            steps=session.steps_taken,
            interrupted=session.run.interrupted,
        )
        self._gauges()

    def close(self) -> None:
        """Shutdown: close the databases of sessions still live or waiting."""
        for session in self._live + self._waiting:
            session.database.close()

    # -- results ---------------------------------------------------------------------

    def merged_results(self) -> list[tuple[str, ResultWindow]]:
        """All sessions' results with cross-session duplicates removed.

        Two sessions exploring the same table and grid that report the
        same qualifying window (by canonical :meth:`Window.key` identity)
        contribute it once — attributed to the earliest discovery, ties
        broken by submission order.  Distinct tables or grids never
        collide.  Ordering is deterministic: by (table, grid) binding,
        then discovery time, then session name.
        """
        best: dict[tuple, tuple] = {}
        for order, session in enumerate(self.sessions.values()):
            if session.run is None:
                continue
            shape = session.query.grid.shape
            for result in session.results:
                key = session.binding + (result.window.key(shape),)
                claim = (result.time, order, session.name, result)
                if key not in best or claim[:2] < best[key][:2]:
                    best[key] = claim
        merged = [
            (claim[2], claim[3])
            for _key, claim in sorted(
                best.items(), key=lambda kv: (kv[0][:2], kv[1][0], kv[1][1])
            )
        ]
        return merged

    def summary(self) -> dict:
        """Fleet-level report: sessions, pools, cache."""
        return {
            "sessions": {
                name: {
                    "state": session.state.value,
                    "tenant": getattr(session, "tenant", "default"),
                    "results": 0 if session.run is None else len(session.results),
                    "steps": getattr(session, "steps_taken", 0),
                    "interrupted": bool(session.run.interrupted)
                    if session.run is not None
                    else None,
                }
                for name, session in sorted(self.sessions.items())
            },
            "tenants": self.ledger.report(),
            "pool_totals": self.pool_group.totals(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }


def serve_workload(
    manager: SessionManager,
    policy: SchedulingPolicy | str = "rr",
    slice_steps: int = 16,
    park: str = "live",
    seed: int = 0,
) -> QueryScheduler:
    """Build a scheduler over already-submitted sessions and run it."""
    if isinstance(policy, str):
        weights = {t: manager.ledger.weight(t) for t in manager.ledger.tenants()}
        policy = make_policy(policy, seed, weights=weights)
    for session in manager.live_sessions():
        policy.on_admit(session)
    scheduler = QueryScheduler(manager, policy, slice_steps=slice_steps, park=park)
    scheduler.run()
    return scheduler
