"""One user's exploration, wrapped for cooperative scheduling.

An :class:`ExplorationSession` owns everything one query needs — its own
:class:`~repro.storage.database.Database` (and therefore its own
simulated clock, disk and buffer pool), engine, prepared search, trace
and metrics registry.  That per-session isolation is the serving layer's
determinism backbone: a session's clock advances only while *it* holds
the scheduler's slice, so its timeline is independent of how runs are
interleaved; the only cross-session channel is the shared
:class:`~repro.serve.cache.SemanticCache`, whose entries are exact.

Sessions advance in slices of search steps and park between them —
either "live" (the search object simply waits; cheap, the default) or
"checkpoint" (every preemption round-trips the full PR-4
``checkpoint_state`` / ``restore_state`` capture, proving the parked
state is serializable).  Both modes are byte-equivalent by construction.
"""

from __future__ import annotations

from enum import Enum

from ..core.engine import SWEngine
from ..core.query import ResultWindow, SWQuery
from ..core.search import SearchConfig
from ..errors import ReproError
from ..faults import Degradation, outcome_of

__all__ = ["SessionState", "ExplorationSession"]


class SessionState(Enum):
    """Lifecycle of a session inside the manager.

    ``REJECTED`` is the fleet-capacity bounce (live slots and wait queue
    both full); ``THROTTLED`` is the per-tenant quota bounce.  Both are
    terminal stub states — the session never acquired execution state.
    """

    WAITING = "waiting"
    LIVE = "live"
    DONE = "done"
    REJECTED = "rejected"
    THROTTLED = "throttled"


class ExplorationSession:
    """A prepared search plus per-session budgets and bookkeeping.

    Parameters
    ----------
    name:
        Unique session id (scheduling tie-breaks sort on it).
    engine / query / config:
        The prepared execution; the engine's database must be private to
        this session.
    trace / registry:
        Per-session observability (namespaced by session, never shared).
    step_budget:
        Max search steps (explorations) over the session's lifetime;
        exceeding it interrupts the run with reason ``"step_budget"``.
    block_budget:
        Max disk blocks read; checked after each step (the final read may
        overshoot), interrupting with reason ``"block_budget"``.
    tenant:
        The owning tenant (quota accounting and fair-share scheduling
        key); sessions without multi-tenancy share ``"default"``.
    """

    def __init__(
        self,
        name: str,
        engine: SWEngine,
        query: SWQuery,
        config: SearchConfig,
        trace=None,
        registry=None,
        step_budget: int | None = None,
        block_budget: int | None = None,
        tenant: str = "default",
    ) -> None:
        if step_budget is not None and step_budget < 1:
            raise ValueError(f"step_budget must be >= 1, got {step_budget}")
        if block_budget is not None and block_budget < 1:
            raise ValueError(f"block_budget must be >= 1, got {block_budget}")
        self.name = name
        self.engine = engine
        self.query = query
        self.config = config
        self.trace = trace
        self.registry = registry
        self.step_budget = step_budget
        self.block_budget = block_budget
        self.tenant = tenant
        # Set on THROTTLED stubs; None for admitted sessions.
        self.throttle_reason: str | None = None
        # What the session could not deliver: the error that aborted it.
        self.degradations: tuple[Degradation, ...] = ()

        self.search = engine.prepare(query, config, trace=trace, metrics=registry)
        self.run = self.search.new_run()
        # (table signature, grid signature); set by the manager on admit.
        self.binding: tuple[str, str] | None = None
        self.state = SessionState.WAITING
        self.steps_taken = 0
        self.slices_taken = 0
        self.parks = 0
        self._begun = False
        # Usage already charged to the tenant ledger (see drain_usage).
        self._charged_steps = 0
        self._charged_blocks = 0

    # -- identity ---------------------------------------------------------------

    @property
    def database(self):
        """The session-private database (own clock, disk, buffer)."""
        return self.engine.database

    @property
    def results(self) -> list[ResultWindow]:
        """Qualifying windows found so far (empty for rejected handles)."""
        return [] if self.run is None else self.run.results

    @property
    def finished(self) -> bool:
        """Whether the search ended (exhausted, interrupted, or budgeted)."""
        return self.state in (
            SessionState.DONE,
            SessionState.REJECTED,
            SessionState.THROTTLED,
        )

    @property
    def outcome(self) -> str | None:
        """``complete`` or ``aborted`` once an admitted session has ended.

        The one outcome rule (:func:`~repro.faults.outcome_of`): a run
        the session stopped — a budget, a lifecycle limit, an error its
        slice raised (:meth:`abort`) — is ``aborted``.  ``None`` while
        the session runs and for rejected/throttled stubs.
        """
        if self.run is None or self.state is not SessionState.DONE:
            return None
        return outcome_of(False, self.run.interrupt_reason, self.degradations)

    def results_since(self, index: int) -> list[ResultWindow]:
        """Results discovered at or after ``index`` (incremental consumption).

        The protocol's ``results`` op streams a session's qualifying
        windows to the client in pages; ``index`` is the client's cursor
        into the monotonically growing result list.
        """
        if index < 0:
            raise ValueError(f"results index must be >= 0, got {index}")
        return self.results[index:]

    def drain_usage(self) -> tuple[int, int]:
        """Steps/blocks consumed since the last drain (tenant accounting)."""
        if self.run is None:
            return 0, 0
        steps = self.steps_taken - self._charged_steps
        blocks_total = self.search.data.blocks_read_cumulative
        blocks = blocks_total - self._charged_blocks
        self._charged_steps = self.steps_taken
        self._charged_blocks = blocks_total
        return steps, blocks

    @property
    def deadline(self) -> float | None:
        """The absolute simulated-clock deadline, if configured."""
        return self.config.deadline_s

    def frontier_priority(self):
        """Best frontier utility, or ``None`` when the queue is empty."""
        return self.search.queue.peek_priority()

    # -- driving ----------------------------------------------------------------

    def slice(self, max_steps: int) -> str:
        """Advance up to ``max_steps`` search steps; returns the outcome.

        * ``"yield"`` — the slice was used up, more work remains;
        * ``"done"`` — the search exhausted its frontier;
        * ``"interrupted"`` — a lifecycle limit (deadline, cancel, ...)
          or a session budget fired; the run record carries the reason.

        A :class:`~repro.errors.ReproError` raised by the search
        propagates; the scheduler turns it into :meth:`abort` (slice
        outcome ``"aborted"``).
        """
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if not self._begun:
            self.search.begin()
            self._begun = True
        self.slices_taken += 1
        exceeded = self._budget_exceeded()
        if exceeded is not None:
            self._interrupt(exceeded)
            return "interrupted"
        for _ in range(max_steps):
            status, _result = self.search.step(self.run)
            if status in ("step", "result"):
                self.steps_taken += 1
                exceeded = self._budget_exceeded()
                if exceeded is not None:
                    self._interrupt(exceeded)
                    return "interrupted"
                continue
            if status == "done":
                self.state = SessionState.DONE
                return "done"
            if status == "interrupted":
                self.state = SessionState.DONE
                return "interrupted"
        return "yield"

    def abort(self, error: ReproError) -> None:
        """End the session on an error one of its slices raised.

        The run keeps the results found so far and stops with reason
        ``error:<class>``; a ``serve`` :class:`~repro.faults.Degradation`
        carries the error's message.  The scheduler calls this so one
        session's failing store ends that session only.
        """
        self.degradations = (
            Degradation("serve", f"{type(error).__name__}: {error}"),
        )
        self._interrupt(f"error:{type(error).__name__}")

    def _budget_exceeded(self) -> str | None:
        if self.step_budget is not None and self.steps_taken >= self.step_budget:
            return "step_budget"
        if (
            self.block_budget is not None
            and self.search.data.blocks_read_cumulative > self.block_budget
        ):
            return "block_budget"
        return None

    def _interrupt(self, reason: str) -> None:
        run = self.run
        run.interrupted = True
        run.interrupt_reason = reason
        run.completion_time_s = (
            self.database.clock.now - self.search.start_time
        )
        self.state = SessionState.DONE

    def cancel(self) -> None:
        """Cooperatively cancel; the next slice interrupts the run.

        A no-op on finished sessions and on rejected/throttled stubs,
        which never started a search.
        """
        if self.run is None or self.finished:
            return
        self.search.cancel()

    # -- parking -----------------------------------------------------------------

    def park_checkpoint(self) -> None:
        """Round-trip the session through the PR-4 checkpoint path.

        Captures the full search state and restores it in place: the
        frontier, caches, storage substrate, trace and metrics all pass
        through the serialization layer, so a parked session is provably
        resumable from bytes.  The restore drops the capture's transient
        CHECKPOINT trace event and reloads the metrics snapshot, leaving
        the session byte-identical to one parked "live".
        """
        state = self.search.checkpoint_state()
        self.search.restore_state(state)
        # Clear the restored flag: this session already seeded.
        self.search.begin()
        self.parks += 1
