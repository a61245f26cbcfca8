"""Cooperative time-slicing of exploration sessions.

The scheduler multiplexes many sessions over one process by handing out
slices of search steps — the quantum the PR-4 lifecycle machinery made
safe to stop at.  Everything is deterministic: policies break ties on
session names, the round-robin order is a pure function of its seed, and
a preempted session parks either "live" or through the checkpoint path,
both byte-equivalent.  Fixing the seed, policy and session set therefore
fixes the entire interleaving.

Policies (pluggable via :class:`SchedulingPolicy`):

* :class:`RoundRobinPolicy` — seeded cyclic order; fair by slice count.
* :class:`UtilityPolicy` — utility-weighted fair share: the session
  whose frontier currently promises the highest-utility window runs
  next, a cross-session extension of the paper's greedy Algorithm 1.
* :class:`DeadlinePolicy` — earliest deadline first over
  ``SearchConfig.deadline_s``, with capacity preemption: an urgent
  waiting session may evict (checkpoint-park) the live session holding
  the latest deadline.
* :class:`WeightedFairPolicy` — stride-scheduled weighted fair queueing
  *between tenants*: each slice charges the served tenant's virtual
  time at rate ``1/weight``, so a premium tenant's sessions receive
  slices proportionally to its tier weight while a free tenant is never
  starved outright.
"""

from __future__ import annotations

import random

from ..errors import ReproError
from .quota import QuotaLedger
from .session import ExplorationSession

__all__ = [
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "UtilityPolicy",
    "DeadlinePolicy",
    "WeightedFairPolicy",
    "QueryScheduler",
    "make_policy",
]

_INF = float("inf")


class SchedulingPolicy:
    """Strategy interface: pick the next session to receive a slice."""

    name = "base"

    def on_admit(self, session: ExplorationSession) -> None:
        """Hook: a session became live (round-robin assigns its token)."""

    def pick(self, live: list[ExplorationSession]) -> ExplorationSession:
        """Choose one of the (non-empty) live sessions."""
        raise NotImplementedError

    def preempt_victim(
        self,
        live: list[ExplorationSession],
        waiting: list[ExplorationSession],
    ) -> tuple[ExplorationSession, ExplorationSession] | None:
        """Optional capacity preemption: ``(victim, entrant)`` or ``None``."""
        return None


class RoundRobinPolicy(SchedulingPolicy):
    """Seeded cyclic order: every live session gets every k-th slice.

    Each admitted session draws a token from the policy's PRNG; live
    sessions are cycled in ``(token, name)`` order.  The seed thus picks
    one fixed interleaving out of the n! possible ones — replaying with
    the same seed replays the schedule exactly.
    """

    name = "rr"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._tokens: dict[str, float] = {}
        self._last: tuple[float, str] | None = None

    def _key(self, session: ExplorationSession) -> tuple[float, str]:
        return (self._tokens.get(session.name, 0.0), session.name)

    def on_admit(self, session: ExplorationSession) -> None:
        if session.name not in self._tokens:
            self._tokens[session.name] = self._rng.random()

    def pick(self, live: list[ExplorationSession]) -> ExplorationSession:
        ordered = sorted(live, key=self._key)
        chosen = ordered[0]
        if self._last is not None:
            for session in ordered:
                if self._key(session) > self._last:
                    chosen = session
                    break
        self._last = self._key(chosen)
        return chosen


class UtilityPolicy(SchedulingPolicy):
    """Utility-weighted fair share: run the most promising frontier.

    Sessions are ranked by the utility of the best window waiting in
    their frontier (the same priority Algorithm 1 pops greedily inside
    one query); empty frontiers rank last, names break ties.  Starvation
    is bounded by the utility function itself: a session's best utility
    only rises as others read data it can share.
    """

    name = "utility"

    def pick(self, live: list[ExplorationSession]) -> ExplorationSession:
        def rank(session: ExplorationSession):
            priority = session.frontier_priority()
            # (has-work, priority) so empty frontiers lose; max wins.  The
            # sentinel keeps the tuple comparable when both are empty.
            key = (1, priority) if priority is not None else (0, 0.0)
            return key, session.name

        best = live[0]
        best_rank = rank(best)
        for session in live[1:]:
            r = rank(session)
            # Higher priority wins; on exact priority ties the *earlier*
            # name wins (deterministic, admission-friendly).
            if r[0] > best_rank[0] or (r[0] == best_rank[0] and r[1] < best_rank[1]):
                best, best_rank = session, r
        return best


class DeadlinePolicy(SchedulingPolicy):
    """Earliest deadline first over ``SearchConfig.deadline_s``.

    Sessions without a deadline rank last (best effort).  Capacity
    preemption: when every slot is busy and a waiting session's deadline
    beats the latest live deadline, that live session is parked through
    the checkpoint path and re-queued, and the urgent session takes its
    slot.
    """

    name = "deadline"

    @staticmethod
    def _key(session: ExplorationSession) -> tuple[float, str]:
        deadline = session.deadline
        return (_INF if deadline is None else deadline, session.name)

    def pick(self, live: list[ExplorationSession]) -> ExplorationSession:
        return min(live, key=self._key)

    def preempt_victim(
        self,
        live: list[ExplorationSession],
        waiting: list[ExplorationSession],
    ) -> tuple[ExplorationSession, ExplorationSession] | None:
        if not live or not waiting:
            return None
        entrant = min(waiting, key=self._key)
        if entrant.deadline is None:
            return None
        victim = max(live, key=self._key)
        if victim.deadline is None or victim.deadline > entrant.deadline:
            return victim, entrant
        return None


class WeightedFairPolicy(SchedulingPolicy):
    """Weighted fair queueing between tenants (stride scheduling).

    Every live session belongs to a tenant carrying a fair-share weight,
    read from the quota ledger (:meth:`~repro.serve.quota.QuotaLedger.weight`:
    the tenant's quota, else the ledger's default quota).  Picking
    a tenant's session advances that tenant's *virtual time* by
    ``1/weight``; the runnable tenant with the lowest virtual time runs
    next.  Over any interval where two tenants stay runnable, their
    slice counts converge to the ratio of their weights — the classic
    stride-scheduling guarantee — and no runnable tenant is starved.

    Everything is deterministic: virtual times are exact arithmetic on
    submission-independent weights, ties break on tenant then session
    name, and a tenant joining late starts at the minimum virtual time
    among currently-runnable tenants (fair from now on, no back credit).

    Within one tenant, sessions round-robin by slices already taken
    (then name) so a tenant's own sessions share its allocation evenly.
    """

    name = "wfq"

    def __init__(self, ledger: QuotaLedger | None = None) -> None:
        self.ledger = ledger if ledger is not None else QuotaLedger()
        self._vtime: dict[str, float] = {}

    def weight_of(self, tenant: str) -> float:
        """The tenant's fair-share weight, as the ledger has it."""
        return self.ledger.weight(tenant)

    def on_admit(self, session: ExplorationSession) -> None:
        tenant = session.tenant
        if tenant not in self._vtime:
            self._vtime[tenant] = min(self._vtime.values(), default=0.0)

    def pick(self, live: list[ExplorationSession]) -> ExplorationSession:
        tenants: dict[str, list[ExplorationSession]] = {}
        for session in live:
            tenants.setdefault(session.tenant, []).append(session)
        chosen_tenant = min(
            tenants, key=lambda t: (self._vtime.get(t, 0.0), t)
        )
        self._vtime[chosen_tenant] = self._vtime.get(chosen_tenant, 0.0) + (
            1.0 / self.weight_of(chosen_tenant)
        )
        return min(
            tenants[chosen_tenant], key=lambda s: (s.slices_taken, s.name)
        )


def make_policy(
    name: str, seed: int = 0, ledger: QuotaLedger | None = None
) -> SchedulingPolicy:
    """Policy factory for the CLI, server and benchmarks."""
    if name == "rr":
        return RoundRobinPolicy(seed)
    if name == "utility":
        return UtilityPolicy()
    if name == "deadline":
        return DeadlinePolicy()
    if name == "wfq":
        return WeightedFairPolicy(ledger)
    raise ValueError(f"unknown scheduling policy {name!r}")


class QueryScheduler:
    """Drives a :class:`~repro.serve.manager.SessionManager` to completion.

    Each :meth:`tick` gives one policy-chosen live session one slice of
    ``slice_steps`` search steps, then parks it (mode ``"live"`` or
    ``"checkpoint"``) if other sessions are runnable.  A
    :class:`~repro.errors.ReproError` out of the slice ends that session
    (slice outcome ``"aborted"``, see
    :meth:`~repro.serve.session.ExplorationSession.abort`); any other
    exception is a bug and propagates.  The manager owns
    admission, slot accounting and observability; the scheduler owns
    only the picking loop.
    """

    def __init__(
        self,
        manager,
        policy: SchedulingPolicy | None = None,
        slice_steps: int = 16,
        park: str = "live",
    ) -> None:
        if slice_steps < 1:
            raise ValueError(f"slice_steps must be >= 1, got {slice_steps}")
        if park not in ("live", "checkpoint"):
            raise ValueError(f"park must be 'live' or 'checkpoint', got {park!r}")
        self.manager = manager
        self.policy = policy if policy is not None else RoundRobinPolicy(0)
        self.slice_steps = slice_steps
        self.park = park
        # (session name, outcome) of the most recent tick — the front
        # door journals this so a replay can cross-check its decisions.
        self.last_slice: tuple[str, str] | None = None

    def tick(self) -> bool:
        """Run one slice; returns ``False`` when no session remains."""
        manager = self.manager
        manager.admit_from_queue(self.policy)
        live = manager.live_sessions()
        if not live:
            self.last_slice = None
            return False
        swap = self.policy.preempt_victim(live, manager.waiting_sessions())
        if swap is not None:
            victim, entrant = swap
            manager.preempt_to_queue(victim, entrant, self.policy)
            live = manager.live_sessions()
        session = self.policy.pick(live)
        try:
            outcome = session.slice(self.slice_steps)
        except ReproError as error:
            # One session's failing store ends that session, not the loop.
            session.abort(error)
            outcome = "aborted"
        self.last_slice = (session.name, outcome)
        manager.note_slice(session, outcome)
        if outcome == "yield":
            manager.park(session, self.park)
        else:
            manager.finish(session)
        return True

    def run(self) -> None:
        """Tick until every admitted session has finished."""
        while self.tick():
            pass
