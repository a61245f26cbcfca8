"""Deterministic fault injection for the distributed layer.

The paper's Section 5 protocol assumes cooperating workers that never
fail and a network that delivers every message exactly once.  This
module supplies the *adversary* used to prove the fault-tolerant
protocol correct: a seeded, schedule-driven :class:`FaultPlan` describing
worker crashes, message drops/duplicates/delays and per-worker disk
slowdowns, and the :class:`FaultInjector` that executes it inside the
discrete-event simulation.

Everything is deterministic: the injector draws from one
``numpy`` generator seeded by the plan, and draws happen in simulation
order (one draw sequence per message send), so the same plan over the
same workload produces bit-identical fault schedules.  That determinism
is what makes the chaos suite's headline invariant testable at all:

    under any *recoverable* plan the merged result **set** equals the
    fault-free run's; under an unrecoverable plan the run degrades into
    a :class:`~repro.faults.Degradation` that names exactly what was lost.

The plan arithmetic (validation, the roll→kind pick, the tally) is the
shared kernel's, :mod:`repro.faults`; this module adds the message-fault
vocabulary and what only a cluster has: crash and partition schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..faults import FaultTally, FaultVocabulary

__all__ = [
    "COORDINATOR",
    "CrashStorm",
    "FailureDomain",
    "FaultInjector",
    "FaultPlan",
    "LinkPartition",
    "WorkerCrash",
]

#: Sentinel id for the coordinator end of a :class:`LinkPartition`.
COORDINATOR = -1


@dataclass(frozen=True)
class WorkerCrash:
    """Kill one worker at a simulated time (fail-stop, no recovery)."""

    worker: int
    time_s: float

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigError(f"crash worker id must be >= 0, got {self.worker}")
        if self.time_s < 0:
            raise ConfigError(f"crash time must be >= 0, got {self.time_s}")


@dataclass(frozen=True)
class CrashStorm:
    """A burst of fail-stop crashes: ``victims[i]`` dies at
    ``start_s + i * spacing_s``.

    Victims are fixed at plan-construction time (not drawn during the
    run), so the storm schedule is a pure function of the plan and the
    injector's message-fault draw sequence is untouched by it.
    """

    victims: tuple[int, ...]
    start_s: float
    spacing_s: float = 0.0005

    def __post_init__(self) -> None:
        if not self.victims:
            raise ConfigError("crash storm needs at least one victim")
        if len(set(self.victims)) != len(self.victims):
            raise ConfigError(f"crash storm victims must be distinct: {self.victims}")
        if any(w < 0 for w in self.victims):
            raise ConfigError(f"crash storm victim ids must be >= 0: {self.victims}")
        if self.start_s < 0:
            raise ConfigError(f"storm start must be >= 0, got {self.start_s}")
        if self.spacing_s < 0:
            raise ConfigError(f"storm spacing must be >= 0, got {self.spacing_s}")


@dataclass(frozen=True)
class FailureDomain:
    """A correlated failure group (one rack / one power feed).

    ``members`` fail together at ``fail_at_s`` when it is set; with
    ``fail_at_s=None`` the domain is pure metadata naming a correlation
    group (e.g. the rack a :class:`CrashStorm` took out).
    """

    members: tuple[int, ...]
    fail_at_s: float | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigError("failure domain needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ConfigError(f"domain members must be distinct: {self.members}")
        if any(w < 0 for w in self.members):
            raise ConfigError(f"domain member ids must be >= 0: {self.members}")
        if self.fail_at_s is not None and self.fail_at_s < 0:
            raise ConfigError(f"domain fail time must be >= 0, got {self.fail_at_s}")


@dataclass(frozen=True)
class LinkPartition:
    """Cut one link for ``[start_s, heal_s)`` simulated seconds.

    ``peer`` is another worker id or :data:`COORDINATOR`.  Messages on a
    cut link are silently dropped (the retransmission layer re-sends
    them after heal); a worker whose *every* path to the coordinator —
    direct or relayed through a live peer — is cut for longer than the
    heartbeat timeout gets declared dead and fenced.  The heal schedule
    is part of the plan, so replays are deterministic.
    """

    worker: int
    start_s: float
    heal_s: float
    peer: int = COORDINATOR

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ConfigError(f"partition worker id must be >= 0, got {self.worker}")
        if self.peer < COORDINATOR:
            raise ConfigError(f"partition peer must be >= {COORDINATOR}, got {self.peer}")
        if self.peer == self.worker:
            raise ConfigError("partition cannot cut a worker from itself")
        if self.start_s < 0:
            raise ConfigError(f"partition start must be >= 0, got {self.start_s}")
        if self.heal_s <= self.start_s:
            raise ConfigError(
                f"partition must heal after it starts: "
                f"[{self.start_s}, {self.heal_s})"
            )

    def cuts(self, a: int, b: int, now_s: float) -> bool:
        """Whether this partition severs the ``a``<->``b`` link at ``now_s``."""
        return {a, b} == {self.worker, self.peer} and (
            self.start_s <= now_s < self.heal_s
        )


@dataclass(frozen=True)
class FaultPlan(FaultVocabulary):
    """A seeded schedule of everything that will go wrong.

    ``drop_prob`` / ``duplicate_prob`` / ``delay_prob`` apply per message
    send; a delayed message arrives after an extra latency drawn
    uniformly from ``[0, max_extra_delay_s]``.  ``disk_slowdowns`` maps a
    worker id to a seek/transfer multiplier (a straggler's disk).
    Crashes are fail-stop: the worker never steps at or after its crash
    time, its inbox is discarded and every later message to it is lost.
    """

    seed: int = 0
    crashes: tuple[WorkerCrash, ...] = ()
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    delay_prob: float = 0.0
    max_extra_delay_s: float = 0.01
    disk_slowdowns: tuple[tuple[int, float], ...] = ()
    storms: tuple[CrashStorm, ...] = ()
    domains: tuple[FailureDomain, ...] = ()
    partitions: tuple[LinkPartition, ...] = ()

    LABEL = "drop/duplicate/delay"
    # Kinds are named as ``DistributedReport.faults_injected`` spells them.
    VOCABULARY = {
        "drops": "drop_prob",
        "duplicates": "duplicate_prob",
        "delays": "delay_prob",
    }

    def __post_init__(self) -> None:
        self.validate_vocabulary()
        if self.max_extra_delay_s < 0:
            raise ConfigError(
                f"max_extra_delay_s must be >= 0, got {self.max_extra_delay_s}"
            )
        for worker, factor in self.disk_slowdowns:
            if worker < 0 or factor < 1.0:
                raise ConfigError(
                    f"disk slowdown needs worker >= 0 and factor >= 1, "
                    f"got ({worker}, {factor})"
                )

    def crash_times(self) -> dict[int, float]:
        """Earliest scheduled crash time per worker, from every source.

        Merges explicit :class:`WorkerCrash` entries, :class:`CrashStorm`
        schedules and timed :class:`FailureDomain` failures; a worker
        named by several sources dies at the earliest of its times.
        """
        times: dict[int, float] = {}

        def note(worker: int, time_s: float) -> None:
            if worker not in times or time_s < times[worker]:
                times[worker] = time_s

        for crash in self.crashes:
            note(crash.worker, crash.time_s)
        for storm in self.storms:
            for i, victim in enumerate(storm.victims):
                note(victim, storm.start_s + i * storm.spacing_s)
        for domain in self.domains:
            if domain.fail_at_s is not None:
                for member in domain.members:
                    note(member, domain.fail_at_s)
        return times

    def link_open(self, a: int, b: int, now_s: float) -> bool:
        """Whether the ``a``<->``b`` link is up at ``now_s``.

        Either end may be :data:`COORDINATOR`.  Pure plan lookup — safe
        to call from liveness checks without disturbing fault draws.
        """
        return not any(p.cuts(a, b, now_s) for p in self.partitions)

    def disk_factor(self, worker: int) -> float:
        """Seek/transfer multiplier for a worker's disk (1.0 = nominal)."""
        factor = 1.0
        for wid, f in self.disk_slowdowns:
            if wid == worker:
                factor = max(factor, f)
        return factor

    @classmethod
    def chaos(
        cls,
        seed: int,
        num_workers: int,
        crash_at_s: float | None = None,
        message_fault_rate: float = 0.3,
    ) -> "FaultPlan":
        """A randomized-but-seeded plan mixing every fault kind.

        One non-coordinating worker crashes at ``crash_at_s`` (when
        given), message faults split ``message_fault_rate`` evenly
        between drops, duplicates and delays, and one surviving worker
        gets a slow disk.  Recoverable whenever ``num_workers >= 2``.
        """
        rng = np.random.default_rng(seed)
        crashes: tuple[WorkerCrash, ...] = ()
        victim = None
        if crash_at_s is not None and num_workers >= 2:
            victim = int(rng.integers(num_workers))
            crashes = (WorkerCrash(victim, crash_at_s),)
        candidates = [w for w in range(num_workers) if w != victim]
        slowdowns: tuple[tuple[int, float], ...] = ()
        if candidates:
            straggler = int(rng.choice(candidates))
            slowdowns = ((straggler, float(rng.uniform(1.5, 3.0))),)
        return cls(
            seed=seed,
            crashes=crashes,
            **cls.even_split(message_fault_rate),
            max_extra_delay_s=0.02,
            disk_slowdowns=slowdowns,
        )

    @classmethod
    def chaos_scale(
        cls,
        seed: int,
        num_workers: int,
        crash_at_s: float,
        storm_fraction: float = 0.125,
        message_fault_rate: float = 0.12,
        partition: bool = True,
    ) -> "FaultPlan":
        """A cluster-scale plan: rack storm + healing partition + lossy net.

        One contiguous rack of ``max(1, num_workers * storm_fraction)``
        workers (recorded as a :class:`FailureDomain`) is taken out by a
        :class:`CrashStorm` around ``crash_at_s``; one surviving worker
        loses its coordinator link *and* one peer link for a window that
        heals before the heartbeat timeout (so it is degraded, not
        fenced); message faults run at ``message_fault_rate``.  The plan
        is recoverable for any ``num_workers >= 2`` and a pure function
        of ``(seed, num_workers)``.
        """
        if num_workers < 2:
            raise ConfigError(
                f"chaos_scale needs >= 2 workers, got {num_workers}"
            )
        if crash_at_s <= 0:
            raise ConfigError(f"crash_at_s must be > 0, got {crash_at_s}")
        rng = np.random.default_rng([seed, num_workers])
        count = min(max(1, round(num_workers * storm_fraction)), num_workers - 1)
        rack_lo = int(rng.integers(0, num_workers - count + 1))
        victims = tuple(range(rack_lo, rack_lo + count))
        storm = CrashStorm(
            victims=victims,
            start_s=crash_at_s,
            spacing_s=crash_at_s * 0.02 / max(1, count),
        )
        domains = (FailureDomain(members=victims),)
        partitions: tuple[LinkPartition, ...] = ()
        survivors = [w for w in range(num_workers) if w not in victims]
        if partition and survivors:
            target = int(survivors[int(rng.integers(len(survivors)))])
            start = crash_at_s * 0.25
            heal = start + float(rng.uniform(0.012, 0.025))
            partitions = (LinkPartition(target, start, heal),)
            # Cut an *adjacent* peer link when one survives: boundary
            # cells are the only cross-worker traffic, so only an
            # adjacent cut actually severs the data plane.
            peers = [w for w in (target - 1, target + 1) if w in survivors]
            if not peers:
                peers = [w for w in survivors if w != target]
            if peers:
                peer = int(peers[int(rng.integers(len(peers)))])
                partitions += (LinkPartition(target, start, heal, peer=peer),)
        straggler = int(survivors[int(rng.integers(len(survivors)))])
        return cls(
            seed=seed,
            storms=(storm,),
            domains=domains,
            partitions=partitions,
            **cls.even_split(message_fault_rate),
            max_extra_delay_s=0.02,
            disk_slowdowns=((straggler, float(rng.uniform(1.5, 2.5))),),
        )


class FaultInjector(FaultTally):
    """Executes a :class:`FaultPlan` deterministically.

    The injector owns one seeded generator and is consulted once per
    message send (:meth:`deliveries`); crash times, link state and disk
    factors are pure reads of ``plan`` and draw nothing.  The per-kind
    tally feeds ``DistributedReport.faults_injected``.
    """

    def __init__(self, plan: FaultPlan, num_workers: int | None = None) -> None:
        super().__init__(plan.VOCABULARY)
        self.plan = plan
        if num_workers is not None:
            self._validate_ids(plan, num_workers)
        self._rng = np.random.default_rng(plan.seed)
        self._quiet = plan.total_prob == 0.0

    @staticmethod
    def _validate_ids(plan: FaultPlan, num_workers: int) -> None:
        """Reject plans naming worker ids outside the actual cluster."""
        named: set[int] = set(plan.crash_times())
        for domain in plan.domains:
            named.update(domain.members)
        for part in plan.partitions:
            named.add(part.worker)
            if part.peer != COORDINATOR:
                named.add(part.peer)
        for worker, _ in plan.disk_slowdowns:
            named.add(worker)
        bad = sorted(w for w in named if w >= num_workers)
        if bad:
            raise ConfigError(
                f"fault plan names workers {bad} but the cluster has "
                f"only {num_workers}"
            )

    def deliveries(self) -> list[float]:
        """Extra-latency list for one send: one entry per delivered copy.

        ``[]`` means the message is dropped; two entries mean it is
        duplicated; a nonzero entry delays that copy.  Exactly one
        uniform draw happens per send (plus one per extra effect), so
        the sequence is a pure function of the plan seed and the send
        order.
        """
        if self._quiet:
            return [0.0]
        kind = self.plan.pick(float(self._rng.random()))
        if kind is None:
            return [0.0]
        self.injected[kind] += 1
        if kind == "drops":
            return []
        extra = float(self._rng.uniform(0.0, self.plan.max_extra_delay_s))
        return [0.0, extra] if kind == "duplicates" else [extra]
