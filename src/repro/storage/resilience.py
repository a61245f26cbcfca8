"""Resilient real-backend I/O: fault injection, retry, breaker, fallback.

The paper's deployment ran Semantic Windows against a live PostgreSQL
instance, where queries time out, locks contend, connections drop and
writes tear.  The simulator path already carries a chaos-tested
bounded-degradation contract (distributed faults, storage corruption);
this module extends the same *degrade, never raise* discipline to the
:class:`~repro.storage.backend.StorageBackend` seam:

* a seeded :class:`BackendFaultPlan` / :class:`BackendFaultInjector`
  pair (a vocabulary over the shared kernel, :mod:`repro.faults`)
  injects the real-backend fault taxonomy — transient errors,
  ``SQLITE_BUSY``-style lock contention, slow-query stragglers,
  connection drops, and torn install flushes — **pure in**
  ``(seed, op_index)``: the fault decision for the *i*-th guarded
  attempt is a function of the plan seed and *i* alone, so any
  ``(seed, plan)`` replay is byte-deterministic;
* a :class:`ResilientBackend` wrapper retries failed calls with capped
  exponential backoff charged to *simulated* time
  (:meth:`~repro.costs.CostModel.backend_retry_s`), honoring
  ``SearchConfig`` deadlines and cooperative cancellation;
* a per-backend :class:`CircuitBreaker` (closed → open → half-open,
  deterministic time-based probe schedule) short-circuits a failing
  backend; while open — and whenever retries are exhausted — reads are
  served from an in-process :class:`SimulatorBackend` **mirror** that is
  byte-identical to the real store by the differential contract, so a
  degraded run still returns the exact result set;
* every fallback or primary-write miss is surfaced as a ``backend``
  :class:`~repro.faults.Degradation` on the execution report (outcome
  ``degraded``), never as an exception.

Installed-cell dedup counts are always taken from the mirror: both
stores dedup identically when healthy, and the mirror stays complete
through primary outages, so the ``(installed, deduped)`` accounting —
and therefore every downstream counter — matches the fault-free golden
run whatever the fault plan did.

Counters land under ``storage.backend.*`` and are cross-checked by
:class:`~repro.obs.audit.InvariantAuditor` identities; retries, breaker
transitions and fallbacks are traced as ``BACKEND_RETRY`` / ``BREAKER``
/ ``FALLBACK`` events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..costs import CostModel, DEFAULT_COST_MODEL
from ..errors import BackendError, ConfigError
from ..faults import Degradation, FaultTally, FaultVocabulary, event_kind
from .backend import SimulatorBackend, StorageBackend
from .pages import BlockLayout
from .table import HeapTable

__all__ = [
    "BACKEND_FAULT_KINDS",
    "BackendFaultPlan",
    "BackendFaultInjector",
    "ResilienceConfig",
    "CircuitBreaker",
    "ResilientBackend",
    "ResilientTable",
]

#: Fault taxonomy of a real storage backend.  ``transient`` is a generic
#: retryable error (query timeout); ``busy`` is lock contention
#: (``SQLITE_BUSY``); ``slow`` is a straggler — the call *succeeds* after
#: extra simulated latency; ``disconnect`` is a dropped connection;
#: ``torn_install`` is an install op (``install_cells`` or
#: ``flush_installs``) that fails mid-write: like every drawn fault the
#: attempt fails without calling the store, and because a flush is one
#: transaction the retry writes the whole batch (read operations degrade
#: it to ``transient``).
BACKEND_FAULT_KINDS = ("transient", "busy", "slow", "disconnect", "torn_install")


@dataclass(frozen=True)
class BackendFaultPlan(FaultVocabulary):
    """A seeded schedule of storage-backend faults.

    Per-attempt probabilities for each fault kind, plus a targeted
    ``scheduled`` list of ``(op_index, kind)`` entries that override the
    random draw (what the deterministic unit tests use).  The fault for
    attempt *i* is **pure in** ``(seed, i)`` — see :meth:`fault_at` —
    the distributed ``FaultPlan``'s arithmetic, but with per-index
    generators instead of one sequential stream, so the decision is
    replayable without consuming shared RNG state.

    ``slow_extra_ms`` is the extra simulated latency a ``slow`` fault
    charges (the attempt still succeeds).
    """

    seed: int = 0
    transient_prob: float = 0.0
    busy_prob: float = 0.0
    slow_prob: float = 0.0
    disconnect_prob: float = 0.0
    torn_install_prob: float = 0.0
    slow_extra_ms: float = 5.0
    scheduled: tuple[tuple[int, str], ...] = ()

    LABEL = "backend fault"
    VOCABULARY = {kind: f"{kind}_prob" for kind in BACKEND_FAULT_KINDS}
    SCHEDULED = ("scheduled", "op_index")

    def __post_init__(self) -> None:
        self.validate_vocabulary()
        if self.slow_extra_ms < 0:
            raise ConfigError(
                f"slow_extra_ms must be >= 0, got {self.slow_extra_ms}"
            )

    def slow_extra_s(self) -> float:
        """Extra simulated seconds one ``slow`` fault charges."""
        return self.slow_extra_ms / 1e3

    def fault_at(self, op_index: int, install: bool = False) -> str | None:
        """The fault injected at attempt ``op_index``, or ``None``.

        Pure in ``(seed, op_index)``: the draw uses a generator seeded
        with exactly that pair, so the same plan always answers the same
        for the same index — the replay-determinism contract.  A
        ``torn_install`` draw on a non-install operation degrades to
        ``transient`` (there is no write to tear).
        """
        kind = dict(self.scheduled).get(op_index)
        if kind is None:
            if self.total_prob == 0.0:
                return None
            kind = self.pick(float(np.random.default_rng((self.seed, op_index)).random()))
        if kind == "torn_install" and not install:
            kind = "transient"
        return kind

    @classmethod
    def chaos(cls, seed: int, fault_rate: float = 0.1) -> "BackendFaultPlan":
        """A randomized-but-seeded plan mixing every backend fault kind.

        ``fault_rate`` splits evenly across the five kinds — enough
        pressure to exercise retry, breaker and fallback paths while
        leaving most operations clean.
        """
        return cls(seed=seed, **cls.even_split(fault_rate))


class BackendFaultInjector(FaultTally):
    """Executes a :class:`BackendFaultPlan`, one decision per attempt.

    Keeps the monotone attempt counter (the ``op_index`` the plan's pure
    function is consulted with) and per-kind injection tallies.  Because
    each decision depends only on ``(plan.seed, op_index)``, replaying
    the same operation sequence replays the same faults.
    """

    def __init__(self, plan: BackendFaultPlan) -> None:
        super().__init__(BACKEND_FAULT_KINDS)
        self.plan = plan
        self.op_index = 0

    def next_fault(self, install: bool = False) -> str | None:
        """The fault (or ``None``) for the next attempt; advances the index."""
        idx = self.op_index
        self.op_index += 1
        kind = self.plan.fault_at(idx, install=install)
        if kind is not None:
            self.injected[kind] += 1
        return kind

    def state(self) -> dict:
        """JSON-able injector position (for inspection and replay tests)."""
        return {"op_index": self.op_index, **super().state()}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this injector."""
        super().restore_state(state)
        self.op_index = int(state["op_index"])


@dataclass(frozen=True)
class ResilienceConfig:
    """Structural knobs of the resilience layer.

    ``max_attempts`` bounds one guarded operation (first try plus
    retries); ``breaker_threshold`` consecutive operation failures trip
    the breaker; ``breaker_probes`` successful half-open probes close it
    again.  Time constants (backoff base/cap, open window) live on
    :class:`~repro.costs.CostModel` with the other simulated-time knobs.
    """

    max_attempts: int = 4
    breaker_threshold: int = 3
    breaker_probes: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_probes < 1:
            raise ConfigError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}"
            )


class CircuitBreaker:
    """Closed → open → half-open breaker with a time-based probe schedule.

    Deterministic by construction: transitions depend only on the
    failure/success sequence and the simulated clock.  While open,
    :meth:`allow` rejects until the open window
    (``CostModel.backend_breaker_open_s``) elapses; the first allowed
    call after that is the half-open probe, whose outcome re-opens or
    (after ``probes`` successes) closes the breaker.
    """

    def __init__(self, threshold: int, probes: int, open_s: float) -> None:
        self.threshold = threshold
        self.probes = probes
        self.open_s = open_s
        self.state = "closed"
        self.trips = 0
        self.consecutive_failures = 0
        self._probe_successes = 0
        self._open_until = 0.0

    def allow(self, now: float) -> bool:
        """Whether the primary backend may be attempted at time ``now``."""
        if self.state == "open":
            if now < self._open_until:
                return False
            self.state = "half_open"
            self._probe_successes = 0
        return True

    def record_success(self) -> bool:
        """Record one successful operation; returns True when it re-closes."""
        if self.state == "half_open":
            self._probe_successes += 1
            if self._probe_successes >= self.probes:
                self.state = "closed"
                self.consecutive_failures = 0
                return True
            return False
        self.consecutive_failures = 0
        return False

    def record_failure(self, now: float) -> bool:
        """Record one failed (retry-exhausted) operation; True when it trips."""
        if self.state == "half_open":
            self._trip(now)
            return True
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            self._trip(now)
            return True
        return False

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.trips += 1
        self.consecutive_failures = 0
        self._open_until = now + self.open_s


#: Names of the additive counters :meth:`ResilientBackend.stats` reports.
_STAT_NAMES = (
    "ops",
    "attempts",
    "successes",
    "retries",
    "injected_faults",
    "slow_faults",
    "failures",
    "short_circuits",
    "fallback_ops",
    "fallback_reads",
    "breaker_trips",
)


class ResilientBackend(StorageBackend):
    """Wraps a real backend with retry, breaker, and mirror fallback.

    Construction binds the wrapper to a clock and cost model (normally
    the owning database's, via
    :meth:`~repro.storage.database.Database.attach_resilience`) so
    backoff and breaker windows charge simulated time.  The wrapper is
    transparent to the rest of the stack: ``name`` mirrors the inner
    backend, so metrics keys, ``CellScan.backend`` labels and the
    differential harness see the same identifier with or without the
    layer.

    Every bound table is *also* bound into an in-process
    :class:`SimulatorBackend` mirror — byte-identical to the real store
    by the differential contract — which serves reads while the breaker
    is open or retries are exhausted, and is the authority for
    installed-cell dedup counts (see the module docstring).
    """

    #: Duck-typed marker the database/engine check instead of importing.
    resilient = True

    def __init__(
        self,
        inner: StorageBackend,
        plan: BackendFaultPlan,
        config: ResilienceConfig | None = None,
        clock=None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        metrics=None,
        trace=None,
    ) -> None:
        if getattr(inner, "resilient", False):
            raise ConfigError("cannot wrap a ResilientBackend in another one")
        self.inner = inner
        self.plan = plan
        self.injector = BackendFaultInjector(plan)
        self.config = config or ResilienceConfig()
        self.clock = clock
        self.cost_model = cost_model
        self.metrics = metrics
        self.trace = trace
        self.name = inner.name
        self.mirror = SimulatorBackend()
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold,
            self.config.breaker_probes,
            cost_model.backend_breaker_open_s(),
        )
        self.deadline_s: float | None = None
        self._cancelled = None
        self._wrapped: dict[str, "ResilientTable"] = {}
        # Additive counters, mirrored into metrics when attached.
        self.ops = 0
        self.attempts = 0
        self.successes = 0
        self.retries = 0
        self.injected_faults = 0  # failed attempts (slow excluded)
        self.slow_faults = 0  # attempts that succeeded after extra latency
        self.failures = 0  # operations that exhausted their retries
        self.short_circuits = 0  # operations rejected by an open breaker
        self.fallback_ops = 0
        self.fallback_reads = 0

    # -- lifecycle -----------------------------------------------------------

    def bind_lifecycle(self, deadline_s: float | None = None, cancelled=None) -> None:
        """Honor a search's deadline and cancel flag in the retry loop.

        Called by the engine when a query is prepared: once the absolute
        simulated-clock ``deadline_s`` passes — or ``cancelled()`` turns
        true — the guard stops retrying and fails over immediately, so a
        deadline-bound search is never stuck in backoff.
        """
        self.deadline_s = deadline_s
        self._cancelled = cancelled

    def stats(self) -> dict[str, int]:
        """Snapshot of the additive resilience counters."""
        out = {name: getattr(self, name) for name in _STAT_NAMES if name != "breaker_trips"}
        out["breaker_trips"] = self.breaker.trips
        return out

    def degradation(self, baseline: dict[str, int] | None = None) -> Degradation | None:
        """The degradation since ``baseline`` (a :meth:`stats` capture).

        ``None`` when the primary backend served everything — retries
        alone do not degrade a run (the results are byte-identical and
        the real store is complete).  Because fallback reads come from
        the byte-identical simulator mirror, the *result set* of a
        degraded run still matches the fault-free golden run — what
        degraded is the real store's participation (reads it did not
        serve, installs it may have missed).
        """
        now = self.stats()
        base = baseline or {name: 0 for name in _STAT_NAMES}
        delta = {name: now[name] - base.get(name, 0) for name in _STAT_NAMES}
        if delta["fallback_ops"] == 0 and delta["failures"] == 0:
            return None
        return Degradation(
            "backend",
            "backend unavailable; served from simulator mirror",
            {
                "store": self.name,
                "failed_ops": delta["failures"],
                "fallback_reads": delta["fallback_reads"],
                "retries": delta["retries"],
                "breaker_trips": delta["breaker_trips"],
            },
        )

    # -- guard machinery -----------------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _charge(self, seconds: float) -> None:
        if self.clock is not None and seconds > 0.0:
            self.clock.advance(seconds)

    def _inc(self, counter: str, value: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(counter, value)

    def _record(self, kind_name: str, **detail) -> None:
        if self.trace is not None:
            self.trace.record(event_kind(kind_name), self._now(), **detail)

    def _out_of_time(self) -> bool:
        if self._cancelled is not None and self._cancelled():
            return True
        return (
            self.deadline_s is not None
            and self.clock is not None
            and self.clock.now >= self.deadline_s
        )

    def _guarded(self, op: str, primary, fallback, install: bool = False, read: bool = False):
        """Run one backend operation under retry + breaker + fallback.

        Never raises: exhausted retries and open breakers divert to
        ``fallback`` (the simulator mirror), which is infallible.
        """
        self.ops += 1
        self._inc("storage.backend.ops")
        if not self.breaker.allow(self._now()):
            self.short_circuits += 1
            self._inc("storage.backend.short_circuits")
            return self._fallback(op, fallback, "breaker_open", read)
        if self.breaker.state == "half_open":
            self._record("BREAKER", op=op, transition="half_open")
        attempt = 0
        while True:
            self.attempts += 1
            self._inc("storage.backend.attempts")
            fault = self.injector.next_fault(install=install)
            if fault is not None:
                self._inc(f"storage.backend.faults.{fault}")
            if fault == "slow":
                self.slow_faults += 1
                self._inc("storage.backend.slow_faults")
                self._charge(self.plan.slow_extra_s())
                fault = None
            failed_kind: str | None = None
            result = None
            if fault is None:
                try:
                    result = primary()
                except BackendError as err:
                    # A fault of the real store, not a drawn one: same
                    # taxonomy, same counters, same retry path.
                    failed_kind = err.kind
                    self._inc(f"storage.backend.faults.{failed_kind}")
            else:
                failed_kind = fault
            if failed_kind is None:
                self.successes += 1
                self._inc("storage.backend.successes")
                if self.breaker.record_success():
                    self._record("BREAKER", op=op, transition="closed")
                return result
            self.injected_faults += 1
            self._inc("storage.backend.injected_faults")
            attempt += 1
            if attempt >= self.config.max_attempts or self._out_of_time():
                self.failures += 1
                self._inc("storage.backend.failures")
                if self.breaker.record_failure(self._now()):
                    self._inc("storage.backend.breaker_trips")
                    self._record("BREAKER", op=op, transition="open", fault=failed_kind)
                return self._fallback(op, fallback, failed_kind, read)
            backoff = self.cost_model.backend_retry_s(attempt - 1)
            self._charge(backoff)
            self.retries += 1
            self._inc("storage.backend.retries")
            self._record(
                "BACKEND_RETRY", op=op, fault=failed_kind, attempt=attempt, backoff_s=backoff
            )

    def _fallback(self, op: str, fallback, reason: str, read: bool):
        self.fallback_ops += 1
        self._inc("storage.backend.fallback_ops")
        if read:
            self.fallback_reads += 1
            self._inc("storage.backend.fallback_reads")
        self._record("FALLBACK", op=op, reason=reason)
        return fallback()

    # -- table lifecycle -----------------------------------------------------

    def bind_table(self, table: HeapTable) -> "ResilientTable":
        mirror_handle = self.mirror.bind_table(table)
        primary_handle = self._guarded(
            "bind_table", lambda: self.inner.bind_table(table), lambda: None
        )
        wrapped = ResilientTable(self, primary_handle, mirror_handle)
        self._wrapped[table.name] = wrapped
        return wrapped

    def adopt(self, name: str, handle) -> "ResilientTable":
        """Wrap an already-bound inner handle (attach-after-register path).

        Rebuilds the simulator mirror from the inner store's bytes —
        bit-exact by the ``dump_table`` round-trip contract — and syncs
        the installed-cell record so dedup counts keep agreeing.
        """
        if name in self._wrapped:
            return self._wrapped[name]
        if name not in self.mirror.table_names():
            self.mirror.bind_table(self._rebuild(name, handle))
            self.mirror.restore_install_state(name, self.inner.install_state(name))
        wrapped = ResilientTable(self, handle, self.mirror.handle(name))
        self._wrapped[name] = wrapped
        return wrapped

    def _rebuild(self, name: str, handle) -> HeapTable:
        if isinstance(handle, HeapTable):
            return handle
        columns = {
            c: np.asarray(handle.column(c), dtype=float)
            for c in handle.schema.columns
        }
        return HeapTable(
            name, handle.schema, columns, handle.tuples_per_block, handle.cell_directory
        )

    def handle(self, name: str):
        if name in self._wrapped:
            return self._wrapped[name]
        inner_handle = self.inner.handle(name)  # raises KeyError when unknown
        return self.adopt(name, inner_handle)

    def table_names(self) -> tuple[str, ...]:
        return self.inner.table_names()

    def dump_table(self, name: str) -> dict[str, np.ndarray]:
        self.handle(name)  # ensure the mirror is populated
        return self.mirror.dump_table(name)

    # -- installed cell summaries -------------------------------------------

    def install_cells(
        self,
        table_name: str,
        gkey: str,
        flat_ids: Sequence[int],
    ) -> tuple[int, int]:
        # The mirror install is the authoritative count: both stores dedup
        # identically when healthy, and the mirror stays complete through
        # primary outages, so counts match the fault-free run regardless.
        counts = self.mirror.install_cells(table_name, gkey, flat_ids)
        self._guarded(
            "install_cells",
            lambda: self.inner.install_cells(table_name, gkey, flat_ids),
            lambda: counts,
            install=True,
        )
        return counts

    def flush_installs(self) -> None:
        # An install op: a drawn ``torn_install`` fails the attempt before
        # the store sees it, and the retry writes the whole batch.
        self._guarded(
            "flush_installs", self.inner.flush_installs, lambda: None, install=True
        )

    def installed_cell_count(self, table_name: str, gkey: str | None = None) -> int:
        return self.mirror.installed_cell_count(table_name, gkey)

    # -- checkpoint support --------------------------------------------------

    def install_state(self, table_name: str) -> dict:
        return self.mirror.install_state(table_name)

    def restore_install_state(self, table_name: str, state: dict) -> None:
        self.mirror.restore_install_state(table_name, state)
        self._guarded(
            "restore_install_state",
            lambda: self.inner.restore_install_state(table_name, state),
            lambda: None,
        )

    # -- description ---------------------------------------------------------

    def describe(self) -> str:
        return f"resilient({self.inner.describe()})"

    def close(self) -> None:
        self.inner.close()


class ResilientTable(BlockLayout):
    """Table handle routing data access through the resilience guard.

    Shape and block layout (no I/O) are the mirror handle's, inherited
    from :class:`~repro.storage.pages.BlockLayout`; every data-touching
    method — column draws, gathers, MBRs, the region scan — attempts the
    primary handle under the guard and falls back to the byte-identical
    mirror.  When the primary bind itself failed, every call takes the
    fallback path (counted, traced, degraded) rather than raising.
    """

    def __init__(self, backend: ResilientBackend, primary, mirror) -> None:
        super().__init__(
            mirror.name,
            mirror.schema,
            mirror.tuples_per_block,
            mirror.num_rows,
            mirror.cell_directory,
        )
        self._rb = backend
        self._primary = primary
        self._mirror = mirror

    # -- guarded data access -------------------------------------------------

    def _read(self, op: str, method: str, *args):
        primary = self._primary

        def call_primary():
            if primary is None:
                raise BackendError(f"table {self.name!r} never bound", kind="disconnect")
            return getattr(primary, method)(*args)

        return self._rb._guarded(
            op, call_primary, lambda: getattr(self._mirror, method)(*args), read=True
        )

    def column(self, name: str) -> np.ndarray:
        """Full column in physical order."""
        return self._read("column", "column", name)

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Values of one column for the given row ids (order-aligned)."""
        return self._read("gather", "gather", name, rows)

    def coordinates(self) -> np.ndarray:
        """``(num_rows, ndim)`` coordinate matrix in physical order."""
        return self._read("coordinates", "coordinates")

    def cell_ids(self, grid, rows=None, coords=None) -> np.ndarray:
        """Cell ids as the handle contract defines them; only a read is guarded.

        The cell directory and caller-held coordinates answer with no
        store access, so they cost no attempt; computing the ids from
        stored coordinates is one guarded read of the primary.
        """
        directory = self.cell_directory
        if coords is not None or (directory is not None and directory.grid_key == grid.key):
            return super().cell_ids(grid, rows, coords)
        return self._read("cell_ids", "cell_ids", grid, rows)

    def block_mbrs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-block MBRs."""
        return self._read("block_mbrs", "block_mbrs")

    def scan_region(self, lows, highs, columns=()) -> tuple:
        """Fused region scan, guarded (and mirrored) as one operation."""
        return self._read("scan_region", "scan_region", lows, highs, columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResilientTable({self.name!r}, primary={self._primary!r})"
