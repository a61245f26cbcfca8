"""The asyncio front door: a long-lived multi-tenant exploration service.

Two layers, deliberately separated:

* :class:`ServeCore` — a *synchronous, deterministic* service core: it
  owns the :class:`~repro.serve.manager.SessionManager`, scheduler,
  shared :class:`~repro.serve.cache.SemanticCache` and tenant ledger,
  and applies exactly three kinds of mutation — ``submit``, ``tick``,
  ``cancel``.  Every mutation is announced through an event hook in
  application order.  Because the core never reads wall time, applying
  the same mutation sequence to a fresh core reproduces every result,
  counter and trace event byte-for-byte — that is the record/replay
  contract (DESIGN.md §17): the asyncio server journals its mutation
  stream via :class:`~repro.serve.replay.RunRecorder`, and
  :func:`~repro.serve.replay.replay_journal` re-applies it in simulated
  time.

* :class:`ExplorationServer` — the wall-clock asyncio wrapper: a
  newline-delimited JSON socket protocol (:mod:`repro.serve.protocol`)
  over ``asyncio.start_server``, a cooperative scheduler pump that runs
  one slice per loop iteration and yields to I/O between slices, and a
  :class:`~repro.clock.WallClock` timeline for arrival stamps and
  latency accounting.  Engine databases stay on simulated clocks even
  here — wall time governs *when* mutations happen, never *what* they
  compute.

Concurrency model: everything runs on one event loop and request
dispatch never awaits mid-mutation, so each protocol op is atomic with
respect to scheduler ticks.  The nondeterminism of a wall-clock run is
therefore exactly the interleaving of mutations — which is what the
journal captures.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..clock import WallClock
from ..core.search import SearchConfig
from ..core.trace import SearchTrace
from ..errors import ConfigError, ProtocolError
from ..obs import MetricsRegistry
from ..storage.placement import Placement
from ..workloads import WORKLOAD_NAMES, load_workload
from .cache import SemanticCache
from .manager import SessionManager
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    encode,
    decode,
    error_response,
    ok_response,
    validate_request,
)
from .quota import TenantQuota
from .scheduler import QueryScheduler, make_policy
from .session import SessionState

__all__ = ["ServeConfig", "ServeCore", "ExplorationServer"]

_POLICIES = ("rr", "utility", "deadline", "wfq")
_PARKS = ("live", "checkpoint")

#: submit-spec defaults, filled in before journaling so the recorded
#: payload is self-contained (replay never consults defaults that may
#: have changed since).
_SUBMIT_DEFAULTS = {
    "tenant": "default",
    "scale": 0.2,
    "seed": 7,
    "placement": "cluster",
    "alpha": 1.0,
    "sample_fraction": 0.1,
    "step_budget": None,
    "block_budget": None,
    "deadline_s": None,
}


@dataclass
class ServeConfig:
    """Everything the front door needs, validated up front.

    ``validate`` raises :class:`~repro.errors.ConfigError` on any
    out-of-range knob — the CLI calls it before binding a socket, so a
    bad flag fails fast instead of surfacing as a scheduling anomaly
    minutes later.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_live: int = 4
    queue_limit: int = 8
    slice_steps: int = 16
    policy: str = "rr"
    seed: int = 0
    park: str = "live"
    use_cache: bool = True
    cache_budget: int = 1 << 20
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    default_quota: TenantQuota | None = None

    def validate(self) -> "ServeConfig":
        """Range-check every knob; returns ``self`` for chaining."""
        if not self.host:
            raise ConfigError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.max_live < 1:
            raise ConfigError(f"max_live must be >= 1, got {self.max_live}")
        if self.queue_limit < 0:
            raise ConfigError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.slice_steps < 1:
            raise ConfigError(f"slice_steps must be >= 1, got {self.slice_steps}")
        if self.policy not in _POLICIES:
            raise ConfigError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )
        if self.park not in _PARKS:
            raise ConfigError(f"park must be one of {_PARKS}, got {self.park!r}")
        if self.cache_budget < 1:
            raise ConfigError(f"cache_budget must be >= 1, got {self.cache_budget}")
        for name, quota in self.quotas.items():
            if not isinstance(quota, TenantQuota):
                raise ConfigError(f"quota for tenant {name!r} must be a TenantQuota")
        return self

    def to_json(self) -> dict:
        """JSON form for journal headers (round-trips via :meth:`from_json`)."""
        return {
            "host": self.host,
            "port": self.port,
            "max_live": self.max_live,
            "queue_limit": self.queue_limit,
            "slice_steps": self.slice_steps,
            "policy": self.policy,
            "seed": self.seed,
            "park": self.park,
            "use_cache": self.use_cache,
            "cache_budget": self.cache_budget,
            "quotas": {name: q.to_json() for name, q in sorted(self.quotas.items())},
            "default_quota": (
                None if self.default_quota is None else self.default_quota.to_json()
            ),
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "ServeConfig":
        """Rebuild a config from a journal header."""
        data = dict(payload)
        quotas = {
            name: TenantQuota.from_json(q)
            for name, q in (data.pop("quotas", None) or {}).items()
        }
        default = data.pop("default_quota", None)
        default_quota = None if default is None else TenantQuota.from_json(default)
        allowed = {
            "host", "port", "max_live", "queue_limit", "slice_steps",
            "policy", "seed", "park", "use_cache", "cache_budget",
        }
        extra = set(data) - allowed
        if extra:
            raise ConfigError(f"unknown serve config fields {sorted(extra)}")
        return cls(quotas=quotas, default_quota=default_quota, **data).validate()


class ServeCore:
    """The deterministic service core behind the socket front door.

    Parameters
    ----------
    config:
        A validated :class:`ServeConfig`.
    on_event:
        Mutation hook, called *after* each applied mutation with
        ``(kind, fields)`` — the recorder's journal feed.  Replay drives
        a core with no hook through the same three entry points.
    """

    def __init__(
        self,
        config: ServeConfig,
        on_event: Callable[[str, dict], None] | None = None,
    ) -> None:
        self.config = config.validate()
        self._on_event = on_event
        self.registry = MetricsRegistry()
        self.trace = SearchTrace()
        self.cache = (
            SemanticCache(budget_cells=config.cache_budget)
            if config.use_cache
            else None
        )
        self.manager = SessionManager(
            max_live=config.max_live,
            queue_limit=config.queue_limit,
            cache=self.cache,
            metrics=self.registry,
            trace=self.trace,
            quotas=config.quotas,
            default_quota=config.default_quota,
        )
        weights = {name: q.share_weight for name, q in config.quotas.items()}
        self.policy = make_policy(config.policy, config.seed, weights=weights)
        self.scheduler = QueryScheduler(
            self.manager, self.policy, slice_steps=config.slice_steps, park=config.park
        )
        # Every submission's handle, including REJECTED/THROTTLED stubs
        # (the manager tracks only admitted sessions).
        self.handles: dict = {}
        self._datasets: dict[tuple, tuple] = {}

    def _emit(self, kind: str, **fields) -> None:
        if self._on_event is not None:
            self._on_event(kind, fields)

    # -- workload resolution -----------------------------------------------------

    def _workload(self, name: str, scale: float, seed: int):
        key = (name, scale, seed)
        if key not in self._datasets:
            try:
                self._datasets[key] = load_workload(name, scale, seed)
            except ValueError as exc:
                raise ProtocolError("bad_workload", str(exc)) from None
        return self._datasets[key]

    # -- mutations (journaled) ---------------------------------------------------

    @staticmethod
    def _clean_submit(payload: Mapping) -> dict:
        """Normalize a submit spec: fill defaults, check value ranges.

        The normalized dict is what gets journaled — self-contained and
        deterministic to re-apply.
        """
        clean = {"session": payload["session"], "workload": payload["workload"]}
        for key, default in _SUBMIT_DEFAULTS.items():
            clean[key] = payload.get(key, default)
        if clean["workload"] not in WORKLOAD_NAMES:
            raise ProtocolError(
                "bad_workload",
                f"unknown workload {clean['workload']!r}; choose from {WORKLOAD_NAMES}",
            )
        if not isinstance(clean["tenant"], str) or not clean["tenant"]:
            raise ProtocolError("bad_request", "tenant must be a non-empty string")
        if not isinstance(clean["scale"], (int, float)) or not 0 < clean["scale"] <= 1:
            raise ProtocolError("bad_config", f"scale must be in (0, 1], got {clean['scale']}")
        if not isinstance(clean["seed"], int):
            raise ProtocolError("bad_config", "seed must be an int")
        placements = tuple(p.value for p in Placement)
        if clean["placement"] not in placements:
            raise ProtocolError(
                "bad_config",
                f"placement must be one of {placements}, got {clean['placement']!r}",
            )
        alpha = clean["alpha"]
        if not isinstance(alpha, (int, float)) or alpha < 0:
            raise ProtocolError("bad_config", f"alpha must be >= 0, got {alpha}")
        fraction = clean["sample_fraction"]
        if not isinstance(fraction, (int, float)) or not 0 < fraction <= 1:
            raise ProtocolError(
                "bad_config", f"sample_fraction must be in (0, 1], got {fraction}"
            )
        for key in ("step_budget", "block_budget"):
            value = clean[key]
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ProtocolError("bad_config", f"{key} must be >= 1 or null, got {value}")
        if clean["deadline_s"] is not None and clean["deadline_s"] <= 0:
            raise ProtocolError(
                "bad_config", f"deadline_s must be positive, got {clean['deadline_s']}"
            )
        return clean

    def submit(self, payload: Mapping) -> dict:
        """Apply one submission; returns the outcome payload.

        Raises :class:`~repro.errors.ProtocolError` (code, message) on
        invalid specs *before* any state mutates — only applied
        submissions reach the journal.
        """
        clean = self._clean_submit(payload)
        name = clean["session"]
        if name in self.handles:
            raise ProtocolError("duplicate_session", f"session {name!r} already exists")
        dataset, query = self._workload(clean["workload"], clean["scale"], clean["seed"])
        try:
            config = SearchConfig(alpha=clean["alpha"], deadline_s=clean["deadline_s"])
        except ValueError as exc:
            raise ProtocolError("bad_config", str(exc)) from None
        session = self.manager.submit(
            name,
            dataset,
            query,
            config,
            placement=clean["placement"],
            sample_fraction=clean["sample_fraction"],
            step_budget=clean["step_budget"],
            block_budget=clean["block_budget"],
            tenant=clean["tenant"],
        )
        self.handles[name] = session
        response = {
            "session": name,
            "tenant": clean["tenant"],
            "outcome": session.state.value,
        }
        if session.state is SessionState.THROTTLED:
            response["reason"] = session.throttle_reason
        elif session.state is SessionState.REJECTED:
            response["reason"] = "fleet_capacity"
        self._emit("submit", payload=clean, outcome=session.state.value)
        return response

    def tick(self) -> tuple[str, str] | None:
        """Run one scheduler slice; ``(session, outcome)`` or ``None``."""
        if not self.scheduler.tick():
            return None
        decision = self.scheduler.last_slice
        if decision is not None:
            self._emit("tick", session=decision[0], outcome=decision[1])
        return decision

    def cancel(self, name: str) -> dict:
        """Cooperatively cancel a session (applies at its next slice)."""
        session = self._session(name)
        if session.run is None or session.finished:
            return {"session": name, "cancelled": False, "state": session.state.value}
        session.cancel()
        self._emit("cancel", session=name)
        return {"session": name, "cancelled": True, "state": session.state.value}

    # -- reads (not journaled) ---------------------------------------------------

    def _session(self, name: str):
        try:
            return self.handles[name]
        except KeyError:
            raise ProtocolError("unknown_session", f"no session named {name!r}") from None

    def pending(self) -> bool:
        """Whether any admitted session still needs scheduler slices."""
        return bool(self.manager.live_sessions() or self.manager.waiting_sessions())

    def status(self, name: str) -> dict:
        session = self._session(name)
        payload = {
            "session": name,
            "state": session.state.value,
            "tenant": session.tenant,
        }
        if session.run is None:
            payload["reason"] = session.throttle_reason
            return payload
        payload.update(
            steps=session.steps_taken,
            slices=session.slices_taken,
            results=len(session.results),
            interrupted=bool(session.run.interrupted),
            interrupt_reason=session.run.interrupt_reason,
        )
        return payload

    def results(self, name: str, since: int = 0) -> dict:
        session = self._session(name)
        if session.run is None:
            return {"session": name, "state": session.state.value, "results": [],
                    "since": since, "next": since, "total": 0}
        shape = session.query.grid.shape
        page = [
            {
                "key": result.window.key(shape),
                "lo": list(result.window.lo),
                "hi": list(result.window.hi),
                "bounds": [list(result.bounds.lower), list(result.bounds.upper)],
                "objectives": dict(sorted(result.objective_values.items())),
                "time": result.time,
            }
            for result in session.results_since(since)
        ]
        total = len(session.results)
        return {
            "session": name,
            "state": session.state.value,
            "results": page,
            "since": since,
            "next": total,
            "total": total,
        }

    def stats(self) -> dict:
        snapshot = self.registry.snapshot()
        return {
            "summary": self.manager.summary(),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "trace": self.trace.summary(),
        }

    def fingerprint_payload(self) -> dict:
        """Everything the replay contract pins, as one JSON-able payload.

        Result-window keys, ``serve.*`` counters and the serving trace
        event sequence — byte-compared between a recorded wall-clock run
        and its simulated replay.
        """
        sessions = {}
        for name in sorted(self.handles):
            session = self.handles[name]
            entry = {
                "state": session.state.value,
                "tenant": session.tenant,
            }
            if session.run is None:
                entry["reason"] = session.throttle_reason
            else:
                shape = session.query.grid.shape
                entry.update(
                    steps=session.steps_taken,
                    interrupted=bool(session.run.interrupted),
                    interrupt_reason=session.run.interrupt_reason,
                    result_keys=[r.window.key(shape) for r in session.results],
                    result_times=[r.time for r in session.results],
                )
            sessions[name] = entry
        snapshot = self.registry.snapshot()
        return {
            "sessions": sessions,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "tenants": self.manager.ledger.report(),
            "trace": [
                [e.kind.value, e.time, repr(e.window), sorted(e.detail.items())]
                for e in self.trace
            ],
        }


class ExplorationServer:
    """Wall-clock asyncio wrapper over a :class:`ServeCore`.

    Listens on ``config.host:config.port`` (port ``0`` binds an
    ephemeral port, reported by :attr:`address`), pumps the scheduler
    cooperatively and serves the line protocol.  Pass a
    :class:`~repro.serve.replay.RunRecorder` to journal the run.
    """

    def __init__(self, config: ServeConfig, recorder=None) -> None:
        self.config = config.validate()
        self.clock = WallClock()
        self.recorder = recorder
        if recorder is not None:
            recorder.attach_clock(self.clock)
            if not recorder.has_header:
                recorder.begin(self.config)
        self.core = ServeCore(
            config, on_event=None if recorder is None else recorder.record
        )
        self.latencies: dict[str, float] = {}
        self._submitted_at: dict[str, float] = {}
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._stopped = asyncio.Event()
        self._stopping = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (ephemeral port resolved)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the scheduler pump; returns the address."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._pump_task = asyncio.create_task(self._pump())
        return self.address

    async def stop(self) -> None:
        """Stop accepting, drain the pump, close what is unfinished, journal."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._work.set()
        if self._pump_task is not None:
            await self._pump_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.core.manager.close()
        if self.recorder is not None:
            self.recorder.finish(self.core.fingerprint_payload())
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (shutdown op path)."""
        await self._stopped.wait()

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` op (the CLI's foreground mode)."""
        await self._stopped.wait()

    # -- scheduler pump ----------------------------------------------------------

    async def _pump(self) -> None:
        while not self._stopping:
            decision = self.core.tick()
            if decision is not None:
                name, outcome = decision
                if outcome in ("done", "interrupted"):
                    started = self._submitted_at.get(name)
                    if started is not None:
                        self.latencies[name] = self.clock.now - started
                # Yield so connection handlers run between slices.
                await asyncio.sleep(0)
                continue
            self._work.clear()
            if self._stopping:
                break
            try:
                # The event is the wakeup; the timeout only guards a lost
                # wakeup so the pump can never deadlock.
                await asyncio.wait_for(self._work.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    # -- protocol ----------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode(error_response(None, "bad_request", "line too long"))
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response, done = self._respond(line)
                writer.write(encode(response))
                await writer.drain()
                if done:
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _respond(self, line: bytes) -> tuple[dict, bool]:
        """One request line to one response dict (and a close flag)."""
        request_id = None
        try:
            message = decode(line)
            request_id = message.get("id")
            op, request_id = validate_request(message)
        except ProtocolError as exc:
            code, text = _error_fields(exc)
            return error_response(request_id, code, text), False
        if op == "close":
            return ok_response(request_id, bye=True), True
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.stop())
            return ok_response(request_id, stopping=True), True
        try:
            return ok_response(request_id, **self._dispatch(op, message)), False
        except ProtocolError as exc:
            code, text = _error_fields(exc)
            return error_response(request_id, code, text), False

    def _dispatch(self, op: str, message: dict) -> dict:
        core = self.core
        if op == "hello":
            return {
                "server": "repro-serve",
                "version": PROTOCOL_VERSION,
                "mode": "wall",
                "recording": self.recorder is not None,
            }
        if op == "submit":
            response = core.submit(message)
            if response["outcome"] in ("live", "waiting"):
                self._submitted_at[response["session"]] = self.clock.now
                self._work.set()
            return response
        if op == "status":
            return core.status(message["session"])
        if op == "results":
            return core.results(message["session"], message.get("since", 0))
        if op == "cancel":
            response = core.cancel(message["session"])
            self._work.set()
            return response
        if op == "stats":
            payload = core.stats()
            payload["latencies"] = {
                name: self.latencies[name] for name in sorted(self.latencies)
            }
            return payload
        raise ProtocolError("unknown_op", f"unhandled op {op!r}")  # pragma: no cover


def _error_fields(exc: ProtocolError) -> tuple[str, str]:
    """(code, message) from a ProtocolError raised by protocol or core."""
    if len(exc.args) == 2:
        return exc.args[0], exc.args[1]
    return "bad_request", str(exc.args[0]) if exc.args else "bad request"
