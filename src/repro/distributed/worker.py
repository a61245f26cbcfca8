"""A distributed SW worker (paper Section 5), hardened against faults.

Each worker runs the heuristic search over the windows **anchored in its
slab** of the search area, against its own PostgreSQL stand-in (its own
simulated disk, buffer pool and clock).  Windows spanning the partition
boundary need cells owned by the next worker; those are fetched with
:class:`~repro.distributed.messages.CellRequest` messages:

* if the owner has already read the cells, it responds immediately;
* otherwise it "delays the request until the data becomes available" —
  after every local disk read it checks whether pending requests can now
  be answered;
* the requester parks the window and keeps exploring; when the response
  arrives, the window is re-inserted into the queue.

Completeness: every window is reachable from the single-cell (or minimal
shape) window at its own anchor through extensions that keep the anchor
fixed or move it within the slab, so seeding each worker with the anchors
it owns partitions the search space exactly.

On top of the paper's protocol sits a reliability layer that makes the
exchange effectively exactly-once over a lossy channel:

* every transmission carries a unique ``msg_id``; receivers drop
  duplicates (re-deliveries and retransmissions alike);
* every outstanding :class:`CellRequest` has a deadline; an unanswered
  request is retransmitted with capped exponential backoff, re-routed
  through the coordinator's ownership router (so retries chase anchors
  reassigned after a crash);
* cell installs are idempotent — a second response for an
  already-cached cell is a no-op — so duplicated answers are harmless;
* cells whose owning slab is *lost* (crashed with no surviving adopter)
  move the windows needing them to ``lost_windows`` instead of waiting
  forever; the coordinator reports them as degradation.

The search itself is the shared :class:`~repro.core.search.SteppingCore`;
this module adds the slab parameters, the missing-cells step and all that
talks to peers.  Of the :class:`~repro.core.search.SearchConfig` knobs a
worker honours ``s``, ``alpha``, ``prefetch``, ``lazy_updates`` and
``head_capacity``; it ignores ``diversification`` (and its tuning knobs),
``refresh_reads``, ``assume_nonnegative``, ``scrub_blocks_per_step``,
``time_limit_s``, ``deadline_s``, ``step_limit`` and
``memory_budget_entries`` — the paper evaluates those on one node only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.datamanager import DataManager
from ..core import checkpoint as ckpt
from ..core.pqueue import SpillableQueue
from ..core.query import ResultWindow, SWQuery
from ..core.search import SearchConfig, SteppingCore
from ..core.trace import EventKind, SearchTrace
from ..core.window import Window
from ..costs import CostModel
from ..errors import CheckpointError, ProtocolError
from .messages import Cell, CellRequest, CellResponse, Network
from .partitioning import OwnershipRouter, PartitionPlan

__all__ = ["Worker"]


@dataclass
class _Outstanding:
    """One in-flight cell request awaiting an answer (or a timeout)."""

    owner: int
    cells: set[Cell]
    deadline: float
    attempt: int = 0
    sent_at: float = 0.0
    hedged: bool = False


class Worker(SteppingCore):
    """One search worker over a slab of the search area."""

    def __init__(
        self,
        worker_id: int,
        plan: PartitionPlan,
        query: SWQuery,
        data: DataManager,
        network: Network,
        config: SearchConfig | None = None,
        cost_model: CostModel | None = None,
        on_result: Callable[[int, ResultWindow], None] | None = None,
        router: OwnershipRouter | None = None,
        trace: SearchTrace | None = None,
        metrics=None,
    ) -> None:
        # ``metrics`` is a per-worker registry bound to this worker's
        # clock; the coordinator merges all of them at the end.
        config = config or SearchConfig()
        super().__init__(
            query,
            data,
            config,
            cost_model if cost_model is not None else CostModel(),
            SpillableQueue(config.head_capacity),
            trace,
            metrics,
        )
        self.worker_id = worker_id
        self.plan = plan
        self.network = network
        self.router = router if router is not None else OwnershipRouter(plan)
        self.results = self._results
        self._on_result = on_result

        self.anchor_lo, self.anchor_hi = plan.anchor_slab(worker_id)
        self.data_lo, self.data_hi = plan.data_range(worker_id)

        # Remote-cell machinery.
        self._waiting: dict[Window, set[Cell]] = {}
        self._requested: set[Cell] = set()
        self._pending: dict[int, set[Cell]] = {}
        # Reliability layer.
        self.crashed = False
        self.fenced = False
        self.retries = 0
        self.hedges = 0
        self.duplicates_ignored = 0
        self.recovered_anchors = 0
        self.lost_windows: dict[Window, set[Cell]] = {}
        self._outstanding: dict[int, _Outstanding] = {}
        # Earliest ``_due_time`` over ``_outstanding`` (``inf`` when empty),
        # derived on demand by ``_next_due``; ``None`` means an insert, a
        # delete or a ``deadline``/``hedged`` edit has made it stale.
        # Never serialised.
        self._earliest_due: float | None = math.inf
        self._seen_msg_ids: set[int] = set()
        self._lost_cells: set[Cell] = set()

        self._seed_slab(self.anchor_lo, self.anchor_hi)

    # -- scheduling interface ---------------------------------------------------

    @property
    def now(self) -> float:
        """Worker-local simulated time."""
        return self.data.clock.now

    def advance_to(self, timestamp: float) -> None:
        """Fast-forward an idle worker's clock (waiting on the network)."""
        self.data.clock.advance_to(timestamp)

    def next_time(self) -> float | None:
        """Earliest time this worker can act, or ``None`` if quiescent.

        Reads only this worker's own state and the head of its own inbox
        — the invariant the coordinator's ready queue rests on: the
        answer can change only when this worker steps, is sent a message,
        or is mutated by a coordinator-side fault event.
        """
        if self.crashed:
            return None
        now = self.now
        if len(self.queue) > 0 or self._pending:
            return now
        wake = self._next_due()
        arrival = self.network.earliest_arrival(self.worker_id)
        if arrival is not None and arrival < wake:
            wake = arrival
        if wake == math.inf:
            return None
        return max(now, wake)

    def _due_time(self, entry: _Outstanding) -> float:
        """When an outstanding request next needs attention (hedge or retry)."""
        hedge = self.cost_model.hedge_delay_s()
        if hedge > 0.0 and not entry.hedged:
            return min(entry.deadline, entry.sent_at + hedge)
        return entry.deadline

    def _next_due(self) -> float:
        """Earliest :meth:`_due_time` over ``_outstanding``; ``inf`` if none."""
        due = self._earliest_due
        if due is None:
            due = self._earliest_due = min(
                map(self._due_time, self._outstanding.values()), default=math.inf
            )
        return due

    def is_done(self) -> bool:
        """No queue work, parked windows, pending requests, or in-flight mail.

        Windows in ``lost_windows`` are deliberately excluded: they can
        never complete and are accounted for by the coordinator's
        degradation report instead of blocking quiescence.
        """
        return (
            len(self.queue) == 0
            and not self._waiting
            and not self._pending
            and not self._outstanding
            and self.network.pending(self.worker_id) == 0
        )

    def crash(self) -> None:
        """Fail-stop this worker (fault injection)."""
        self.crashed = True

    def fence(self) -> None:
        """Stop a live worker the coordinator falsely declared dead.

        A partition longer than the heartbeat timeout makes the liveness
        view declare a healthy worker failed.  Because its anchors are
        reassigned and re-seeded by a successor, this worker must never
        act again (its results are superseded) — fencing turns the false
        positive into a safe fail-stop, preserving the equivalence
        invariant at the cost of redone work.
        """
        self.crashed = True
        self.fenced = True

    # -- the step ------------------------------------------------------------------

    def step(self) -> None:
        """Process arrived messages and timeouts, then explore one window."""
        self._process_inbox()
        self._check_timeouts()
        popped = self.queue.pop()
        if popped is None:
            # Out of search work but peers still wait on our cells: read
            # them directly ("eventually it is going to read all its local
            # data and, thus, will be able to answer all requests").  This
            # also covers slabs too narrow to anchor any window.
            if self._pending:
                self._read_for_pending()
            return
        priority, window, version = popped
        if self._still_best(window, version):
            self._explore(window)

    # -- message handling --------------------------------------------------------------

    def _process_inbox(self) -> None:
        metrics = self.metrics
        for message in self.network.receive(self.worker_id, self.now):
            if metrics is not None:
                metrics.inc("net.messages_received")
            msg_id = getattr(message, "msg_id", -1)
            if msg_id >= 0:
                if msg_id in self._seen_msg_ids:
                    self.duplicates_ignored += 1
                    if metrics is not None:
                        metrics.inc("net.duplicates_ignored")
                    continue
                self._seen_msg_ids.add(msg_id)
            if metrics is not None:
                metrics.inc("net.messages_unique")
            if isinstance(message, CellRequest):
                self._handle_request(message)
            elif isinstance(message, CellResponse):
                self._handle_response(message)
            else:  # pragma: no cover - no other message kinds exist
                raise ProtocolError(f"unexpected message {message!r}")

    def _handle_request(self, request: CellRequest) -> None:
        # Cells outside the local data range cannot be served truthfully
        # (reading them locally would cache them as falsely empty); the
        # requester's retransmission re-routes them.  This cannot happen
        # under correct routing — ownership is always a subset of the
        # local data range — but a lossy run is exactly when to be sure.
        data_lo, data_hi = self.data_lo, self.data_hi
        is_cell_read = self.data.is_cell_read
        ready: list[Cell] = []
        waiting: set[Cell] = set()
        for cell in request.cells:
            if data_lo <= cell[0] < data_hi:
                if is_cell_read(cell):
                    ready.append(cell)
                else:
                    waiting.add(cell)
        if ready:
            self._respond(request.requester, ready)
        if waiting:
            self._pending.setdefault(request.requester, set()).update(waiting)

    def _handle_response(self, response: CellResponse) -> None:
        for cell, payload in response.payloads.items():
            if not self.data.is_cell_read(cell):
                self.data.install_cell(cell, payload)
        answered = set(response.payloads)
        for msg_id in list(self._outstanding):
            entry = self._outstanding[msg_id]
            entry.cells -= answered
            if not entry.cells:
                del self._outstanding[msg_id]
                self._earliest_due = None
        freed = []
        for window, missing in self._waiting.items():
            missing -= answered
            if not missing:
                freed.append(window)
        for window in freed:
            del self._waiting[window]
            self.queue.push(self._utility(window), window, self.data.version)
            if self.metrics is not None:
                self.metrics.inc("dist.unparked_windows")

    def _respond(self, requester: int, cells: Iterable[Cell]) -> None:
        payloads = {tuple(c): self.data.cell_payload(c) for c in cells}
        if payloads:
            self.network.send(
                requester,
                CellResponse(self.worker_id, payloads, self.network.next_msg_id()),
                self.now,
            )

    def _read_for_pending(self) -> None:
        """Read the locally-owned cells that pending requests still need."""
        needed = sorted({cell for cells in self._pending.values() for cell in cells})
        for cell in needed:
            if not self.data.is_cell_read(cell):
                if self.metrics is not None:
                    self.metrics.inc("dist.pending_cell_requests")
                self.data.read_window(Window(cell, tuple(c + 1 for c in cell)))
        self._flush_pending()

    def _flush_pending(self) -> None:
        """After a local read, answer whatever pending requests we now can."""
        still_pending: dict[int, set[Cell]] = {}
        for requester, cells in self._pending.items():
            ready = [c for c in cells if self.data.is_cell_read(c)]
            if ready:
                self._respond(requester, ready)
                cells -= set(ready)
            if cells:
                still_pending[requester] = cells
        self._pending = still_pending

    _after_local_read = _flush_pending  # the stepping core's hook

    # -- reliability layer -------------------------------------------------------------

    def _check_timeouts(self) -> None:
        """Retransmit expired requests; hedge silent-but-unexpired ones."""
        now = self.now
        if self._next_due() > now:
            return  # no deadline has passed and no hedge has come due
        self._check_hedges()
        expired = [
            msg_id
            for msg_id, entry in self._outstanding.items()
            if entry.deadline <= now
        ]
        for msg_id in expired:
            entry = self._outstanding.pop(msg_id)
            self._earliest_due = None
            cells = {c for c in entry.cells if not self.data.is_cell_read(c)}
            if not cells:
                continue
            self.retries += 1
            if self.metrics is not None:
                self.metrics.inc("dist.retries")
            if self.trace is not None:
                self.trace.record(
                    EventKind.RETRY,
                    now,
                    detail_worker=self.worker_id,
                    owner=entry.owner,
                    cells=len(cells),
                    attempt=entry.attempt + 1,
                )
            self._dispatch_cells(cells, attempt=entry.attempt + 1)

    def _check_hedges(self) -> None:
        """Speculatively duplicate requests a straggler is sitting on.

        A request silent for ``hedge_delay`` (but not yet timed out) gets
        one duplicate sent to an alternate live worker whose *static*
        data range covers the cells (the partition plan's data extension
        makes boundary cells multiply-held), falling back to the owner
        itself.  Idempotent installs make the double answer harmless;
        disabled when ``hedge_delay_ms`` is 0, which is the default.
        """
        hedge = self.cost_model.hedge_delay_s()
        if hedge <= 0.0:
            return
        now = self.now
        due = [
            entry
            for entry in self._outstanding.values()
            if not entry.hedged
            and entry.sent_at + hedge <= now < entry.deadline
        ]
        for entry in due:
            entry.hedged = True
            self._earliest_due = None
            target = self._hedge_target(entry)
            if target is None:
                continue
            self.hedges += 1
            if self.metrics is not None:
                self.metrics.inc("dist.hedges")
            self._send_request(target, sorted(entry.cells), entry.attempt, hedged=True)

    def _hedge_target(self, entry: _Outstanding) -> int | None:
        """An alternate live worker covering every cell, else the owner."""
        candidates: set[int] | None = None
        for cell in entry.cells:
            covering = set(self.plan.covering_workers(cell[0]))
            candidates = covering if candidates is None else candidates & covering
        if candidates:
            for alt in sorted(candidates):
                if alt not in (self.worker_id, entry.owner) and not self.network.is_dead(alt):
                    return alt
        if self.network.is_dead(entry.owner):
            return None
        return entry.owner

    def _dispatch_cells(self, cells: Iterable[Cell], attempt: int = 0) -> None:
        """Route cell requests to current owners; handle local/lost cells.

        The single funnel for both first sends and retransmissions: it
        consults the (mutable) ownership router, so requests chase
        anchors that were reassigned after a crash.
        """
        by_owner: dict[int, list[Cell]] = {}
        lost: list[Cell] = []
        local: list[Cell] = []
        # Sorted so owner grouping (and thus msg-id allocation order) never
        # depends on set iteration order — a checkpointed-and-restored set
        # could otherwise iterate differently and diverge from the
        # uninterrupted run.
        for cell in sorted(cells):
            if self.data.is_cell_read(cell):
                continue
            if self.data_lo <= cell[0] < self.data_hi:
                local.append(cell)
                continue
            owner = self.router.owner_of_cell(cell[0])
            if owner is None:
                lost.append(cell)
            elif owner == self.worker_id:
                local.append(cell)
            else:
                by_owner.setdefault(owner, []).append(cell)
        if lost:
            self._mark_cells_lost(lost)
        if local:
            self._unpark_windows_touching(local)
        for owner, owned in by_owner.items():
            self._send_request(owner, owned, attempt)

    def _send_request(
        self, owner: int, cells: Sequence[Cell], attempt: int, hedged: bool = False
    ) -> None:
        """Transmit one cell request and start its retransmission timer."""
        now = self.now
        msg_id = self.network.next_msg_id()
        self.network.send(
            owner, CellRequest(self.worker_id, tuple(cells), msg_id, attempt), now
        )
        entry = self._outstanding[msg_id] = _Outstanding(
            owner=owner,
            cells=set(cells),
            deadline=now + self.cost_model.retry_timeout_s(attempt),
            attempt=attempt,
            sent_at=now,
            hedged=hedged,
        )
        if self._earliest_due is not None:
            self._earliest_due = min(self._earliest_due, self._due_time(entry))

    def _mark_cells_lost(self, cells: Iterable[Cell]) -> None:
        """Give up on cells whose owning slab has no surviving worker."""
        self._lost_cells.update(cells)
        doomed = [
            window
            for window, missing in self._waiting.items()
            if missing & self._lost_cells
        ]
        for window in doomed:
            self.lost_windows[window] = self._waiting.pop(window)
            if self.metrics is not None:
                self.metrics.inc("dist.lost_windows")

    def _unpark_windows_touching(self, cells: Iterable[Cell]) -> None:
        """Re-queue waiting windows whose missing cells became local."""
        touched = set(cells)
        freed = [
            window
            for window, missing in self._waiting.items()
            if missing & touched
        ]
        for window in freed:
            del self._waiting[window]
            self.queue.push(self._utility(window), window, self.data.version)
            if self.metrics is not None:
                self.metrics.inc("dist.unparked_windows")

    def on_peer_deaths(self, dead: set[int]) -> bool:
        """React to a batch of declared peer deaths in one pass.

        Pending answers owed to dead requesters are dropped, and
        outstanding requests to dead owners become due immediately so the
        next step re-routes them through the updated ownership map.
        Returns whether this worker was touched at all — the coordinator
        uses it to count notification messages honestly (only affected
        survivors would be contacted on a real control plane).
        """
        touched = False
        for peer in dead:
            if self._pending.pop(peer, None) is not None:
                touched = True
        now = self.now
        for entry in self._outstanding.values():
            if entry.owner in dead:
                entry.deadline = now
                self._earliest_due = None
                touched = True
        return touched

    def adopt_anchors(
        self,
        anchor_range: tuple[int, int],
        data_range: tuple[int, int],
        table=None,
        seed: bool = True,
    ) -> int:
        """Take over a dead peer's anchor slab (coordinator-directed).

        ``table`` is the rebuilt local heap table covering the widened
        ``data_range`` (``None`` keeps the current table, for pure
        ownership transfers).  With ``seed=True`` the adopted anchors'
        start windows are (re-)seeded — the dead worker's exploration
        state died with it, so its slab is explored from scratch, which
        is exactly what makes the recovered result set complete.
        Returns the number of adopted anchor columns.
        """
        lo, hi = anchor_range
        self.anchor_lo = min(self.anchor_lo, lo)
        self.anchor_hi = max(self.anchor_hi, hi)
        if table is not None:
            self.data.rebind_table(table)
        self.data_lo, self.data_hi = data_range
        newly_local = [
            cell
            for window, missing in self._waiting.items()
            for cell in missing
            if self.data_lo <= cell[0] < self.data_hi
        ]
        if newly_local:
            self._unpark_windows_touching(newly_local)
        if seed:
            with self._span("recover"):
                self._seed_slab(lo, hi)
            if self.metrics is not None:
                self.metrics.inc("dist.recovered_anchors", float(hi - lo))
            self.recovered_anchors += hi - lo
        return hi - lo

    # -- checkpoint support ------------------------------------------------------------

    def state(self) -> dict:
        """Exact worker state for a (fault-free) distributed checkpoint.

        Dict-shaped members whose *iteration order* the protocol observes
        (parked windows, pending answers, outstanding requests) are
        serialized as ordered pair lists; pure-membership sets are stored
        sorted.  Cell sets inside entries are safe to sort because every
        order-sensitive consumer (``_dispatch_cells``) sorts before use.
        """
        def cells_list(cells: Iterable[Cell]) -> list[list[int]]:
            return sorted([list(c) for c in cells])

        return {
            "worker_id": self.worker_id,
            "anchor_range": [self.anchor_lo, self.anchor_hi],
            "data_range": [self.data_lo, self.data_hi],
            **self._core_state(),
            "waiting": [
                [ckpt.window_to_state(w), cells_list(cells)]
                for w, cells in self._waiting.items()
            ],
            "requested": cells_list(self._requested),
            "pending": [
                [requester, cells_list(cells)]
                for requester, cells in self._pending.items()
            ],
            "outstanding": [
                [
                    msg_id,
                    entry.owner,
                    cells_list(entry.cells),
                    entry.deadline,
                    entry.attempt,
                    entry.sent_at,
                    entry.hedged,
                ]
                for msg_id, entry in self._outstanding.items()
            ],
            "seen_msg_ids": sorted(self._seen_msg_ids),
            "lost_cells": cells_list(self._lost_cells),
            "lost_windows": [
                [ckpt.window_to_state(w), cells_list(cells)]
                for w, cells in self.lost_windows.items()
            ],
            "retries": self.retries,
            "hedges": self.hedges,
            "duplicates_ignored": self.duplicates_ignored,
            "recovered_anchors": self.recovered_anchors,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this freshly built worker."""
        if int(state["worker_id"]) != self.worker_id:
            raise CheckpointError(
                f"worker {self.worker_id} cannot restore state captured "
                f"for worker {state['worker_id']}"
            )
        self._restore_core_state(state)

        def cell_set(cells) -> set[Cell]:
            return {tuple(int(x) for x in c) for c in cells}

        self.anchor_lo, self.anchor_hi = (int(x) for x in state["anchor_range"])
        self.data_lo, self.data_hi = (int(x) for x in state["data_range"])
        self._waiting = {
            ckpt.window_from_state(w): cell_set(cells)
            for w, cells in state["waiting"]
        }
        self._requested = cell_set(state["requested"])
        self._pending = {
            int(requester): cell_set(cells) for requester, cells in state["pending"]
        }
        self._outstanding = {}
        self._earliest_due = None
        for entry in state["outstanding"]:
            msg_id, owner, cells, deadline, attempt, sent_at, hedged = entry
            self._outstanding[int(msg_id)] = _Outstanding(
                owner=int(owner),
                cells=cell_set(cells),
                deadline=float(deadline),
                attempt=int(attempt),
                sent_at=float(sent_at),
                hedged=bool(hedged),
            )
        self._seen_msg_ids = {int(m) for m in state["seen_msg_ids"]}
        self._lost_cells = cell_set(state["lost_cells"])
        self.lost_windows = {
            ckpt.window_from_state(w): cell_set(cells)
            for w, cells in state["lost_windows"]
        }
        self.retries = int(state["retries"])
        self.hedges = int(state["hedges"])
        self.duplicates_ignored = int(state["duplicates_ignored"])
        self.recovered_anchors = int(state["recovered_anchors"])

    # -- what Section 5 adds to the stepping core -----------------------------------------

    def _trace_tags(self, kind: EventKind) -> dict:
        return {"worker": self.worker_id}

    def _emit(self, result: ResultWindow) -> None:
        if self._on_result is not None:
            self._on_result(self.worker_id, result)

    def _remote_cells(self, window: Window) -> list[Cell]:
        """Unread cells of the window outside the local data range."""
        lo0, hi0 = window.lo[0], window.hi[0]
        # Only the columns below and above the local range, in the
        # window's own row-major order (dimension 0 is the major one).
        is_cell_read = self.data.is_cell_read
        rest = [range(l, u) for l, u in zip(window.lo[1:], window.hi[1:])]
        return [
            cell
            for columns in (
                range(lo0, min(hi0, self.data_lo)),
                range(max(lo0, self.data_hi), hi0),
            )
            for cell in itertools.product(columns, *rest)
            if not is_cell_read(cell)
        ]

    def _park_for_missing_cells(self, window: Window) -> bool:
        """Park ``window`` until its remote cells arrive (or are lost)."""
        remote = self._remote_cells(window)
        if not remote:
            return False
        if any(cell in self._lost_cells for cell in remote):
            # Some needed cells died with their slab — the window can
            # never be validated; account for it instead of waiting.
            self.lost_windows[window] = set(remote)
            if self.metrics is not None:
                self.metrics.inc("dist.lost_windows")
        else:
            self._waiting[window] = set(remote)
            new_requests = [c for c in remote if c not in self._requested]
            if new_requests:
                self._requested.update(new_requests)
                self._dispatch_cells(new_requests)
        return True
