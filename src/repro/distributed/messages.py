"""Message types and the latency-modelled network for distributed SW.

Workers interact "between themselves and with the DBMS via TCP/IP"
(Section 5).  We model the network as per-recipient inboxes with a
delivery latency from the cost model; messages carry either a cell-data
request or the cell summaries answering one.

The channel is **lossy by contract**: with a
:class:`~repro.distributed.faults.FaultInjector` attached, a send may be
dropped, duplicated or delayed, and messages to crashed workers vanish.
Reliability is layered on top by the workers (message ids, receiver-side
dedup, timeout + retransmission), so delivery is effectively
exactly-once even over this channel — without an injector the network
behaves exactly as the original perfect-delivery model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from ..core.aggregates import CellStats
from ..costs import CostModel
from ..errors import ConfigError

__all__ = ["CellRequest", "CellResponse", "Network"]

Cell = tuple[int, ...]


@dataclass(frozen=True)
class CellRequest:
    """Ask the owner for exact summaries of the listed cells.

    ``msg_id`` uniquely identifies one transmission (retries get fresh
    ids); ``attempt`` is 0 for the original send and counts retries.
    """

    requester: int
    cells: tuple[Cell, ...]
    msg_id: int = -1
    attempt: int = 0


@dataclass(frozen=True)
class CellResponse:
    """Exact summaries for previously requested cells."""

    responder: int
    payloads: Mapping[Cell, Mapping[str, CellStats]]
    msg_id: int = -1


@dataclass(order=True)
class _Envelope:
    arrival: float
    seq: int
    message: object = field(compare=False)


class Network:
    """Per-worker inboxes with cost-model latency and optional faults.

    Ties in arrival time are broken by send order (a monotone sequence
    number), so delivery order is deterministic even at equal
    timestamps and with zero-latency cost models.

    The network also keeps a *recipient record*: the set of workers whose
    inbox it changed from outside (a delivery, a dead worker's purge, a
    restore) since :meth:`drain_recipients` was last called.  The
    coordinator's event loop drains it after every step to learn whose
    next action time may have moved; nobody else has to, because the
    record is a set of worker ids and so never outgrows the cluster.
    """

    def __init__(self, num_workers: int, cost_model: CostModel, injector=None) -> None:
        if num_workers < 1:
            raise ConfigError(f"need at least one worker, got {num_workers}")
        self._cost = cost_model
        self._injector = injector
        self._inboxes: list[list[_Envelope]] = [[] for _ in range(num_workers)]
        self._seq = itertools.count()
        self._msg_ids = itertools.count()
        self._dead: set[int] = set()
        self._recipients: set[int] = set()
        self.messages_sent = 0
        self.cells_shipped = 0
        self.messages_lost = 0
        self.partition_drops = 0
        # Optional observability (repro.obs): the coordinator attaches its
        # registry here so channel-level counters land in the merged view.
        self.metrics = None

    def next_msg_id(self) -> int:
        """A fresh unique message id for a sender to stamp."""
        return next(self._msg_ids)

    def send(self, to: int, message: CellRequest | CellResponse, sent_at: float) -> None:
        """Deliver a message after the modelled latency (faults permitting)."""
        m = self.metrics
        if isinstance(message, CellRequest):
            cells = len(message.cells)
        else:
            cells = len(message.payloads)
            self.cells_shipped += cells
            if m is not None:
                m.inc("net.cells_shipped", float(cells))
        self.messages_sent += 1
        if m is not None:
            m.inc("net.messages_sent")
        if to in self._dead:
            # The TCP connection to a crashed worker is gone; the message
            # is lost without the injector spending a draw on it.
            self.messages_lost += 1
            if m is not None:
                m.inc("net.messages_lost")
            return
        if self._injector is not None:
            src = (
                message.requester
                if isinstance(message, CellRequest)
                else message.responder
            )
            if not self._injector.plan.link_open(src, to, sent_at):
                # A cut link swallows the message without a fault draw;
                # the sender's retransmission timer recovers it post-heal.
                self.partition_drops += 1
                self.messages_lost += 1
                if m is not None:
                    m.inc("net.partition_drops")
                    m.inc("net.messages_lost")
                return
        latency = self._cost.network_s(cells)
        copies = [0.0] if self._injector is None else self._injector.deliveries()
        if not copies:
            self.messages_lost += 1
            if m is not None:
                m.inc("net.messages_lost")
            return
        self._recipients.add(to)
        if m is not None and len(copies) > 1:
            m.inc("net.messages_duplicated", float(len(copies) - 1))
        for extra in copies:
            arrival = sent_at + latency + extra
            heapq.heappush(
                self._inboxes[to], _Envelope(arrival, next(self._seq), message)
            )

    def mark_dead(self, worker: int) -> None:
        """Discard a crashed worker's inbox and all future mail to it."""
        self._dead.add(worker)
        dropped = len(self._inboxes[worker])
        self.messages_lost += dropped
        if self.metrics is not None and dropped:
            self.metrics.inc("net.messages_lost", float(dropped))
        self._inboxes[worker].clear()
        self._recipients.add(worker)

    def is_dead(self, worker: int) -> bool:
        """Whether the worker has been marked crashed."""
        return worker in self._dead

    def earliest_arrival(self, worker: int) -> float | None:
        """Arrival time of the next message for a worker, or ``None``."""
        inbox = self._inboxes[worker]
        return inbox[0].arrival if inbox else None

    def receive(self, worker: int, now: float) -> list[CellRequest | CellResponse]:
        """Pop every message that has arrived by ``now``."""
        inbox = self._inboxes[worker]
        out: list[CellRequest | CellResponse] = []
        while inbox and inbox[0].arrival <= now:
            out.append(heapq.heappop(inbox).message)  # type: ignore[arg-type]
        return out

    def pending(self, worker: int) -> int:
        """Messages still in flight toward a worker."""
        return len(self._inboxes[worker])

    def drain_recipients(self) -> set[int]:
        """Workers whose inbox changed from outside since the last drain."""
        recipients = self._recipients
        self._recipients = set()
        return recipients

    # -- checkpoint support ------------------------------------------------------

    def state(self) -> dict:
        """Exact channel state for a checkpoint.

        Inbox heaps are captured verbatim (a heap layout is restored as a
        heap layout) and the seq / msg-id counter positions are preserved,
        so delivery tie-breaking after a resume matches the uninterrupted
        run exactly.
        """
        next_seq = next(self._seq)
        self._seq = itertools.count(next_seq)
        next_msg = next(self._msg_ids)
        self._msg_ids = itertools.count(next_msg)
        return {
            "inboxes": [
                [[e.arrival, e.seq, _message_state(e.message)] for e in inbox]
                for inbox in self._inboxes
            ],
            "next_seq": next_seq,
            "next_msg_id": next_msg,
            "dead": sorted(self._dead),
            "messages_sent": self.messages_sent,
            "cells_shipped": self.cells_shipped,
            "messages_lost": self.messages_lost,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this network."""
        self._inboxes = [
            [
                _Envelope(float(arrival), int(seq), _message_from_state(message))
                for arrival, seq, message in inbox
            ]
            for inbox in state["inboxes"]
        ]
        self._seq = itertools.count(int(state["next_seq"]))
        self._msg_ids = itertools.count(int(state["next_msg_id"]))
        self._dead = {int(w) for w in state["dead"]}
        # Derived, never serialised: every inbox was just replaced.
        self._recipients = set(range(len(self._inboxes)))
        self.messages_sent = int(state["messages_sent"])
        self.cells_shipped = int(state["cells_shipped"])
        self.messages_lost = int(state["messages_lost"])


def _message_state(message) -> dict:
    """Serialize one in-flight message (payload dict order preserved)."""
    if isinstance(message, CellRequest):
        return {
            "kind": "request",
            "requester": message.requester,
            "cells": [list(c) for c in message.cells],
            "msg_id": message.msg_id,
            "attempt": message.attempt,
        }
    return {
        "kind": "response",
        "responder": message.responder,
        "msg_id": message.msg_id,
        "payloads": [
            [
                list(cell),
                [
                    [key, [st.count, st.total, st.minimum, st.maximum]]
                    for key, st in stats.items()
                ],
            ]
            for cell, stats in message.payloads.items()
        ],
    }


def _message_from_state(state: dict) -> "CellRequest | CellResponse":
    """Inverse of :func:`_message_state`."""
    if state["kind"] == "request":
        return CellRequest(
            int(state["requester"]),
            tuple(tuple(int(x) for x in c) for c in state["cells"]),
            int(state["msg_id"]),
            int(state["attempt"]),
        )
    return CellResponse(
        int(state["responder"]),
        {
            tuple(int(x) for x in cell): {
                str(key): CellStats(int(c), float(t), float(mn), float(mx))
                for key, (c, t, mn, mx) in stats
            }
            for cell, stats in state["payloads"]
        },
        int(state["msg_id"]),
    )
