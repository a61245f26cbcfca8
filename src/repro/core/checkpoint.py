"""Checkpoint serialization helpers shared by the serial and distributed paths.

A checkpoint is a plain dict of JSON-able values plus numpy arrays (the
Data Manager's cell-cache overlays).  :mod:`repro.io` persists that shape
to a single ``.npz`` file; this module holds the converters between live
objects — windows, result windows, trace events — and their serialized
forms, so the search engine and the distributed workers agree on one
format.

Determinism contract: restoring a checkpoint and continuing must produce
byte-identical results, traces and metrics to the uninterrupted run.
Everything here therefore round-trips *exactly* — floats are never
re-derived, tie-breaking sequence numbers are preserved verbatim (see
:meth:`~repro.core.pqueue.SpillableQueue.state`), and ``ResultWindow``
bounds are rebuilt from the same ``window.rect(grid)`` computation that
produced them.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import CheckpointError
from .grid import Grid
from .query import ResultWindow
from .trace import EventKind, SearchTrace, TraceEvent
from .window import Window

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "check_capture",
    "window_to_state",
    "window_from_state",
    "result_to_state",
    "result_from_state",
    "results_to_state",
    "results_from_state",
    "trace_to_state",
    "load_trace_state",
]

# Version 2: the frontier queue serializes its structure-of-arrays head
# (sorted block + pending heap) instead of a single heap list.
# Version 3: a distributed worker's ``generated`` is a sorted list of
# packed integer keys, like the serial capture's, and holds no seeds.
CHECKPOINT_FORMAT_VERSION = 3


def check_capture(state: dict, fingerprint: dict, kind: str | None = None) -> None:
    """Refuse a capture of another format, kind or configuration.

    ``kind`` is ``None`` for a serial capture and ``"distributed"`` for a
    coordinator's; ``fingerprint`` is what the resuming run would write
    under ``state["config"]``.  A mismatch names the differing keys.
    """
    if state.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {state.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    if state.get("kind") != kind:
        raise CheckpointError(
            f"expected a {kind or 'serial'} checkpoint, got kind={state.get('kind')!r}"
        )
    saved = state["config"]
    if saved != fingerprint:
        mismatched = sorted(
            k for k in set(saved) | set(fingerprint) if saved.get(k) != fingerprint.get(k)
        )
        scope = f"{kind} " if kind else ""
        raise CheckpointError(
            f"checkpoint was taken under a different {scope}configuration; "
            f"mismatched keys: {mismatched}"
        )


def window_to_state(window: Window | None) -> list | None:
    """``[lo, hi]`` integer lists, or ``None`` for no window."""
    if window is None:
        return None
    return [list(window.lo), list(window.hi)]


def window_from_state(state: Sequence | None) -> Window | None:
    """Inverse of :func:`window_to_state`."""
    if state is None:
        return None
    lo, hi = state
    return Window.unchecked(tuple(int(x) for x in lo), tuple(int(x) for x in hi))


def result_to_state(result: ResultWindow) -> dict:
    """Serialize one result window.

    ``bounds`` is not stored: it is ``window.rect(grid)`` exactly, and
    recomputing it on restore reproduces the same floats.
    """
    return {
        "window": window_to_state(result.window),
        "objective_values": dict(result.objective_values),
        "time": result.time,
    }


def result_from_state(state: dict, grid: Grid) -> ResultWindow:
    """Inverse of :func:`result_to_state`."""
    window = window_from_state(state["window"])
    return ResultWindow(
        window=window,
        bounds=window.rect(grid),
        objective_values={str(k): float(v) for k, v in state["objective_values"].items()},
        time=float(state["time"]),
    )


def results_to_state(results: Sequence[ResultWindow]) -> list[dict]:
    """Serialize a result list in emission order."""
    return [result_to_state(r) for r in results]


def results_from_state(states: Sequence[dict], grid: Grid) -> list[ResultWindow]:
    """Inverse of :func:`results_to_state`."""
    return [result_from_state(s, grid) for s in states]


def trace_to_state(trace: SearchTrace) -> list[dict]:
    """Serialize the trace timeline recorded so far.

    CHECKPOINT events are *live-only* marks of the capturing run and are
    excluded, so a resumed run's trace ends up byte-identical to an
    uninterrupted one.
    """
    out = []
    for event in trace:
        if event.kind is EventKind.CHECKPOINT:
            continue
        out.append(
            {
                "kind": event.kind.value,
                "time": event.time,
                "window": window_to_state(event.window),
                "detail": {k: _encode_detail(v) for k, v in event.detail.items()},
            }
        )
    return out


def load_trace_state(trace: SearchTrace, states: Sequence[dict]) -> None:
    """Replace ``trace``'s events with a :func:`trace_to_state` capture."""
    events = [
        TraceEvent(
            EventKind(s["kind"]),
            float(s["time"]),
            window_from_state(s["window"]),
            {str(k): _decode_detail(v) for k, v in s["detail"].items()},
        )
        for s in states
    ]
    trace._events[:] = events


def _encode_detail(value):
    """JSON-safe encoding of one trace-detail value (windows tagged)."""
    if isinstance(value, Window):
        return {"__window__": window_to_state(value)}
    return value


def _decode_detail(value):
    """Inverse of :func:`_encode_detail`."""
    if isinstance(value, dict) and "__window__" in value:
        return window_from_state(value["__window__"])
    return value
