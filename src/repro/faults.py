"""The fault kernel: one plan arithmetic, one degradation record, one outcome rule.

Three layers inject seeded faults — messages and workers
(:mod:`repro.distributed.faults`), heap pages
(:mod:`repro.storage.integrity`) and real-backend operations
(:mod:`repro.storage.resilience`) — and all three keep the same promise:
*complete, or degraded with a manifest, never raise*.  What they share
lives here, once:

* :class:`FaultVocabulary` — the arithmetic of a seeded plan: per-kind
  probabilities in ``[0, 1]`` summing to at most 1, scheduled
  ``(index, kind)`` overrides naming each index once, ``total_prob`` /
  ``active``, the roll→kind :func:`pick`, the even-split ``chaos`` share;
* :class:`FaultTally` — per-kind injection counts with an exact
  ``state()`` / ``restore_state()`` round trip;
* :class:`Degradation` — what a layer could not deliver, and why;
* :func:`outcome_of` — the one mapping from a report's flags to
  ``complete`` | ``degraded`` | ``aborted`` | ``interrupted``;
* :func:`event_kind` — the late ``EventKind`` binding that keeps
  ``storage`` from importing ``core`` eagerly.

Each layer keeps its own fault kinds and its own RNG discipline (one
sequential stream per send, one vectorised draw per read, a generator
per ``(seed, op_index)``); this module draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ConfigError

__all__ = [
    "Degradation",
    "FaultTally",
    "FaultVocabulary",
    "check_prob",
    "event_kind",
    "outcome_of",
    "pick",
]


def check_prob(name: str, p: float) -> None:
    """Reject a probability outside ``[0, 1]``."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {p}")


def pick(roll: float, probs: Sequence[float]) -> int | None:
    """Index of the fault a uniform ``roll`` selects, or ``None``.

    Kind *i* owns the half-open interval between the running sums of
    ``probs[:i]`` and ``probs[:i + 1]``; a roll past the last edge is a
    clean operation.  The edges are accumulated left to right in floats,
    and every family's pinned draw sequence depends on exactly that
    expression (``tests/test_fault_kernel.py``).
    """
    edge = 0.0
    for i, p in enumerate(probs):
        edge += p
        if roll < edge:
            return i
    return None


class FaultVocabulary:
    """Plan arithmetic for a frozen plan dataclass that names its fault kinds.

    ``VOCABULARY`` maps each kind to the dataclass field holding its
    probability, in pick order; ``SCHEDULED`` names the field of
    ``(index, kind)`` overrides and what the index counts, when the plan
    has one; ``LABEL`` words the error messages.
    """

    LABEL = "fault"
    VOCABULARY: dict[str, str] = {}
    SCHEDULED: tuple[str, str] | None = None

    @property
    def probs(self) -> tuple[float, ...]:
        """Per-kind probabilities, in pick order."""
        return tuple(getattr(self, name) for name in self.VOCABULARY.values())

    @property
    def total_prob(self) -> float:
        """Combined probability that one draw injects anything."""
        total = 0.0
        for p in self.probs:
            total += p
        return total

    @property
    def active(self) -> bool:
        """Whether this plan can ever inject anything."""
        scheduled = getattr(self, self.SCHEDULED[0]) if self.SCHEDULED else ()
        return self.total_prob > 0.0 or bool(scheduled)

    def pick(self, roll: float) -> str | None:
        """The kind a uniform ``roll`` selects, or ``None`` (see :func:`pick`)."""
        i = pick(roll, self.probs)
        return None if i is None else tuple(self.VOCABULARY)[i]

    def validate_vocabulary(self) -> None:
        """Check the probabilities and the scheduled overrides."""
        for name in self.VOCABULARY.values():
            check_prob(name, getattr(self, name))
        if self.total_prob > 1.0:
            raise ConfigError(f"{self.LABEL} probabilities must sum to <= 1")
        if self.SCHEDULED is None:
            return
        entries, unit = self.SCHEDULED
        seen: set[int] = set()
        for index, kind in getattr(self, entries):
            if index < 0:
                raise ConfigError(f"scheduled {unit} must be >= 0, got {index}")
            if kind not in self.VOCABULARY:
                raise ConfigError(
                    f"unknown {self.LABEL} kind {kind!r}; "
                    f"choose from {tuple(self.VOCABULARY)}"
                )
            if index in seen:
                raise ConfigError(f"{unit} {index} is scheduled more than once")
            seen.add(index)

    @classmethod
    def even_split(cls, rate: float) -> dict[str, float]:
        """Constructor keywords splitting ``rate`` evenly over every kind."""
        return dict.fromkeys(cls.VOCABULARY.values(), rate / len(cls.VOCABULARY))


class FaultTally:
    """Per-kind injection counts of one injector."""

    def __init__(self, kinds: Iterable[str]) -> None:
        self.injected: dict[str, int] = dict.fromkeys(kinds, 0)

    @property
    def total_injected(self) -> int:
        """Faults injected so far, every kind included."""
        return sum(self.injected.values())

    def state(self) -> dict:
        """The tally as JSON-able state (subclasses add their position)."""
        return {"injected": dict(self.injected)}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture."""
        self.injected = {str(k): int(v) for k, v in state["injected"].items()}


@dataclass(frozen=True)
class Degradation:
    """What one layer of a run could not deliver, and why.

    Attached to the report instead of raising: results that *were* found
    are still returned and this record names the holes.  ``layer`` is
    ``distributed`` | ``storage`` | ``backend``; ``lost`` maps what was
    lost to its extent (worker ids, anchor slabs, quarantined blocks,
    counts of failed operations), empty entries included so the keys of
    a layer never vary.
    """

    layer: str
    reason: str
    lost: dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable account; long id lists print as counts."""
        parts = [f"{self.layer}: {self.reason}"]
        for name, value in self.lost.items():
            if not value:
                continue
            if isinstance(value, tuple):
                parts.append(
                    f"{name} {list(value)}" if len(value) <= 8 else f"{len(value)} {name}"
                )
            else:
                parts.append(f"{name} {value!r}")
        return "; ".join(parts)


def outcome_of(
    interrupted: bool, abort_reason: str | None, degradations: Sequence[Degradation]
) -> str:
    """The one outcome rule of every report.

    ``interrupted`` — stopped before the search finished and still
    resumable (a checkpoint stop, a stream closed early); ``aborted`` —
    the run itself gave up, for ``abort_reason`` (a lifecycle limit, a
    protocol wedge; it may carry a manifest of known losses too);
    ``degraded`` — ran to its end but some layer broke a promise, named
    in ``degradations``; ``complete`` — the whole answer.
    """
    if interrupted:
        return "interrupted"
    if abort_reason is not None:
        return "aborted"
    return "degraded" if degradations else "complete"


def event_kind(name: str):
    """Late-bound ``EventKind`` lookup (the fault layers sit below ``core``)."""
    from .core.trace import EventKind

    return EventKind[name]
