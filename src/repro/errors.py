"""The exception hierarchy of the reproduction.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers can catch "anything this system decided
to reject" with one except clause.  Each concrete class additionally
inherits the builtin exception it historically was (``ValueError`` /
``RuntimeError``), keeping existing ``except ValueError`` call sites and
tests working across the migration.

The distributed layer's *recoverable* anomalies — worker crashes, lost
messages, exhausted simulations under fault injection — deliberately do
**not** raise: they degrade into a :class:`~repro.faults.Degradation`
attached to the run's report.  The classes here cover the anomalies that
indicate an actual bug or an invalid configuration.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "PartitionError",
    "ProtocolError",
    "SimulationLimitError",
    "CorruptBlockError",
    "BackendError",
    "TornWriteError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class of every deliberate error raised by this package."""


class ConfigError(ReproError, ValueError):
    """An invalid knob or parameter combination was supplied."""


class PartitionError(ReproError, ValueError):
    """Data/search-area partitioning could not be constructed as asked."""


class ProtocolError(ReproError, RuntimeError):
    """The distributed message protocol reached a state it never should.

    Raised only when no fault injection is active — with faults enabled,
    protocol anomalies are expected and handled by the recovery layer.
    """


class SimulationLimitError(ReproError, RuntimeError):
    """The discrete-event simulation exceeded its step safety valve."""


class CorruptBlockError(ReproError, RuntimeError):
    """A block read failed its checksum and could not be repaired.

    Raised from the storage layer after the repair state machine
    (bounded re-reads, then replicas) is exhausted.  The database
    front-end catches it, quarantines the blocks, and degrades the scan
    (lost tuples are excluded, the affected cells are flagged) — user
    queries therefore never see this escape; it is part of the internal
    quarantine protocol.  ``block_ids`` names the unrepairable blocks.
    """

    def __init__(self, table: str, block_ids: tuple[int, ...], kinds: tuple[str, ...] = ()) -> None:
        self.table = table
        self.block_ids = tuple(int(b) for b in block_ids)
        self.kinds = tuple(kinds)
        detail = f" ({', '.join(kinds)})" if kinds else ""
        super().__init__(
            f"unrepairable corruption in table {table!r}, "
            f"block(s) {list(self.block_ids)}{detail}"
        )


class BackendError(ReproError, RuntimeError):
    """A storage-backend operation failed (transiently or terminally).

    The real-backend analogue of a PostgreSQL query timeout, a
    ``SQLITE_BUSY`` lock, or a dropped connection.  Like
    :class:`CorruptBlockError`, this never escapes to user code: the
    resilience layer (:mod:`repro.storage.resilience`) retries with
    capped backoff, trips a circuit breaker, and degrades to the
    simulator fallback instead of raising.  ``kind`` names the fault
    taxon (``transient`` / ``busy`` / ``slow`` / ``disconnect`` /
    ``torn_install``).
    """

    def __init__(self, message: str, kind: str = "transient") -> None:
        self.kind = kind
        super().__init__(message)


class TornWriteError(BackendError):
    """An ``install_cells`` write tore partway through its journal protocol.

    Raised by a backend whose install was interrupted mid-flight (fault
    injection, or a real crash surfacing on the next call).  The install
    journal makes the operation recoverable: a retry — or reopening the
    store — rolls the pending install forward idempotently.  ``point``
    names the protocol step the tear occurred at.
    """

    def __init__(self, point: str) -> None:
        self.point = point
        super().__init__(
            f"install_cells torn at journal point {point!r}", kind="torn_install"
        )


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be taken, read, or restored.

    Covers format/version mismatches, configuration fingerprints that
    differ between the checkpointing and the resuming run, and states
    the checkpoint machinery deliberately refuses to serialize (e.g. a
    distributed run with fault injection active).
    """
