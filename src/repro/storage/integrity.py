"""Block-level storage integrity: checksums, fault injection, scrub/repair.

The paper's online-exploration contract is *exact* results; that only
holds if every heap page the search reads is the page that was written.
This module adds the integrity layer a production backend would carry:

* every block gets a CRC-32 **checksum** computed when integrity is
  attached (the simulated analogue of a page checksum written at flush
  time);
* a seeded :class:`StorageFaultPlan` — a corruption vocabulary over the
  shared fault kernel, :mod:`repro.faults` — injects *bit-rot*
  (transient read-path corruption), *torn writes* and *lost writes*
  (persistent media corruption) at read time;
* detection triggers the repair state machine: bounded **re-reads** for
  transient faults, then **replica reads**; exhausted repairs quarantine
  the block and raise :class:`~repro.errors.CorruptBlockError`, which the
  database front-end converts into degraded scans (lost tuples excluded,
  affected grid cells flagged) — the storage twin of
  ``DataManager.mark_region_empty`` degradation;
* a :class:`Scrubber` walks the device in the background (between search
  steps, or via ``repro scrub``) so latent corruption is found before a
  query trips over it.

Everything is deterministic: one seeded generator per injector, consulted
in read order, so the same plan over the same workload corrupts the same
blocks.  Like the rest of the observability surface this layer is opt-in
and pay-nothing — a database without :meth:`Database.attach_integrity`
never computes a checksum.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, CorruptBlockError, ReproError
from ..faults import Degradation, FaultTally, FaultVocabulary, check_prob, event_kind

__all__ = [
    "CORRUPTION_KINDS",
    "StorageFaultPlan",
    "StorageFaultInjector",
    "BlockIntegrity",
    "Scrubber",
]

#: Fault taxonomy: ``bitrot`` is transient (a re-read may return the good
#: page); ``torn`` and ``lost`` writes are persistent media damage that
#: only a replica can heal.
CORRUPTION_KINDS = ("bitrot", "torn", "lost")

_TRANSIENT_KINDS = frozenset({"bitrot"})


@dataclass(frozen=True)
class StorageFaultPlan(FaultVocabulary):
    """A seeded schedule of storage corruption.

    ``bitrot_prob`` / ``torn_write_prob`` / ``lost_write_prob`` apply per
    block per read; torn and lost writes persist on the media until
    repaired.  ``corrupt_blocks`` schedules targeted corruption — each
    ``(block_id, kind)`` entry fires on the first read (or scrub) of that
    block, which is what the deterministic test suite uses.  Repair is
    bounded by ``max_rereads`` attempts (transient faults only, each
    succeeding with ``reread_success_prob``) and ``replicas`` replica
    reads (each failing with ``replica_failure_prob``).
    """

    seed: int = 0
    bitrot_prob: float = 0.0
    torn_write_prob: float = 0.0
    lost_write_prob: float = 0.0
    corrupt_blocks: tuple[tuple[int, str], ...] = ()
    reread_success_prob: float = 0.75
    max_rereads: int = 2
    replicas: int = 1
    replica_failure_prob: float = 0.0

    LABEL = "corruption"
    VOCABULARY = dict(
        zip(CORRUPTION_KINDS, ("bitrot_prob", "torn_write_prob", "lost_write_prob"))
    )
    SCHEDULED = ("corrupt_blocks", "corrupt block")

    def __post_init__(self) -> None:
        self.validate_vocabulary()
        check_prob("reread_success_prob", self.reread_success_prob)
        check_prob("replica_failure_prob", self.replica_failure_prob)
        if self.max_rereads < 0:
            raise ConfigError(f"max_rereads must be >= 0, got {self.max_rereads}")
        if self.replicas < 0:
            raise ConfigError(f"replicas must be >= 0, got {self.replicas}")

    @classmethod
    def chaos(cls, seed: int, corruption_rate: float = 0.02) -> "StorageFaultPlan":
        """A randomized-but-seeded plan mixing every corruption kind.

        ``corruption_rate`` splits evenly across bit-rot, torn and lost
        writes; repairs mostly succeed (one replica, 10 % replica
        failure), so a chaos run exercises the full detect → repair →
        quarantine pipeline while staying overwhelmingly recoverable.
        """
        return cls(
            seed=seed,
            **cls.even_split(corruption_rate),
            reread_success_prob=0.7,
            max_rereads=2,
            replicas=1,
            replica_failure_prob=0.1,
        )


class StorageFaultInjector(FaultTally):
    """Executes a :class:`StorageFaultPlan` deterministically.

    One seeded generator; one vectorized draw batch per verified read
    (skipped entirely when all probabilities are zero), plus one draw per
    repair attempt.  Torn/lost corruption persists in ``_latent`` until a
    replica repair rewrites the block.
    """

    def __init__(self, plan: StorageFaultPlan) -> None:
        super().__init__(CORRUPTION_KINDS)  # latent re-hits are not recounted
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._random = plan.total_prob > 0.0
        self._scheduled: dict[int, str] = dict(plan.corrupt_blocks)
        self._latent: dict[int, str] = {}

    def corruptions_for(self, block_ids: np.ndarray) -> list[tuple[int, str]]:
        """Corrupt blocks among ``block_ids`` for one read, in id order.

        Scheduled and latent corruption take precedence over the random
        draw; with zero probabilities and an empty schedule this is a
        cheap no-op (the checksum-overhead gate measures exactly that
        path).
        """
        if not self._random and not self._scheduled and not self._latent:
            return []
        rolls = self._rng.random(block_ids.size) if self._random else None
        out: list[tuple[int, str]] = []
        for i, raw in enumerate(block_ids):
            block = int(raw)
            kind = self._latent.get(block)
            if kind is not None:
                out.append((block, kind))
                continue
            kind = self._scheduled.pop(block, None)
            if kind is None and rolls is not None:
                kind = self.plan.pick(float(rolls[i]))
            if kind is None:
                continue
            self.injected[kind] += 1
            if kind not in _TRANSIENT_KINDS:
                self._latent[block] = kind
            out.append((block, kind))
        return out

    def reread_ok(self) -> bool:
        """One re-read attempt's outcome (transient faults only)."""
        return float(self._rng.random()) < self.plan.reread_success_prob

    def replica_ok(self) -> bool:
        """One replica read's outcome."""
        return float(self._rng.random()) >= self.plan.replica_failure_prob

    def clear(self, block_id: int) -> None:
        """Forget latent corruption of a block (a repair rewrote it)."""
        self._latent.pop(block_id, None)

    # -- checkpoint support ------------------------------------------------------

    def state(self) -> dict:
        """Exact injector state (RNG stream position included)."""
        return {
            "rng": self._rng.bit_generator.state,
            "scheduled": sorted(self._scheduled.items()),
            "latent": sorted(self._latent.items()),
            **super().state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this injector."""
        super().restore_state(state)
        self._rng.bit_generator.state = state["rng"]
        self._scheduled = {int(b): str(k) for b, k in state["scheduled"]}
        self._latent = {int(b): str(k) for b, k in state["latent"]}


class BlockIntegrity:
    """Checksums, verification, and the repair state machine for one table.

    Created by :meth:`Database.attach_integrity` and consulted by
    :meth:`SimulatedDisk.read` after its cost accounting: every fetched
    block is checksum-verified; a mismatch walks *detect → re-read →
    replica → quarantine*.  Repair I/O charges the simulated clock (one
    seek plus one transfer per attempt) but never the block counters —
    the auditor's block-accounting identity stays exact.
    """

    def __init__(self, table, disk, buffer, plan: StorageFaultPlan) -> None:
        self.table = table
        self.plan = plan
        self._disk = disk
        self._buffer = buffer
        self.injector = StorageFaultInjector(plan)
        self.checksums = self._block_checksums(table)
        self.quarantined: set[int] = set()
        self.degraded_cells: set[int] = set()
        # Counters (mirrored into metrics when a registry is attached).
        self.verifications = 0
        self.corruptions_detected = 0
        self.blocks_repaired = 0
        self.repair_rereads = 0
        self.replica_reads = 0
        self.scrubbed_blocks = 0
        self.scrub_passes = 0
        # Optional observability (repro.obs): attached by Database.
        self.metrics = None
        self.trace = None

    @staticmethod
    def _block_checksums(table) -> np.ndarray:
        """CRC-32 of every block's column bytes (fixed column order)."""
        sums = np.empty(table.num_blocks, dtype=np.uint32)
        columns = [table.column(c) for c in table.schema.columns]
        for b in range(table.num_blocks):
            rows = table.block_rows(b)
            crc = 0
            for col in columns:
                crc = zlib.crc32(np.ascontiguousarray(col[rows]).tobytes(), crc)
            sums[b] = crc
        return sums

    def deep_verify(self, block_id: int) -> bool:
        """Recompute a block's CRC against the stored checksum.

        The scrubber's "read the bytes back" check; in the simulation the
        in-memory arrays are immutable, so a mismatch indicates a harness
        bug, not injected corruption (which lives in the fault state).
        """
        span = self.table.block_rows(int(block_id))
        rows = np.arange(span.start, span.stop, dtype=np.int64)
        crc = 0
        for name in self.table.schema.columns:
            crc = zlib.crc32(
                np.ascontiguousarray(self.table.gather(name, rows)).tobytes(), crc
            )
        return np.uint32(crc) == self.checksums[int(block_id)]

    # -- the read-path hook ------------------------------------------------------

    def verify_read(self, block_ids: np.ndarray) -> float:
        """Checksum-verify one read; repair or quarantine corrupt blocks.

        Returns the extra simulated seconds spent on repair I/O.  Raises
        :class:`CorruptBlockError` naming every block this read could not
        repair (after quarantining them) — the database front-end catches
        it and degrades the scan.
        """
        n = int(block_ids.size)
        self.verifications += n
        m = self.metrics
        if m is not None:
            m.inc("storage.checksum_verifications", float(n))
        corrupt = self.injector.corruptions_for(block_ids)
        stale = (
            [int(b) for b in block_ids if int(b) in self.quarantined]
            if self.quarantined
            else []
        )
        if not corrupt and not stale:
            return 0.0
        start = self._disk.clock.now
        bad: list[int] = []
        kinds: list[str] = []
        already = set(stale)
        for block, kind in corrupt:
            if block in already:
                continue
            self.corruptions_detected += 1
            if m is not None:
                m.inc("storage.corruptions_detected")
            if self.trace is not None:
                self.trace.record(
                    event_kind("CORRUPT"),
                    self._disk.clock.now,
                    block=block,
                    corruption=kind,
                    table=self.table.name,
                )
            if not self._repair(block, kind):
                self._quarantine(block, kind)
                bad.append(block)
                kinds.append(kind)
        for block in stale:
            bad.append(block)
            kinds.append("quarantined")
        elapsed = self._disk.clock.now - start
        if bad:
            raise CorruptBlockError(self.table.name, tuple(bad), tuple(kinds))
        return elapsed

    def _repair(self, block: int, kind: str) -> bool:
        """Bounded re-reads (transient faults), then replicas."""
        plan = self.plan
        m = self.metrics
        cost_one = self._disk.charge_block_cost()
        if kind in _TRANSIENT_KINDS:
            for _ in range(plan.max_rereads):
                self.repair_rereads += 1
                if m is not None:
                    m.inc("storage.repair_rereads")
                self._disk.charge(cost_one)
                if self.injector.reread_ok():
                    return self._mark_repaired(block, kind, "reread")
        for _ in range(plan.replicas):
            self.replica_reads += 1
            if m is not None:
                m.inc("storage.replica_reads")
            self._disk.charge(cost_one)
            if self.injector.replica_ok():
                self.injector.clear(block)
                return self._mark_repaired(block, kind, "replica")
        return False

    def _mark_repaired(self, block: int, kind: str, via: str) -> bool:
        self.blocks_repaired += 1
        if self.metrics is not None:
            self.metrics.inc("storage.blocks_repaired")
        if self.trace is not None:
            self.trace.record(
                event_kind("REPAIR"),
                self._disk.clock.now,
                block=block,
                corruption=kind,
                via=via,
                outcome="repaired",
            )
        return True

    def _quarantine(self, block: int, kind: str) -> None:
        self.quarantined.add(block)
        if self.metrics is not None:
            self.metrics.inc("storage.blocks_quarantined")
        if self.trace is not None:
            self.trace.record(
                event_kind("REPAIR"),
                self._disk.clock.now,
                block=block,
                corruption=kind,
                outcome="quarantined",
            )
        if self._buffer is not None:
            self._buffer.drop(block)

    def record_degraded_cells(self, cells) -> tuple[int, ...]:
        """Register grid cells whose aggregates lost tuples; returns the new ones."""
        fresh = tuple(int(c) for c in cells if int(c) not in self.degraded_cells)
        if fresh:
            self.degraded_cells.update(fresh)
            if self.metrics is not None:
                self.metrics.inc("storage.degraded_cells", float(len(fresh)))
        return fresh

    def degradation(self, degraded_cells) -> Degradation | None:
        """What a query lost to unrepairable corruption of this table, if anything.

        ``blocks`` are the quarantined heap pages; ``cells`` the query's
        flat grid cell ids whose aggregates may be missing tuples.
        """
        if not self.quarantined and not degraded_cells:
            return None
        return Degradation(
            "storage",
            "unrepairable block corruption",
            {
                "table": self.table.name,
                "blocks": tuple(sorted(self.quarantined)),
                "cells": tuple(sorted(degraded_cells)),
            },
        )

    # -- scrubbing ---------------------------------------------------------------

    def scrub_blocks(self, block_ids: np.ndarray) -> dict:
        """Scrub a block range: read, verify, deep-check, repair in place.

        Quarantined blocks are skipped (there is nothing left to read).
        Scrub I/O goes straight to the device — the buffer pool's working
        set stays untouched — and is charged to its own counter so the
        block-accounting identity still balances.
        """
        ids = np.asarray(block_ids, dtype=np.int64)
        if self.quarantined:
            ids = ids[~np.isin(ids, np.fromiter(self.quarantined, dtype=np.int64))]
        found_before = self.corruptions_detected
        quarantined_before = len(self.quarantined)
        if ids.size:
            if self.metrics is not None:
                self.metrics.inc("disk.blocks_read_scrub", float(ids.size))
            try:
                self._disk.read(ids)
            except CorruptBlockError:
                pass  # quarantined inside verify_read; queries degrade later
            for block in ids:
                if int(block) in self.quarantined:
                    continue
                if not self.deep_verify(int(block)):  # pragma: no cover - harness bug
                    raise ReproError(
                        f"checksum table inconsistent for block {int(block)} "
                        f"of table {self.table.name!r}"
                    )
            self.scrubbed_blocks += int(ids.size)
            if self.metrics is not None:
                self.metrics.inc("storage.scrubbed_blocks", float(ids.size))
        report = {
            "blocks": int(ids.size),
            "corruptions": self.corruptions_detected - found_before,
            "quarantined": len(self.quarantined) - quarantined_before,
        }
        if self.trace is not None and ids.size:
            self.trace.record(
                event_kind("SCRUB"),
                self._disk.clock.now,
                table=self.table.name,
                **report,
            )
        return report

    # -- checkpoint support ------------------------------------------------------

    def state(self) -> dict:
        """Exact integrity state for a checkpoint."""
        return {
            "injector": self.injector.state(),
            "quarantined": sorted(self.quarantined),
            "degraded_cells": sorted(self.degraded_cells),
            "counters": {
                "verifications": self.verifications,
                "corruptions_detected": self.corruptions_detected,
                "blocks_repaired": self.blocks_repaired,
                "repair_rereads": self.repair_rereads,
                "replica_reads": self.replica_reads,
                "scrubbed_blocks": self.scrubbed_blocks,
                "scrub_passes": self.scrub_passes,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this integrity layer."""
        self.injector.restore_state(state["injector"])
        self.quarantined = {int(b) for b in state["quarantined"]}
        self.degraded_cells = {int(c) for c in state["degraded_cells"]}
        for name, value in state["counters"].items():
            setattr(self, name, int(value))


class Scrubber:
    """A background scrubber walking one table's device in bounded steps.

    The search loop calls :meth:`step` between explorations (a few blocks
    each time, like PostgreSQL's checksum-verifying background worker);
    the ``repro scrub`` CLI calls :meth:`run` for a full pass.  Scrub I/O
    advances the simulated clock, so an attached scrubber deliberately
    competes with the query for device time.
    """

    def __init__(self, database, table_name: str, blocks_per_step: int = 8) -> None:
        if blocks_per_step <= 0:
            raise ConfigError(
                f"blocks_per_step must be positive, got {blocks_per_step}"
            )
        self._integrity = database.integrity(table_name)
        if self._integrity is None:
            raise ConfigError(
                f"table {table_name!r} has no integrity layer; "
                f"call Database.attach_integrity first"
            )
        self._disk = database.disk(table_name)
        self._metrics_of = database  # registry may attach after construction
        self.table_name = table_name
        self.blocks_per_step = blocks_per_step
        self.cursor = 0
        self.passes = 0

    def step(self, blocks: int | None = None) -> dict:
        """Scrub the next ``blocks`` (default ``blocks_per_step``) blocks."""
        n = blocks if blocks is not None else self.blocks_per_step
        total = self._disk.num_blocks
        hi = min(self.cursor + n, total)
        ids = np.arange(self.cursor, hi, dtype=np.int64)
        report = self._integrity.scrub_blocks(ids)
        report["start"] = self.cursor
        self.cursor = hi
        if self.cursor >= total:
            self.cursor = 0
            self.passes += 1
            self._integrity.scrub_passes += 1
            metrics = self._metrics_of.metrics
            if metrics is not None:
                metrics.inc("storage.scrub_passes")
        return report

    def run(self) -> dict:
        """One full pass over the device from the current cursor."""
        totals = {"blocks": 0, "corruptions": 0, "quarantined": 0}
        while True:
            report = self.step()
            for key in totals:
                totals[key] += report[key]
            if self.cursor == 0:
                break
        totals["passes"] = self.passes
        return totals

    def state(self) -> dict:
        """Scrubber cursor state for a checkpoint."""
        return {"cursor": self.cursor, "passes": self.passes}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture."""
        self.cursor = int(state["cursor"])
        self.passes = int(state["passes"])
