"""Accounting-identity audits over a metrics snapshot.

The instrumentation wired through the engine, storage and distributed
layers is only trustworthy if its counters stay mutually consistent — a
new code path that reads cells without charging ``dm.cell_requests``
silently poisons every benchmark built on top.  The
:class:`InvariantAuditor` cross-checks the identities the layers promise
each other at query end:

* every cell requested was either a cache hit or a cache miss;
* every block fetched from disk was either a buffer miss or part of the
  baseline's sequential scan;
* every disk read the search performed was classified cold or prefetch,
  and fed the prefetch controller exactly once;
* distributed message flow only shrinks: sends plus injected duplicate
  copies >= receives >= dedup-unique receives;
* span time accounting is conserved (``self_s`` never exceeds
  ``total_s``, nothing is negative).

Identities whose counter families are absent from the snapshot are
skipped, so the auditor works on serial runs, distributed runs, and
partial registries alike.  The test harness runs every suite query
through :meth:`verify`; benchmarks may do the same cheaply.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import ReproError
from .metrics import MetricsRegistry

__all__ = ["InvariantViolation", "InvariantAuditor"]

_EPS = 1e-9


class InvariantViolation(ReproError, AssertionError):
    """A metrics accounting identity did not hold at audit time."""


class InvariantAuditor:
    """Cross-checks accounting identities over one registry or snapshot."""

    def __init__(self, metrics: MetricsRegistry | Mapping) -> None:
        snapshot = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
        self._counters: dict[str, float] = dict(snapshot.get("counters", {}))
        self._histograms: dict[str, Mapping] = dict(snapshot.get("histograms", {}))
        self.checked: list[str] = []

    # -- identity plumbing ------------------------------------------------------

    def _c(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def _has(self, *names: str) -> bool:
        return any(name in self._counters for name in names)

    def _equal(self, label: str, lhs: float, rhs: float, out: list[str]) -> None:
        self.checked.append(label)
        if abs(lhs - rhs) > _EPS:
            out.append(f"{label}: {lhs:g} != {rhs:g} (delta {lhs - rhs:g})")

    def _at_least(self, label: str, lhs: float, rhs: float, out: list[str]) -> None:
        self.checked.append(label)
        if lhs < rhs - _EPS:
            out.append(f"{label}: {lhs:g} < {rhs:g}")

    # -- the identities ---------------------------------------------------------

    def violations(self) -> list[str]:
        """Evaluate every applicable identity; returns the failures."""
        c, out = self._c, []
        self.checked = []

        if self._has("dm.cell_requests"):
            self._equal(
                "cache accounting: cell_requests == cache_hits + cache_misses",
                c("dm.cell_requests"),
                c("dm.cache_hit_cells") + c("dm.cache_miss_cells"),
                out,
            )
            # The DBMS is asked for the *bounding box* of the unread cells,
            # so it can only ever read at least the missed cells.
            self._at_least(
                "read amplification: cells_read >= cache_misses",
                c("dm.cells_read"),
                c("dm.cache_miss_cells"),
                out,
            )

        if self._has("search.cells_requested_window", "dist.pending_cell_requests"):
            self._equal(
                "request provenance: window + prefetch + pending-serve == cell_requests",
                c("search.cells_requested_window")
                + c("search.cells_requested_prefetch")
                + c("dist.pending_cell_requests"),
                c("dm.cell_requests"),
                out,
            )

        if self._has("disk.blocks_read"):
            self._equal(
                "block accounting: blocks_read == buffer misses + sequential + scrub",
                c("disk.blocks_read"),
                c("buffer.miss_blocks")
                + c("disk.blocks_read_sequential")
                + c("disk.blocks_read_scrub"),
                out,
            )
        if self._has("buffer.block_accesses"):
            self._equal(
                "buffer accounting: accesses == hits + misses",
                c("buffer.block_accesses"),
                c("buffer.hit_blocks") + c("buffer.miss_blocks"),
                out,
            )

        if self._has("search.reads"):
            self._equal(
                "read classification: reads == cold_reads + prefetch_reads",
                c("search.reads"),
                c("search.cold_reads") + c("search.prefetch_reads"),
                out,
            )
            self._equal(
                "prefetch feedback: every read fed the controller once",
                c("prefetch.positive_reads") + c("prefetch.negative_reads"),
                c("search.reads"),
                out,
            )

        if self._has("search.windows_explored"):
            # Distributed workers park windows awaiting remote cells and
            # explore them again once unparked, so each unpark licenses
            # one extra exploration of an already-generated window.
            self._at_least(
                "exploration: explored <= generated + unparked",
                c("search.windows_generated") + c("dist.unparked_windows"),
                c("search.windows_explored"),
                out,
            )
            self._at_least(
                "results: results <= explored",
                c("search.windows_explored"),
                c("search.results"),
                out,
            )
            if self._has("span.expand.count"):
                self._equal(
                    "span cross-check: expand spans == windows explored",
                    c("span.expand.count"),
                    c("search.windows_explored"),
                    out,
                )
        if self._has("span.read.count"):
            self._equal(
                "span cross-check: read spans == DBMS reads",
                c("span.read.count"),
                c("dm.reads"),
                out,
            )

        if self._has("storage.corruptions_detected", "storage.checksum_verifications"):
            # Every detected corruption resolves exactly one way: the
            # block was repaired in place or it was quarantined.
            self._equal(
                "storage: corruptions_detected == blocks_repaired + blocks_quarantined",
                c("storage.corruptions_detected"),
                c("storage.blocks_repaired") + c("storage.blocks_quarantined"),
                out,
            )
            self._at_least(
                "storage: every corruption came from a verified read",
                c("storage.checksum_verifications"),
                c("storage.corruptions_detected"),
                out,
            )
            self._at_least(
                "storage: repairs cost at least one re-read or replica read each",
                c("storage.repair_rereads") + c("storage.replica_reads"),
                c("storage.blocks_repaired"),
                out,
            )
            if c("storage.degraded_cells") > 0:
                # Degraded cells only arise from quarantined (lost) pages.
                self._at_least(
                    "storage: degraded cells imply a quarantined block",
                    c("storage.blocks_quarantined"),
                    1.0,
                    out,
                )
        if self._has("storage.scrubbed_blocks"):
            # The scrubber reads exactly the blocks it verifies, through
            # its own disk counter (quarantined blocks are skipped).
            self._equal(
                "scrub: scrub disk reads == blocks scrubbed",
                c("disk.blocks_read_scrub"),
                c("storage.scrubbed_blocks"),
                out,
            )

        if self._has("db.cell_installs"):
            # Backend cell-install dedup: every install attempt either
            # created a new record or hit the dedup path (an in-memory
            # set on every backend).
            self._equal(
                "backend installs: cell_installs == installed + deduped",
                c("db.cell_installs"),
                c("db.cells_installed") + c("db.cell_installs_deduped"),
                out,
            )
        backend_reads = sum(
            v for k, v in self._counters.items() if k.startswith("db.backend_reads.")
        )
        if backend_reads or self._has("db.range_queries"):
            if any(k.startswith("db.backend_reads.") for k in self._counters):
                # Every range query was served by exactly one backend.
                self._equal(
                    "backend reads: range_queries == sum(backend_reads.*)",
                    c("db.range_queries"),
                    backend_reads,
                    out,
                )

        if self._has("storage.backend.ops"):
            # Resilience-layer accounting (DESIGN.md §16): every attempt
            # either succeeded or was an injected failure; slow faults
            # succeed, so they are counted on both sides of the taxonomy
            # sum; fallbacks come only from exhausted retries or an open
            # breaker, and a breaker trip needs a failed operation.
            self._equal(
                "backend resilience: attempts == successes + injected_faults",
                c("storage.backend.attempts"),
                c("storage.backend.successes") + c("storage.backend.injected_faults"),
                out,
            )
            self._equal(
                "backend resilience: attempts == ops - short_circuits + retries",
                c("storage.backend.attempts"),
                c("storage.backend.ops")
                - c("storage.backend.short_circuits")
                + c("storage.backend.retries"),
                out,
            )
            self._equal(
                "backend resilience: fallback_ops == short_circuits + failures",
                c("storage.backend.fallback_ops"),
                c("storage.backend.short_circuits") + c("storage.backend.failures"),
                out,
            )
            self._at_least(
                "backend resilience: fallback_ops >= fallback_reads",
                c("storage.backend.fallback_ops"),
                c("storage.backend.fallback_reads"),
                out,
            )
            self._at_least(
                "backend resilience: failures >= breaker trips",
                c("storage.backend.failures"),
                c("storage.backend.breaker_trips"),
                out,
            )
            fault_kinds = sum(
                v
                for k, v in self._counters.items()
                if k.startswith("storage.backend.faults.")
            )
            self._equal(
                "backend resilience: sum(faults.*) == injected_faults + slow_faults",
                fault_kinds,
                c("storage.backend.injected_faults") + c("storage.backend.slow_faults"),
                out,
            )

        if self._has("net.messages_sent"):
            self._at_least(
                "network: sends + duplicated >= receives",
                c("net.messages_sent") + c("net.messages_duplicated"),
                c("net.messages_received"),
                out,
            )
            self._at_least(
                "network: receives >= dedup-unique",
                c("net.messages_received"),
                c("net.messages_unique"),
                out,
            )
            self._equal(
                "network: unique == received - duplicates",
                c("net.messages_unique"),
                c("net.messages_received") - c("net.duplicates_ignored"),
                out,
            )
            self._at_least(
                "network: cells shipped >= cells installed",
                c("net.cells_shipped"),
                c("dist.cells_installed"),
                out,
            )
            self._at_least(
                "network: messages lost >= partition drops",
                c("net.messages_lost"),
                c("net.partition_drops"),
                out,
            )
            self._at_least(
                "network: sends >= hedged duplicates",
                c("net.messages_sent"),
                c("dist.hedges"),
                out,
            )

        if self._has("dist.deaths_declared"):
            # Liveness accounting: every declaration is either a crash
            # detection or a fencing of a live-but-unreachable worker,
            # and recovery traffic implies at least one adoption message
            # per directive.
            self._equal(
                "liveness: declarations == detections + fencings",
                c("dist.deaths_declared"),
                c("dist.crash_detections") + c("dist.fenced_workers"),
                out,
            )
            self._at_least(
                "liveness: reassignment messages >= adoptions",
                c("dist.reassignment_msgs"),
                c("dist.adoptions"),
                out,
            )

        if self._has("serve.sessions_submitted"):
            # Serving-layer lifecycle: every submission is admitted,
            # rejected (fleet capacity) or throttled (tenant quota);
            # nothing completes without having been admitted; the
            # scheduler hands out at least one slice per completion;
            # parked sessions can only be resumed after a park.
            self._equal(
                "serve: submitted == admitted + rejected + throttled",
                c("serve.sessions_submitted"),
                c("serve.sessions_admitted")
                + c("serve.sessions_rejected")
                + c("serve.sessions_throttled"),
                out,
            )
            self._at_least(
                "serve: admitted >= completed",
                c("serve.sessions_admitted"),
                c("serve.sessions_completed"),
                out,
            )
            self._at_least(
                "serve: slices >= sessions completed",
                c("serve.slices"),
                c("serve.sessions_completed"),
                out,
            )
            self._at_least(
                "serve: parks >= resumes",
                c("serve.parks"),
                c("serve.resumes"),
                out,
            )
        if self._has("serve.quota.checks"):
            # Tenant quota gate: every check is granted or denied, and
            # every denial surfaced as a THROTTLED session.
            self._equal(
                "serve quota: checks == granted + denied",
                c("serve.quota.checks"),
                c("serve.quota.granted") + c("serve.quota.denied"),
                out,
            )
            self._equal(
                "serve quota: denied == sessions throttled",
                c("serve.quota.denied"),
                c("serve.sessions_throttled"),
                out,
            )
        if self._has("serve.cache.lookup_cells"):
            self._equal(
                "serve cache: lookups == hits + misses",
                c("serve.cache.lookup_cells"),
                c("serve.cache.hit_cells") + c("serve.cache.miss_cells"),
                out,
            )
            self._equal(
                "serve cache: promoted == inserted + refreshed",
                c("serve.cache.promoted_cells"),
                c("serve.cache.inserted_cells") + c("serve.cache.refreshed_cells"),
                out,
            )

        for name in sorted(self._counters):
            if name.startswith("span.") and name.endswith(".total_s"):
                phase = name[len("span."):-len(".total_s")]
                total = c(name)
                self_s = c(f"span.{phase}.self_s")
                self._at_least(f"span[{phase}]: total_s >= 0", total, 0.0, out)
                self._at_least(f"span[{phase}]: self_s >= 0", self_s, 0.0, out)
                self._at_least(f"span[{phase}]: total_s >= self_s", total, self_s, out)

        if "dm.cells_per_read" in self._histograms and self._has("dm.reads"):
            observed = float(sum(self._histograms["dm.cells_per_read"]["counts"]))
            self._equal(
                "histogram conservation: cells_per_read observations == dm.reads",
                observed,
                c("dm.reads"),
                out,
            )

        return out

    def verify(self) -> None:
        """Raise :class:`InvariantViolation` if any identity fails."""
        failures = self.violations()
        if failures:
            raise InvariantViolation(
                f"{len(failures)} invariant(s) violated "
                f"({len(self.checked)} checked):\n  " + "\n  ".join(failures)
            )

    def report(self) -> dict:
        """Machine-readable outcome: checked identities and violations."""
        failures = self.violations()
        return {
            "checked": len(self.checked),
            "violations": list(failures),
            "ok": not failures,
        }
