"""The search priority queue, with an optional spill-to-buckets tail.

Section 4.1 notes that the number of candidate windows can exceed memory:
"It is possible to spill the tail of the queue into disk and keep only its
head in memory ... the tail can be separated into several buckets of
different utility ranges where windows inside a bucket have an arbitrary
ordering."

:class:`SpillableQueue` implements that design: a bounded in-memory
*head*, plus fixed utility-range *buckets* holding the tail in arbitrary
order.  Pushes below the spill threshold go straight to a bucket; when
the head drains, the highest non-empty bucket is promoted back into
memory.  With a large ``head_capacity`` it behaves as an exact max-queue
— the default for the in-memory experiments.

**Structure-of-arrays head.**  The head is split into two parts:

* a **sorted block** — parallel numpy arrays (negated priorities,
  insertion seqs, packed window bounds, Data Manager versions) kept in
  pop order.  Bulk inserts (:meth:`push_many_arrays`) land here through
  one ``np.lexsort`` merge, so seeding 10^4-10^5 start windows never
  builds a Python tuple or :class:`Window` per entry; windows are
  materialized lazily, on pop.
* a **pending heap** — a small binary heap of tuples absorbing
  incremental :meth:`push` traffic between bulk merges.

:meth:`pop` compares the block head against the pending top, so the
observable pop order is exactly the old all-heap implementation's:
entries come out by ``(utility, benefit)`` descending with insertion
order (``seq``) breaking exact priority ties.

Entries are ``(priority, window, version)`` where ``version`` is the Data
Manager version at estimation time (drives the lazy-update check).
Priorities are ``(utility, benefit)`` pairs compared lexicographically:
utility orders the exploration as in the paper, and benefit breaks exact
utility ties in favour of more promising windows (with heavily skewed
data, utilities of empty and promising windows can tie exactly — see
DESIGN.md).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

import numpy as np

from .window import Window

__all__ = ["Priority", "QueueEntry", "SpillableQueue"]

Priority = tuple[float, float]
QueueEntry = tuple[Priority, Window, int]

_MIN_PRIORITY: Priority = (-math.inf, -math.inf)

# Bucket entries keep packed bounds, not Window objects: (priority, lo, hi,
# version).  Windows are only materialized when the entry is popped.
_BucketEntry = tuple[Priority, tuple, tuple, int]


def _bucket_order(entry: _BucketEntry) -> tuple:
    """Content-deterministic descending order over bucket entries.

    Used where bucket entries are re-sequenced on promotion, so tie order
    never depends on insertion history (:meth:`SpillableQueue.drain_arrays`
    sorts by the same key).
    """
    (utility, benefit), lo, hi, version = entry
    return (-utility, -benefit, lo, hi, version)


# Below this many rows a bulk array push feeds the pending heap instead of
# re-merging (lexsorting) the whole sorted block: an O(n log n) merge would
# dwarf a handful of rows (a small slab's seeds, a late refresh).
_BULK_MERGE_MIN = 32


class SpillableQueue:
    """Max-priority queue over windows with bucketed spilling."""

    def __init__(self, head_capacity: int = 1_000_000, num_buckets: int = 16) -> None:
        if head_capacity < 2:
            raise ValueError(f"head capacity must be >= 2, got {head_capacity}")
        if num_buckets < 1:
            raise ValueError(f"need at least one bucket, got {num_buckets}")
        self._capacity = head_capacity
        self._num_buckets = num_buckets
        # Sorted block (SoA): ascending by (neg_u, neg_b, seq) = pop order.
        self._blk_nu = np.empty(0, dtype=np.float64)
        self._blk_nb = np.empty(0, dtype=np.float64)
        self._blk_seq = np.empty(0, dtype=np.int64)
        self._blk_lo = np.empty((0, 0), dtype=np.int64)
        self._blk_hi = np.empty((0, 0), dtype=np.int64)
        self._blk_ver = np.empty(0, dtype=np.int64)
        self._blk_pos = 0
        # Pending heap of (neg_u, neg_b, seq, lo, hi, version) tuples; seqs
        # are unique, so comparisons never reach the bounds.
        self._pending: list[tuple] = []
        self._buckets: list[list[_BucketEntry]] = [[] for _ in range(num_buckets)]
        self._spilled = 0
        self._threshold = _MIN_PRIORITY  # priorities below this go to buckets
        self._next_seq = 0
        self._spill_events = 0
        self._promote_events = 0

    def _head_len(self) -> int:
        return (self._blk_seq.size - self._blk_pos) + len(self._pending)

    def __len__(self) -> int:
        return self._head_len() + self._spilled

    @property
    def spilled(self) -> int:
        """Entries currently living in the bucketed tail."""
        return self._spilled

    @property
    def spill_events(self) -> int:
        """Times the head overflowed into the tail."""
        return self._spill_events

    @property
    def promote_events(self) -> int:
        """Times a bucket was promoted back into the head."""
        return self._promote_events

    def push(self, priority: Priority, window: Window, version: int) -> None:
        """Insert a window with its ``(utility, benefit)`` priority."""
        if priority < self._threshold:
            self._buckets[self._bucket_of(priority)].append(
                (priority, window.lo, window.hi, version)
            )
            self._spilled += 1
            return
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(
            self._pending,
            (-priority[0], -priority[1], seq, window.lo, window.hi, version),
        )
        if self._head_len() > self._capacity:
            self._spill()

    def push_many(self, entries: Iterable[QueueEntry]) -> None:
        """Bulk insert: one heapify instead of one sift per entry.

        Seqs are stamped in input order, so tie order among equal
        priorities matches an equivalent sequence of :meth:`push` calls.
        The search inserts batches through :meth:`push_many_arrays`; this
        tuple form stays only because the performance ledger's trace
        names it.
        """
        added = []
        if self._threshold == _MIN_PRIORITY:
            # Nothing spilled yet — every entry goes to the head.
            for priority, window, version in entries:
                seq = self._next_seq
                self._next_seq = seq + 1
                added.append(
                    (-priority[0], -priority[1], seq, window.lo, window.hi, version)
                )
        else:
            for priority, window, version in entries:
                if priority < self._threshold:
                    self._buckets[self._bucket_of(priority)].append(
                        (priority, window.lo, window.hi, version)
                    )
                    self._spilled += 1
                else:
                    seq = self._next_seq
                    self._next_seq = seq + 1
                    added.append(
                        (-priority[0], -priority[1], seq, window.lo, window.hi, version)
                    )
        if added:
            self._pending.extend(added)
            heapq.heapify(self._pending)
            while self._head_len() > self._capacity:
                self._spill()

    def push_many_arrays(
        self,
        utilities: np.ndarray,
        benefits: np.ndarray,
        lows: np.ndarray,
        his: np.ndarray,
        version: int,
    ) -> None:
        """Array-native bulk insert — the SoA fast path.

        Observably equivalent to :meth:`push_many` over the row-wise
        ``((u, b), Window(lo, hi), version)`` entries: seqs are stamped
        in row order, the spill-threshold split matches the scalar
        check, and overflow spills identically.  No per-row Python
        objects are built; large batches merge straight into the sorted
        block with one ``np.lexsort``.
        """
        u = np.ascontiguousarray(utilities, dtype=np.float64)
        b = np.ascontiguousarray(benefits, dtype=np.float64)
        lows = np.ascontiguousarray(lows, dtype=np.int64)
        his = np.ascontiguousarray(his, dtype=np.int64)
        n = u.size
        if n == 0:
            return
        if self._threshold != _MIN_PRIORITY:
            t0, t1 = self._threshold
            below = (u < t0) | ((u == t0) & (b < t1))
            if below.any():
                idx = np.flatnonzero(below)
                lo_rows = lows[idx].tolist()
                hi_rows = his[idx].tolist()
                for u_i, b_i, lo_r, hi_r in zip(
                    u[idx].tolist(), b[idx].tolist(), lo_rows, hi_rows
                ):
                    priority = (u_i, b_i)
                    self._buckets[self._bucket_of(priority)].append(
                        (priority, tuple(lo_r), tuple(hi_r), version)
                    )
                self._spilled += idx.size
                keep = ~below
                u, b, lows, his = u[keep], b[keep], lows[keep], his[keep]
                n = u.size
                if n == 0:
                    return
        seq0 = self._next_seq
        self._next_seq = seq0 + n
        if n < _BULK_MERGE_MIN:
            rows_lo = lows.tolist()
            rows_hi = his.tolist()
            for i, (u_i, b_i) in enumerate(zip(u.tolist(), b.tolist())):
                heapq.heappush(
                    self._pending,
                    (-u_i, -b_i, seq0 + i, tuple(rows_lo[i]), tuple(rows_hi[i]), version),
                )
        else:
            seqs = np.arange(seq0, seq0 + n, dtype=np.int64)
            vers = np.full(n, version, dtype=np.int64)
            self._merge_block(-u, -b, seqs, lows, his, vers)
        while self._head_len() > self._capacity:
            self._spill()

    # -- SoA internals -----------------------------------------------------

    def _live_block(self):
        """Views of the unpopped block rows."""
        p = self._blk_pos
        return (
            self._blk_nu[p:],
            self._blk_nb[p:],
            self._blk_seq[p:],
            self._blk_lo[p:],
            self._blk_hi[p:],
            self._blk_ver[p:],
        )

    def _pending_arrays(self):
        """The pending heap as parallel arrays (order-insensitive use only)."""
        p = self._pending
        nu = np.array([t[0] for t in p], dtype=np.float64)
        nb = np.array([t[1] for t in p], dtype=np.float64)
        seq = np.array([t[2] for t in p], dtype=np.int64)
        lo = np.array([t[3] for t in p], dtype=np.int64)
        hi = np.array([t[4] for t in p], dtype=np.int64)
        ver = np.array([t[5] for t in p], dtype=np.int64)
        return nu, nb, seq, lo, hi, ver

    def _merge_block(self, nu, nb, seq, lo, hi, ver) -> None:
        """Fold the live block, the pending heap and new rows into one
        freshly sorted block.  Sorting is by ``(neg_u, neg_b, seq)`` —
        seqs are unique, so the order equals the old heap's pop order.
        """
        parts = [(nu, nb, seq, lo, hi, ver)]
        if self._blk_seq.size - self._blk_pos > 0:
            parts.append(self._live_block())
        if self._pending:
            parts.append(self._pending_arrays())
            self._pending = []
        if len(parts) == 1:
            m_nu, m_nb, m_seq, m_lo, m_hi, m_ver = parts[0]
            # A lone fresh batch arrives seq-ascending (push_many_arrays
            # stamps seqs with an arange), and lexsort is stable — the
            # seq tiebreak is implicit, so skip its sort pass.
            order = np.lexsort((m_nb, m_nu))
        else:
            m_nu = np.concatenate([p[0] for p in parts])
            m_nb = np.concatenate([p[1] for p in parts])
            m_seq = np.concatenate([p[2] for p in parts])
            m_lo = np.concatenate([p[3] for p in parts])
            m_hi = np.concatenate([p[4] for p in parts])
            m_ver = np.concatenate([p[5] for p in parts])
            order = np.lexsort((m_seq, m_nb, m_nu))
        self._blk_nu = m_nu[order]
        self._blk_nb = m_nb[order]
        self._blk_seq = m_seq[order]
        self._blk_lo = m_lo[order]
        self._blk_hi = m_hi[order]
        self._blk_ver = m_ver[order]
        self._blk_pos = 0

    def _clear_block(self) -> None:
        self._blk_nu = np.empty(0, dtype=np.float64)
        self._blk_nb = np.empty(0, dtype=np.float64)
        self._blk_seq = np.empty(0, dtype=np.int64)
        self._blk_lo = np.empty((0, 0), dtype=np.int64)
        self._blk_hi = np.empty((0, 0), dtype=np.int64)
        self._blk_ver = np.empty(0, dtype=np.int64)
        self._blk_pos = 0

    def _block_key(self, i: int) -> tuple:
        return (self._blk_nu[i], self._blk_nb[i], self._blk_seq[i])

    def pop(self) -> QueueEntry | None:
        """Remove and return the highest-priority entry, or ``None``."""
        if self._head_len() == 0:
            self._promote()
            if self._head_len() == 0:
                return None
        i = self._blk_pos
        have_block = i < self._blk_seq.size
        if self._pending and (
            not have_block or self._pending[0][:3] < self._block_key(i)
        ):
            nu, nb, _, lo, hi, version = heapq.heappop(self._pending)
            return ((-nu, -nb), Window.unchecked(tuple(lo), tuple(hi)), version)
        self._blk_pos = i + 1
        lo = tuple(self._blk_lo[i].tolist())
        hi = tuple(self._blk_hi[i].tolist())
        return (
            (-float(self._blk_nu[i]), -float(self._blk_nb[i])),
            Window.unchecked(lo, hi),
            int(self._blk_ver[i]),
        )

    def peek_priority(self) -> Priority | None:
        """Priority of the best entry without removing it."""
        if self._head_len() == 0:
            self._promote()
            if self._head_len() == 0:
                return None
        i = self._blk_pos
        have_block = i < self._blk_seq.size
        if self._pending and (
            not have_block or self._pending[0][:3] < self._block_key(i)
        ):
            top = self._pending[0]
            return (-top[0], -top[1])
        return (-float(self._blk_nu[i]), -float(self._blk_nb[i]))

    def peek_bounds(self, k: int) -> list[tuple[Priority, tuple, tuple, int]]:
        """Up to ``k`` head entries as ``(priority, lo, hi, version)``.

        A non-destructive look at the in-memory head (buckets excluded)
        in pop order, without materializing a single :class:`Window`.
        Nothing in the package calls it since validation went scalar; it
        stays because the performance ledger's trace names it.
        """
        out: list[tuple] = []
        end = min(self._blk_seq.size, self._blk_pos + k)
        for i in range(self._blk_pos, end):
            out.append(
                (
                    (self._blk_nu[i], self._blk_nb[i], self._blk_seq[i]),
                    tuple(self._blk_lo[i].tolist()),
                    tuple(self._blk_hi[i].tolist()),
                    int(self._blk_ver[i]),
                )
            )
        for t in heapq.nsmallest(min(k, len(self._pending)), self._pending):
            out.append(((t[0], t[1], t[2]), tuple(t[3]), tuple(t[4]), t[5]))
        out.sort(key=lambda e: e[0])
        return [
            ((-float(key[0]), -float(key[1])), lo, hi, ver)
            for key, lo, hi, ver in out[:k]
        ]

    def has_stale(self, version: int) -> bool:
        """Whether any entry carries a Data Manager version below ``version``."""
        live_ver = self._blk_ver[self._blk_pos :]
        if live_ver.size and bool((live_ver < version).any()):
            return True
        if any(t[5] < version for t in self._pending):
            return True
        return any(
            entry[3] < version for bucket in self._buckets for entry in bucket
        )

    def drain_arrays(self):
        """Remove every entry, as content-ordered parallel arrays.

        Returns ``(utilities, benefits, lows, his, versions)`` sorted by
        ``(-utility, -benefit, lo, hi, version)`` rather than raw layout,
        so a refresh re-sequences ties the same way no matter how the
        entries were inserted — and without materializing a single
        :class:`Window`.  The refresh re-scores stale rows on these arrays
        and feeds them back through :meth:`push_many_arrays`.
        """
        parts = []
        if self._blk_seq.size - self._blk_pos > 0:
            parts.append(self._live_block())
        if self._pending:
            parts.append(self._pending_arrays())
        for bucket in self._buckets:
            if not bucket:
                continue
            nu = np.array([-p[0] for p, _, _, _ in bucket], dtype=np.float64)
            nb = np.array([-p[1] for p, _, _, _ in bucket], dtype=np.float64)
            seq = np.zeros(len(bucket), dtype=np.int64)  # unused in content order
            lo = np.array([e[1] for e in bucket], dtype=np.int64)
            hi = np.array([e[2] for e in bucket], dtype=np.int64)
            ver = np.array([e[3] for e in bucket], dtype=np.int64)
            parts.append((nu, nb, seq, lo, hi, ver))
            bucket.clear()
        self._clear_block()
        self._pending = []
        self._spilled = 0
        self._threshold = _MIN_PRIORITY
        if not parts:
            empty_f = np.empty(0, dtype=np.float64)
            empty_b = np.empty((0, 0), dtype=np.int64)
            return empty_f, empty_f.copy(), empty_b, empty_b.copy(), np.empty(0, np.int64)
        nu = np.concatenate([p[0] for p in parts])
        nb = np.concatenate([p[1] for p in parts])
        lo = np.concatenate([p[3] for p in parts])
        hi = np.concatenate([p[4] for p in parts])
        ver = np.concatenate([p[5] for p in parts])
        # Content order: (-u, -b, lo_0..lo_d, hi_0..hi_d, version); lexsort
        # keys run last-is-primary.
        keys = [ver]
        for d in range(hi.shape[1] - 1, -1, -1):
            keys.append(hi[:, d])
        for d in range(lo.shape[1] - 1, -1, -1):
            keys.append(lo[:, d])
        keys.extend([nb, nu])
        order = np.lexsort(tuple(keys))
        return -nu[order], -nb[order], lo[order], hi[order], ver[order]

    # -- checkpoint support ------------------------------------------------

    def state(self) -> dict:
        """Exact queue state for a checkpoint.

        The sorted block and the pending heap are captured verbatim
        **including their seq stamps** — ties between equal priorities
        are broken by insertion order, so re-stamping on restore would
        change pop order versus the uninterrupted run.  The seq
        counter's position is preserved the same way.  Block arrays are
        copied: a capture must stay byte-stable while the live queue
        keeps mutating.
        """
        p = self._blk_pos
        return {
            "capacity": self._capacity,
            "num_buckets": self._num_buckets,
            "block": {
                "neg_u": self._blk_nu[p:].copy(),
                "neg_b": self._blk_nb[p:].copy(),
                "seq": self._blk_seq[p:].copy(),
                "lo": self._blk_lo[p:].copy(),
                "hi": self._blk_hi[p:].copy(),
                "version": self._blk_ver[p:].copy(),
            },
            "pending": [
                [nu, nb, seq, [list(lo), list(hi)], version]
                for nu, nb, seq, lo, hi, version in self._pending
            ],
            "buckets": [
                [
                    [[pr[0], pr[1]], [list(lo), list(hi)], version]
                    for pr, lo, hi, version in bucket
                ]
                for bucket in self._buckets
            ],
            "spilled": self._spilled,
            "threshold": list(self._threshold),
            "next_seq": self._next_seq,
            "spill_events": self._spill_events,
            "promote_events": self._promote_events,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state` capture onto this queue."""
        self._capacity = int(state["capacity"])
        self._num_buckets = int(state["num_buckets"])
        block = state["block"]
        n = len(block["seq"])
        self._blk_nu = np.asarray(block["neg_u"], dtype=np.float64).reshape(n)
        self._blk_nb = np.asarray(block["neg_b"], dtype=np.float64).reshape(n)
        self._blk_seq = np.asarray(block["seq"], dtype=np.int64).reshape(n)
        if n:
            self._blk_lo = np.asarray(block["lo"], dtype=np.int64).reshape(n, -1)
            self._blk_hi = np.asarray(block["hi"], dtype=np.int64).reshape(n, -1)
        else:
            self._blk_lo = np.empty((0, 0), dtype=np.int64)
            self._blk_hi = np.empty((0, 0), dtype=np.int64)
        self._blk_ver = np.asarray(block["version"], dtype=np.int64).reshape(n)
        self._blk_pos = 0
        # A verbatim heap capture is already a valid heap layout.
        self._pending = [
            (
                float(nu),
                float(nb),
                int(seq),
                tuple(int(x) for x in lo),
                tuple(int(x) for x in hi),
                int(version),
            )
            for nu, nb, seq, (lo, hi), version in state["pending"]
        ]
        self._buckets = [
            [
                (
                    (float(pr[0]), float(pr[1])),
                    tuple(int(x) for x in lo),
                    tuple(int(x) for x in hi),
                    int(version),
                )
                for pr, (lo, hi), version in bucket
            ]
            for bucket in state["buckets"]
        ]
        self._spilled = int(state["spilled"])
        self._threshold = (float(state["threshold"][0]), float(state["threshold"][1]))
        self._next_seq = int(state["next_seq"])
        self._spill_events = int(state["spill_events"])
        self._promote_events = int(state["promote_events"])

    # -- internals ---------------------------------------------------------

    def _bucket_of(self, priority: Priority) -> int:
        clamped = min(max(priority[0], 0.0), 1.0)
        return min(self._num_buckets - 1, int(clamped * self._num_buckets))

    def _spill(self) -> None:
        """Move the lower half of the head into the tail buckets."""
        if self._pending or self._blk_pos > 0:
            # One merged, position-0 block == the old implementation's
            # full-head sort (seqs are unique, so the order is identical).
            empty = np.empty(0, dtype=np.int64)
            self._merge_block(
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.float64),
                empty,
                np.empty((0, self._blk_lo.shape[1] or 1), dtype=np.int64)
                if self._blk_seq.size
                else np.empty((0, len(self._pending[0][3]) if self._pending else 1), np.int64),
                np.empty((0, self._blk_lo.shape[1] or 1), dtype=np.int64)
                if self._blk_seq.size
                else np.empty((0, len(self._pending[0][3]) if self._pending else 1), np.int64),
                empty,
            )
        total = self._blk_seq.size
        keep = total // 2
        spilled_lo = self._blk_lo[keep:].tolist()
        spilled_hi = self._blk_hi[keep:].tolist()
        spilled_u = self._blk_nu[keep:]
        spilled_b = self._blk_nb[keep:]
        spilled_ver = self._blk_ver[keep:].tolist()
        for j in range(total - keep):
            priority = (-float(spilled_u[j]), -float(spilled_b[j]))
            self._buckets[self._bucket_of(priority)].append(
                (priority, tuple(spilled_lo[j]), tuple(spilled_hi[j]), spilled_ver[j])
            )
        self._spilled += total - keep
        if keep:
            self._threshold = (
                -float(self._blk_nu[keep - 1]),
                -float(self._blk_nb[keep - 1]),
            )
        else:
            self._threshold = _MIN_PRIORITY
        self._blk_nu = self._blk_nu[:keep].copy()
        self._blk_nb = self._blk_nb[:keep].copy()
        self._blk_seq = self._blk_seq[:keep].copy()
        self._blk_lo = self._blk_lo[:keep].copy()
        self._blk_hi = self._blk_hi[:keep].copy()
        self._blk_ver = self._blk_ver[:keep].copy()
        self._blk_pos = 0
        self._spill_events += 1

    def _promote(self) -> None:
        """Load the best non-empty bucket into the (empty) head."""
        for idx in range(self._num_buckets - 1, -1, -1):
            bucket = self._buckets[idx]
            if not bucket:
                continue
            # Promote in content order: fresh seqs would otherwise encode
            # the bucket's (history-dependent) insertion order into ties.
            ordered = sorted(bucket, key=_bucket_order)
            n = len(ordered)
            self._blk_nu = np.array([-e[0][0] for e in ordered], dtype=np.float64)
            self._blk_nb = np.array([-e[0][1] for e in ordered], dtype=np.float64)
            self._blk_seq = np.arange(self._next_seq, self._next_seq + n, dtype=np.int64)
            self._next_seq += n
            self._blk_lo = np.array([e[1] for e in ordered], dtype=np.int64).reshape(n, -1)
            self._blk_hi = np.array([e[2] for e in ordered], dtype=np.int64).reshape(n, -1)
            self._blk_ver = np.array([e[3] for e in ordered], dtype=np.int64)
            self._blk_pos = 0
            self._spilled -= n
            bucket.clear()
            self._threshold = (idx / self._num_buckets, -math.inf)
            if idx == 0:
                self._threshold = _MIN_PRIORITY
            self._promote_events += 1
            return
