"""Unit and property tests for the spillable priority queue."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpillableQueue, Window
from repro.core.pqueue import _BULK_MERGE_MIN

from .naive_oracle import drain_entries


def w(i: int) -> Window:
    return Window((i, 0), (i + 1, 1))


priorities = st.tuples(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)


class TestBasicQueue:
    def test_pop_order_by_utility(self):
        q = SpillableQueue()
        q.push((0.2, 0.0), w(0), 0)
        q.push((0.9, 0.0), w(1), 0)
        q.push((0.5, 0.0), w(2), 0)
        assert q.pop()[1] == w(1)
        assert q.pop()[1] == w(2)
        assert q.pop()[1] == w(0)
        assert q.pop() is None

    def test_benefit_breaks_ties(self):
        q = SpillableQueue()
        q.push((0.5, 0.1), w(0), 0)
        q.push((0.5, 0.9), w(1), 0)
        assert q.pop()[1] == w(1)

    def test_peek_does_not_remove(self):
        q = SpillableQueue()
        q.push((0.7, 0.0), w(0), 0)
        assert q.peek_priority() == (0.7, 0.0)
        assert len(q) == 1

    def test_peek_empty(self):
        assert SpillableQueue().peek_priority() is None

    def test_version_carried(self):
        q = SpillableQueue()
        q.push((0.5, 0.5), w(0), 7)
        assert q.pop()[2] == 7

    def test_len(self):
        q = SpillableQueue()
        for i in range(5):
            q.push((i / 10, 0.0), w(i), 0)
        assert len(q) == 5
        q.pop()
        assert len(q) == 4

    def test_drain(self):
        q = SpillableQueue()
        for i in range(5):
            q.push((i / 10, 0.0), w(i), 0)
        entries = drain_entries(q)
        assert len(entries) == 5
        assert len(q) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="head capacity"):
            SpillableQueue(head_capacity=1)
        with pytest.raises(ValueError, match="bucket"):
            SpillableQueue(num_buckets=0)


class TestPeekBounds:
    """``peek_bounds(k)``: the next ``k`` pops of the in-memory head, untouched."""

    @staticmethod
    def mixed_queue():
        """40 rows in the sorted block, 6 in the pending heap, interleaved."""
        q = SpillableQueue()
        n = 40
        lows = np.column_stack([np.arange(n), np.zeros(n, dtype=np.int64)])
        q.push_many_arrays(
            np.linspace(0.05, 0.95, n), np.full(n, 0.5), lows, lows + 1, version=3
        )
        for i, u in enumerate((0.99, 0.5, 0.5, 0.31, 0.02, 0.77)):
            q.push((u, 0.25 * (i % 3)), w(100 + i), 4 + i)
        assert q._blk_seq.size == n and len(q._pending) == 6
        return q

    @pytest.mark.parametrize("k", [1, 5, 12, 46, 60])
    def test_lists_next_pops_in_order_without_removing(self, k):
        q = self.mixed_queue()
        before = q.state()
        peeked = q.peek_bounds(k)
        after = q.state()
        assert len(q) == 46 and repr(before) == repr(after)
        assert len(peeked) == min(k, 46)
        for priority, lo, hi, version in peeked:
            assert q.pop() == (priority, Window(lo, hi), version)
            assert isinstance(lo, tuple) and isinstance(hi, tuple)

    def test_peek_after_partial_pops(self):
        q = self.mixed_queue()
        for _ in range(7):
            q.pop()
        peeked = q.peek_bounds(4)
        assert [q.pop() for _ in range(4)] == [
            (priority, Window(lo, hi), version) for priority, lo, hi, version in peeked
        ]

    def test_spilled_buckets_are_excluded(self):
        q = SpillableQueue(head_capacity=8)
        for i in range(20):
            q.push((i / 20, 0.0), w(i), 0)
        assert q.spilled > 0
        head = len(q) - q.spilled
        peeked = q.peek_bounds(len(q))
        assert len(peeked) == head
        assert [q.pop()[1] for _ in range(head)] == [
            Window(lo, hi) for _, lo, hi, _ in peeked
        ]

    def test_empty_and_zero(self):
        assert SpillableQueue().peek_bounds(3) == []
        assert self.mixed_queue().peek_bounds(0) == []


class TestSpilling:
    def test_spill_keeps_order(self):
        q = SpillableQueue(head_capacity=8, num_buckets=4)
        values = [(i % 97) / 97 for i in range(200)]
        for i, p in enumerate(values):
            q.push((p, 0.0), w(i), 0)
        assert q.spill_events > 0
        popped = []
        while True:
            entry = q.pop()
            if entry is None:
                break
            popped.append(entry[0][0])
        assert len(popped) == 200
        # Global order holds across head and promoted buckets, up to the
        # intra-bucket granularity: priorities never climb by more than
        # one bucket width after a demotion.
        bucket_width = 1 / 4
        for a, b in zip(popped, popped[1:]):
            assert b <= a + bucket_width + 1e-12

    def test_spill_preserves_entries(self):
        q = SpillableQueue(head_capacity=4, num_buckets=8)
        windows = [w(i) for i in range(50)]
        for i, window in enumerate(windows):
            q.push(((i % 10) / 10, 0.0), window, i)
        seen = set()
        while True:
            entry = q.pop()
            if entry is None:
                break
            seen.add(entry[1])
        assert seen == set(windows)

    def test_promote_events_counted(self):
        q = SpillableQueue(head_capacity=4)
        for i in range(20):
            q.push((i / 20, 0.0), w(i), 0)
        while q.pop() is not None:
            pass
        assert q.promote_events > 0

    @given(st.lists(priorities, min_size=1, max_size=80))
    def test_exact_order_with_large_head(self, prios):
        """Without spilling the queue is an exact max-heap."""
        q = SpillableQueue(head_capacity=1000)
        for i, p in enumerate(prios):
            q.push(p, w(i), 0)
        popped = []
        while True:
            entry = q.pop()
            if entry is None:
                break
            popped.append(entry[0])
        assert popped == sorted(prios, reverse=True)

    @given(st.lists(priorities, min_size=1, max_size=120))
    def test_no_entry_lost_when_spilling(self, prios):
        q = SpillableQueue(head_capacity=8, num_buckets=4)
        for i, p in enumerate(prios):
            q.push(p, w(i), 0)
        count = 0
        while q.pop() is not None:
            count += 1
        assert count == len(prios)


class TestBulkAndDeterminism:
    """push_many / drain_arrays / promote introduced for the kernel batch path."""

    def _entries(self):
        # Tie-heavy: many exact priority collisions to stress tie order.
        return [
            ((round((i % 5) / 5, 6), round((i % 3) / 3, 6)), w(i), i % 4)
            for i in range(60)
        ]

    def _pop_all(self, q):
        out = []
        while True:
            entry = q.pop()
            if entry is None:
                return out
            out.append(entry)

    def test_push_many_matches_sequential_push(self):
        entries = self._entries()
        q_seq = SpillableQueue()
        for priority, window, version in entries:
            q_seq.push(priority, window, version)
        q_bulk = SpillableQueue()
        q_bulk.push_many(entries)
        # Exact pop-sequence equality, tied windows included: seqs are
        # stamped in input order, so the batch is indistinguishable.
        assert self._pop_all(q_bulk) == self._pop_all(q_seq)

    def test_push_many_accepts_generator(self):
        entries = self._entries()
        q = SpillableQueue()
        q.push_many(iter(entries))
        assert len(q) == len(entries)

    def test_push_many_spills_over_capacity(self):
        entries = self._entries()
        q = SpillableQueue(head_capacity=8, num_buckets=4)
        q.push_many(entries)
        assert len(q) == len(entries)
        assert q.spilled > 0
        assert {e[1] for e in self._pop_all(q)} == {e[1] for e in entries}

    def test_push_many_onto_spilled_queue_preserves_entries(self):
        entries = self._entries()
        q = SpillableQueue(head_capacity=8, num_buckets=4)
        for priority, window, version in entries:
            q.push(priority, window, version)
        assert q.spilled > 0  # threshold is live: bulk path must split
        extra = [((0.01, 0.0), w(100 + i), 0) for i in range(10)]
        q.push_many(extra)
        popped = self._pop_all(q)
        assert {e[1] for e in popped} == {e[1] for e in entries + extra}

    def test_drain_is_content_sorted_and_insertion_independent(self):
        entries = self._entries()
        q_fwd = SpillableQueue()
        q_fwd.push_many(entries)
        q_rev = SpillableQueue()
        q_rev.push_many(entries[::-1])
        drained = drain_entries(q_fwd)
        assert drained == drain_entries(q_rev)
        keys = [
            (-p[0], -p[1], window.lo, window.hi, version)
            for p, window, version in drained
        ]
        assert keys == sorted(keys)
        assert len(q_fwd) == 0

    def test_promote_tie_order_is_insertion_independent(self):
        # Entries landing in a bucket keep arbitrary order; on promotion
        # they must be re-sequenced by content, not by insertion history.
        tied = [((0.2, 0.5), w(i), 0) for i in range(12)]
        orders = (tied, tied[::-1])
        popped = []
        for order in orders:
            q = SpillableQueue(head_capacity=4, num_buckets=4)
            q._threshold = (0.9, 0.0)  # force every push into a bucket
            for priority, window, version in order:
                q.push(priority, window, version)
            assert q.spilled == len(tied)
            popped.append([entry[1] for entry in self._pop_all(q)])
        assert popped[0] == popped[1]
        assert popped[0] == [w(i) for i in range(12)]


class TestHeadCapacityBoundaries:
    """Determinism exactly at the head-capacity edge, all entry paths."""

    def _mixed_priorities(self, n: int, salt: int = 0):
        # Deterministic, collision-rich priorities spanning the bucket range.
        return [(((i * 7 + salt) % 13) / 13.0, ((i * 5) % 7) / 7.0) for i in range(n)]

    def _arrays_for(self, entries):
        us = np.array([p[0] for p, _, _ in entries], dtype=np.float64)
        bs = np.array([p[1] for p, _, _ in entries], dtype=np.float64)
        lows = np.array([win.lo for _, win, _ in entries], dtype=np.int64)
        his = np.array([win.hi for _, win, _ in entries], dtype=np.int64)
        return us, bs, lows, his

    def _pop_all(self, q):
        out = []
        while (entry := q.pop()) is not None:
            out.append(entry)
        return out

    def test_arrays_push_matches_push_many_at_exact_capacity(self):
        # A batch landing exactly on head_capacity must neither spill nor
        # diverge from the scalar bulk path in pop order or counters.
        entries = [(p, w(i), 3) for i, p in enumerate(self._mixed_priorities(8))]
        q_obj = SpillableQueue(head_capacity=8, num_buckets=4)
        q_arr = SpillableQueue(head_capacity=8, num_buckets=4)
        q_obj.push_many(entries)
        q_arr.push_many_arrays(*self._arrays_for(entries), 3)
        assert q_obj.spill_events == q_arr.spill_events == 0
        assert self._pop_all(q_obj) == self._pop_all(q_arr)

    def test_arrays_push_matches_push_many_across_spill_boundary(self):
        # One entry over capacity: both paths must spill identically, and
        # the large-batch lexsort merge must agree with the heap path.
        for n in (9, 40):  # 9 stays on the heap path, 40 takes the lexsort merge
            entries = [(p, w(i), 1) for i, p in enumerate(self._mixed_priorities(n))]
            q_obj = SpillableQueue(head_capacity=8, num_buckets=4)
            q_arr = SpillableQueue(head_capacity=8, num_buckets=4)
            q_obj.push_many(entries)
            q_arr.push_many_arrays(*self._arrays_for(entries), 1)
            assert q_obj.spilled == q_arr.spilled > 0
            assert q_obj.spill_events == q_arr.spill_events
            assert self._pop_all(q_obj) == self._pop_all(q_arr)

    def test_interleaved_pushes_pops_and_promotes_match(self):
        # Full lifecycle interleaving: bulk push over capacity (spill),
        # pops below capacity (promote), a second bulk push against a live
        # spill threshold, a drain, and a re-push of the drained content.
        first = [(p, w(i), 0) for i, p in enumerate(self._mixed_priorities(12))]
        second = [(p, w(20 + i), 2) for i, p in enumerate(self._mixed_priorities(10, salt=3))]
        logs = []
        for use_arrays in (False, True):
            q = SpillableQueue(head_capacity=4, num_buckets=4)
            log = []
            if use_arrays:
                q.push_many_arrays(*self._arrays_for(first), 0)
            else:
                q.push_many(first)
            assert q.spilled > 0
            for _ in range(6):  # drops the head below capacity: promotes
                log.append(q.pop())
            assert q.promote_events > 0
            if use_arrays:
                q.push_many_arrays(*self._arrays_for(second), 2)
            else:
                q.push_many(second)
            drained = drain_entries(q)
            log.append(drained)
            assert len(q) == 0 and q.spilled == 0
            q.push_many(drained)
            log.extend(self._pop_all(q))
            logs.append(log)
        assert logs[0] == logs[1]

    def test_checkpoint_roundtrip_at_capacity_boundary(self):
        # state()/restore_state() across the spill edge must reproduce the
        # exact pop sequence, including bucket contents and seq stamping.
        entries = [(p, w(i), 5) for i, p in enumerate(self._mixed_priorities(11))]
        q = SpillableQueue(head_capacity=8, num_buckets=4)
        q.push_many_arrays(*self._arrays_for(entries), 5)
        q.pop()
        twin = SpillableQueue(head_capacity=8, num_buckets=4)
        twin.restore_state(q.state())
        assert self._pop_all(twin) == self._pop_all(q)


class RecomputingQueue(SpillableQueue):
    """The frontier comparing heads the old way: the block head's key is
    re-read from the arrays on every pop and peek."""

    def _block_key(self, i: int) -> tuple:
        return (self._blk_nu.item(i), self._blk_nb.item(i), self._blk_seq.item(i))

    def _pending_wins(self) -> bool:
        i = self._blk_pos
        return bool(self._pending) and (
            i >= self._blk_seq.size or self._pending[0][:3] < self._block_key(i)
        )

    def pop(self):
        if self._head_len() == 0:
            self._promote()
            if self._head_len() == 0:
                return None
        if self._pending_wins():
            nu, nb, _, lo, hi, version = heapq.heappop(self._pending)
            return ((-nu, -nb), Window.unchecked(tuple(lo), tuple(hi)), version)
        i = self._blk_pos
        self._blk_pos = i + 1
        return (
            (-self._blk_nu.item(i), -self._blk_nb.item(i)),
            Window.unchecked(tuple(self._blk_lo[i].tolist()), tuple(self._blk_hi[i].tolist())),
            self._blk_ver.item(i),
        )

    def peek_priority(self):
        if self._head_len() == 0:
            self._promote()
            if self._head_len() == 0:
                return None
        if self._pending_wins():
            return (-self._pending[0][0], -self._pending[0][1])
        i = self._blk_pos
        return (-self._blk_nu.item(i), -self._blk_nb.item(i))


#: Priorities come from four values, so ties — broken by seq — abound.
TIED = [0.0, 0.25, 0.5, 1.0]
FRONTIER_OPS = st.sampled_from(
    ["push", "push", "small batch", "large batch", "pop", "pop", "peek", "drain", "round trip"]
)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.sampled_from([2, 8, 1_000_000]),
    ops=st.lists(st.tuples(FRONTIER_OPS, st.integers(0, 2**31 - 1)), max_size=40),
)
def test_cached_head_key_pops_like_recomputed_keys(capacity, ops):
    """Interleaved pushes, bulk merges below and above ``_BULK_MERGE_MIN``,
    pops, peeks, drains and checkpoint round trips: every pop and peek of
    the queue keeping its head key equals one that re-reads it."""
    queues = [SpillableQueue(capacity, num_buckets=4), RecomputingQueue(capacity, num_buckets=4)]
    made = 0
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        if op == "push":
            priority = tuple(float(v) for v in rng.choice(TIED, 2))
            for q in queues:
                q.push(priority, w(made), int(seed % 3))
            made += 1
        elif op in ("small batch", "large batch"):
            n = int(rng.integers(1, _BULK_MERGE_MIN)) if op == "small batch" else (
                _BULK_MERGE_MIN + int(rng.integers(0, 40))
            )
            utilities = rng.choice(TIED, n)
            benefits = rng.choice(TIED, n)
            lows = np.stack([np.arange(made, made + n), np.zeros(n, dtype=np.int64)], axis=1)
            for q in queues:
                q.push_many_arrays(utilities, benefits, lows, lows + 1, int(seed % 3))
            made += n
        elif op == "pop":
            assert queues[0].pop() == queues[1].pop()
        elif op == "peek":
            assert queues[0].peek_priority() == queues[1].peek_priority()
        elif op == "drain":
            drained = [q.drain_arrays() for q in queues]
            for mine, theirs in zip(*drained):
                assert mine.tolist() == theirs.tolist()
        else:
            states = [q.state() for q in queues]
            queues = [SpillableQueue(), RecomputingQueue()]
            for q, state in zip(queues, states):
                q.restore_state(state)
        assert len(queues[0]) == len(queues[1])
    while True:
        entry = queues[0].pop()
        assert entry == queues[1].pop()
        if entry is None:
            break
