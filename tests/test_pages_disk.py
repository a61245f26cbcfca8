"""Unit and property tests for block arithmetic and the simulated disk."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.costs import CostModel
from repro.storage import SimulatedDisk, TableSchema
from repro.storage.pages import BlockLayout, coalesce_runs


def _layout(num_rows: int, tuples_per_block: int) -> BlockLayout:
    return BlockLayout("t", TableSchema(["x", "v"], ["x"]), tuples_per_block, num_rows)


class TestPages:
    def test_shape(self):
        layout = _layout(20, 8)
        assert (layout.num_rows, layout.num_blocks, layout.ndim) == (20, 3, 1)
        assert _layout(24, 8).num_blocks == 3

    def test_block_of_row(self):
        layout = _layout(20, 8)
        assert layout.blocks_of(np.array([0])).tolist() == [0]
        assert layout.blocks_of(np.array([7])).tolist() == [0]
        assert layout.blocks_of(np.array([8])).tolist() == [1]

    def test_block_of_row_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            _layout(20, 8).block_rows(-1)
        with pytest.raises(ValueError, match="positive"):
            _layout(20, 0)

    def test_row_range_of_block(self):
        layout = _layout(20, 8)
        assert layout.block_rows(0) == slice(0, 8)
        assert layout.block_rows(1) == slice(8, 16)
        assert layout.block_rows(2) == slice(16, 20)  # the short last block

    def test_row_range_beyond_table(self):
        with pytest.raises(ValueError, match="out of range"):
            _layout(20, 8).block_rows(3)

    def test_blocks_of_rows(self):
        rows = np.array([0, 1, 9, 17, 18])
        np.testing.assert_array_equal(_layout(20, 8).blocks_of(rows), [0, 1, 2])

    def test_blocks_of_rows_empty(self):
        assert _layout(20, 8).blocks_of(np.empty(0, dtype=np.int64)).size == 0

    def test_blocks_of_rows_rejects_bad_block_size(self):
        for tuples_per_block in (0, -4):
            with pytest.raises(ValueError, match="positive"):
                _layout(20, tuples_per_block)

    def test_rows_of_blocks_contiguous(self):
        layout = _layout(20, 8)
        rows = layout.rows_of_blocks(np.array([1, 2]))
        assert rows.dtype == np.int64
        assert rows.tolist() == list(range(8, 20))  # ends at the short block
        assert layout.rows_of_blocks(np.empty(0, dtype=np.int64)).size == 0

    def test_rows_of_blocks_scattered(self):
        layout = _layout(20, 8)
        rows = layout.rows_of_blocks(np.array([0, 2]))
        assert rows.dtype == np.int64
        assert rows.tolist() == [*range(0, 8), *range(16, 20)]

    @given(
        num_rows=st.integers(1, 300),
        tuples_per_block=st.integers(1, 40),
        data=st.data(),
    )
    def test_rows_of_blocks_inverts_blocks_of(self, num_rows, tuples_per_block, data):
        layout = _layout(num_rows, tuples_per_block)
        blocks = sorted(
            data.draw(st.sets(st.integers(0, layout.num_blocks - 1), min_size=1))
        )
        rows = layout.rows_of_blocks(np.array(blocks))
        assert rows.tolist() == [
            r for b in blocks for r in range(num_rows)[layout.block_rows(b)]
        ]
        assert layout.blocks_of(rows).tolist() == blocks

    def test_check_column(self):
        layout = _layout(20, 8)
        layout.check_column("v")
        with pytest.raises(KeyError, match="no column 'nope'"):
            layout.check_column("nope")

    def test_coalesce_runs(self):
        runs = list(coalesce_runs([1, 2, 3, 7, 8, 11]))
        assert runs == [(1, 3), (7, 2), (11, 1)]

    def test_coalesce_runs_single(self):
        assert list(coalesce_runs([5])) == [(5, 1)]

    def test_coalesce_runs_empty(self):
        assert list(coalesce_runs([])) == []
        assert list(coalesce_runs(np.empty(0, dtype=np.int64))) == []

    def test_coalesce_runs_normalizes_unsorted_and_duplicates(self):
        # A request reads a *set* of blocks: order and multiplicity are
        # presentation details, not semantics.
        assert list(coalesce_runs([4, 3])) == [(3, 2)]
        assert list(coalesce_runs([3, 3, 4])) == [(3, 2)]
        assert list(coalesce_runs([11, 7, 8, 2, 1, 3, 8])) == [
            (1, 3),
            (7, 2),
            (11, 1),
        ]

    def test_coalesce_runs_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(coalesce_runs([2, -1, 3]))

    @given(st.lists(st.integers(0, 200), min_size=1))
    def test_coalesce_runs_partition_property(self, ids):
        ordered = sorted(set(ids))
        runs = list(coalesce_runs(ids))
        rebuilt = [b for start, count in runs for b in range(start, start + count)]
        assert rebuilt == ordered
        # Runs are maximal: consecutive runs leave a gap.
        for (s1, c1), (s2, _) in zip(runs, runs[1:]):
            assert s1 + c1 < s2


@pytest.fixture()
def disk():
    return SimulatedDisk(100, CostModel(seek_ms=1.0, transfer_ms=0.1), SimClock())


class TestSimulatedDisk:
    def test_single_run_costs_one_seek(self, disk):
        elapsed = disk.read(np.array([10, 11, 12]))
        assert elapsed == pytest.approx(0.001 + 3 * 0.0001)
        assert disk.seeks == 1
        assert disk.blocks_read == 3

    def test_dispersed_runs_cost_multiple_seeks(self, disk):
        disk.read(np.array([1, 5, 9]))
        assert disk.seeks == 3

    def test_sequential_continuation_avoids_seek(self, disk):
        disk.read(np.array([10, 11]))
        disk.read(np.array([12, 13]))  # head continues
        assert disk.seeks == 1

    def test_rereads_counted(self, disk):
        disk.read(np.array([1, 2, 3]))
        disk.read(np.array([2, 3, 4]))
        assert disk.blocks_read == 6
        assert disk.blocks_reread == 2

    def test_clock_advances(self, disk):
        before = disk.clock.now
        disk.read(np.array([0]))
        assert disk.clock.now > before
        assert disk.clock.now - before == pytest.approx(disk.total_time_s)

    def test_out_of_range_rejected(self, disk):
        with pytest.raises(ValueError, match="out of range"):
            disk.read(np.array([100]))
        with pytest.raises(ValueError, match="out of range"):
            disk.read(np.array([-1]))

    def test_empty_read_free(self, disk):
        assert disk.read(np.array([], dtype=np.int64)) == 0.0
        assert disk.requests == 0

    def test_sequential_scan(self, disk):
        elapsed = disk.sequential_scan()
        assert disk.blocks_read == 100
        assert disk.seeks == 1
        assert elapsed == pytest.approx(0.001 + 100 * 0.0001)

    def test_mean_read_ms(self, disk):
        disk.read(np.arange(100))
        # 1 seek + 100 transfers over 100 blocks.
        assert disk.mean_read_ms() == pytest.approx((1.0 + 100 * 0.1) / 100)

    def test_dev_read_ms_zero_without_seeks(self, disk):
        assert disk.dev_read_ms() == 0.0

    def test_stats_dict(self, disk):
        disk.read(np.array([3, 50]))
        stats = disk.stats()
        assert stats["blocks_read"] == 2
        assert stats["seeks"] == 2
        assert stats["requests"] == 1

    def test_reset_stats(self, disk):
        disk.read(np.array([1, 2]))
        disk.reset_stats()
        assert disk.blocks_read == 0
        assert disk.seeks == 0
        assert disk.total_time_s == 0.0

    def test_needs_positive_capacity(self):
        with pytest.raises(ValueError, match="at least one block"):
            SimulatedDisk(0, CostModel(), SimClock())


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            SimClock().advance(-1)

    def test_advance_to_only_forward(self):
        clock = SimClock(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_reset(self):
        clock = SimClock(2.0)
        clock.reset()
        assert clock.now == 0.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="negative"):
            SimClock(-1.0)
