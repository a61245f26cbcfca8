"""Unit tests for result clusters and diversification machinery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Grid, Rect, ResultWindow, Window
from repro.core.clusters import ClusterTracker, cluster_discovery_times, final_clusters
from repro.core.diversify import (
    SubAreaQueues,
    partition_tiles,
    subarea_of,
)


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


def res(window: Window, grid: Grid, time: float) -> ResultWindow:
    return ResultWindow(window=window, bounds=window.rect(grid), time=time)


class TestClusterTracker:
    def test_disjoint_results_make_clusters(self, grid):
        tracker = ClusterTracker(grid)
        assert tracker.add(Window((0, 0), (2, 2))) == 1
        assert tracker.add(Window((5, 5), (7, 7))) == 2

    def test_overlapping_results_merge(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (3, 3)))
        tracker.add(Window((2, 2), (5, 5)))
        assert tracker.num_clusters == 1

    def test_transitive_merge(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))
        tracker.add(Window((4, 4), (6, 6)))
        assert tracker.num_clusters == 2
        # Bridges both -> everything is one cluster.
        tracker.add(Window((1, 1), (5, 5)))
        assert tracker.num_clusters == 1

    def test_cluster_mbr(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))
        tracker.add(Window((1, 1), (4, 5)))
        rects = tracker.cluster_rects()
        assert len(rects) == 1
        assert rects[0].lower == (0.0, 0.0)
        assert rects[0].upper == (4.0, 5.0)

    def test_min_distance_no_clusters(self, grid):
        tracker = ClusterTracker(grid)
        assert tracker.min_distance(Window((0, 0), (1, 1))) == 1.0

    def test_min_distance_touching_zero(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))
        assert tracker.min_distance(Window((1, 1), (3, 3))) == 0.0

    def test_min_distance_normalized(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (1, 1)))
        d = tracker.min_distance(Window((9, 9), (10, 10)))
        assert 0 < d <= 1.0

    def test_belongs_to_cluster(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))
        assert tracker.belongs_to_cluster(Window((1, 1), (3, 3)))
        assert not tracker.belongs_to_cluster(Window((5, 5), (6, 6)))


class TestPostHocClustering:
    def test_final_clusters(self, grid):
        results = [
            res(Window((0, 0), (2, 2)), grid, 1.0),
            res(Window((1, 1), (3, 3)), grid, 2.0),
            res(Window((7, 7), (9, 9)), grid, 3.0),
        ]
        groups = final_clusters(results, grid)
        assert sorted(len(g) for g in groups) == [1, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(1, 3), st.integers(1, 3)
            ),
            max_size=24,
        )
    )
    def test_final_clusters_are_overlap_components(self, boxes):
        """Connected components of the overlap graph, in first-member order."""
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
        results = [
            res(Window((x, y), (min(x + w, 10), min(y + h, 10))), grid, float(i))
            for i, (x, y, w, h) in enumerate(boxes)
        ]
        component = list(range(len(results)))
        for i in range(len(results)):
            # Depth-first labelling from each still-unlabelled result.
            if component[i] != i:
                continue
            stack = [i]
            while stack:
                j = stack.pop()
                for k in range(len(results)):
                    if k > i and component[k] == k and (
                        results[j].window.overlaps(results[k].window)
                    ):
                        component[k] = i
                        stack.append(k)
        expected: dict[int, list[ResultWindow]] = {}
        for i, r in enumerate(results):
            expected.setdefault(component[i], []).append(r)
        assert final_clusters(results, grid) == list(expected.values())

    def test_discovery_times(self, grid):
        results = [
            res(Window((7, 7), (9, 9)), grid, 5.0),  # cluster B found late
            res(Window((0, 0), (2, 2)), grid, 1.0),  # cluster A found first
            res(Window((1, 1), (3, 3)), grid, 9.0),  # same cluster A, later
        ]
        times = cluster_discovery_times(results, grid)
        assert times == [1.0, 5.0]

    def test_empty_results(self, grid):
        assert cluster_discovery_times([], grid) == []


class TestPartitionTiles:
    def test_perfect_squares(self):
        assert partition_tiles(4, (20, 20)) == (2, 2)
        assert partition_tiles(9, (20, 20)) == (3, 3)
        assert partition_tiles(16, (20, 20)) == (4, 4)

    def test_non_square(self):
        tiles = partition_tiles(6, (20, 20))
        assert tiles[0] * tiles[1] == 6

    def test_1d(self):
        assert partition_tiles(5, (20,)) == (5,)

    def test_too_many_subareas(self):
        with pytest.raises(ValueError, match="cannot split"):
            partition_tiles(25, (4, 100))

    def test_at_least_one(self):
        with pytest.raises(ValueError, match="at least one"):
            partition_tiles(0, (10, 10))

    def test_subarea_of_covers_all_ids(self):
        tiles = partition_tiles(4, (10, 10))
        ids = {
            subarea_of((i, j), (10, 10), tiles) for i in range(10) for j in range(10)
        }
        assert ids == {0, 1, 2, 3}

    def test_subarea_of_contiguity(self):
        tiles = partition_tiles(4, (10, 10))
        assert subarea_of((0, 0), (10, 10), tiles) == 0
        assert subarea_of((9, 9), (10, 10), tiles) == 3


class TestSubAreaQueues:
    def test_round_robin_service(self):
        queues = SubAreaQueues(4, (10, 10))
        # One window in each quadrant, same priority.
        anchors = [(0, 0), (0, 9), (9, 0), (9, 9)]
        for a in anchors:
            queues.push((0.5, 0.5), Window(a, (a[0] + 1, a[1] + 1)), 0)
        served = [queues.pop()[1].anchor for _ in range(4)]
        assert sorted(served) == sorted(anchors)
        # Each came from a different sub-area.
        tiles = queues.tiles
        assert len({subarea_of(a, (10, 10), tiles) for a in served}) == 4

    def test_skips_empty_subareas(self):
        queues = SubAreaQueues(4, (10, 10))
        queues.push((0.5, 0.5), Window((0, 0), (1, 1)), 0)
        assert queues.pop() is not None
        assert queues.pop() is None

    def test_peek_matches_last_served_queue(self):
        queues = SubAreaQueues(2, (10, 10))
        queues.push((0.9, 0.0), Window((0, 0), (1, 1)), 0)
        queues.push((0.1, 0.0), Window((0, 1), (1, 2)), 0)
        queues.push((0.8, 0.0), Window((9, 9), (10, 10)), 0)
        queues.pop()
        assert queues.peek_priority() is not None

    def test_len_and_drain(self):
        queues = SubAreaQueues(4, (10, 10))
        for i in range(8):
            queues.push((0.5, 0.0), Window((i, i), (i + 1, i + 1)), 0)
        assert len(queues) == 8
        sizes = [len(q) for q in queues._queues]
        utilities, _, lows, _, _ = queues.drain_arrays()
        assert len(queues) == 0
        # Each sub-area's rows in turn, routed by anchor.
        tiles = queues.tiles
        subareas = [subarea_of(tuple(lo), (10, 10), tiles) for lo in lows.tolist()]
        assert len(utilities) == 8 and subareas == sorted(subareas)
        # An array push routes every row back to its anchor's queue.
        queues.push_many_arrays(utilities, utilities, lows, lows + 1, 1)
        assert [len(q) for q in queues._queues] == sizes == [5, 0, 0, 3]
        assert all(
            subarea_of(entry[1].anchor, (10, 10), tiles) == idx
            for idx, queue in enumerate(queues._queues)
            for entry in iter(queue.pop, None)
        )
