"""Unit tests for the jump-policy mechanics (Section 4.4 details)."""

from __future__ import annotations

import pytest

from repro.core import Grid, Rect, SpillableQueue, Window
from repro.core.clusters import ClusterTracker
from repro.core.diversify import DistJumpPolicy, JumpPolicy, UtilityJumpPolicy


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


def priority_of(window: Window) -> tuple[float, float]:
    # Deterministic fake utility: prefer small anchors.
    return (1.0 - (window.lo[0] + window.lo[1]) / 100.0, 0.0)


class TestBasePolicy:
    def test_no_jump_no_benefit_change(self, grid):
        policy = JumpPolicy(ClusterTracker(grid))
        w = Window((0, 0), (1, 1))
        assert policy.modified_benefit(w, 0.7) == 0.7
        queue = SpillableQueue()
        chosen, jumped = policy.select(w, priority_of, queue, 0)
        assert chosen == w and not jumped


class TestUtilityJumpPolicy:
    def _setup(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))  # one known cluster
        policy = UtilityJumpPolicy(tracker)
        queue = SpillableQueue()
        return tracker, policy, queue

    def test_modified_benefit_includes_distance(self, grid):
        tracker, policy, _ = self._setup(grid)
        near = Window((1, 1), (2, 2))  # inside the cluster: dist 0
        far = Window((9, 9), (10, 10))
        assert policy.modified_benefit(near, 1.0) == pytest.approx(0.5)
        assert policy.modified_benefit(far, 1.0) > 0.5

    def test_jump_to_distant_candidate(self, grid):
        tracker, policy, queue = self._setup(grid)
        inside = Window((0, 0), (1, 1))  # overlaps the cluster
        distant = Window((8, 8), (9, 9))
        queue.push((0.99, 0.0), distant, 0)

        # utility function that rates the distant window higher
        def utility(w):
            return (0.9, 0.0) if w == distant else (0.1, 0.0)

        chosen, jumped = policy.select(inside, utility, queue, 0)
        assert jumped and chosen == distant
        # The bypassed window went back into the queue.
        assert len(queue) == 1

    def test_no_jump_when_candidate_weaker(self, grid):
        tracker, policy, queue = self._setup(grid)
        inside = Window((0, 0), (1, 1))
        distant = Window((8, 8), (9, 9))
        queue.push((0.2, 0.0), distant, 0)

        def utility(w):
            return (0.1, 0.0) if w == distant else (0.9, 0.0)

        chosen, jumped = policy.select(inside, utility, queue, 0)
        assert not jumped and chosen == inside
        assert len(queue) == 1  # candidate restored

    def test_no_jump_outside_clusters(self, grid):
        tracker, policy, queue = self._setup(grid)
        outside = Window((5, 5), (6, 6))
        chosen, jumped = policy.select(outside, priority_of, queue, 0)
        assert not jumped and chosen == outside

    def test_disabled_after_false_positive_jump(self, grid):
        tracker, policy, queue = self._setup(grid)
        inside = Window((0, 0), (1, 1))
        distant = Window((8, 8), (9, 9))
        policy.on_read(distant, positive=False, jumped=True)
        queue.push((0.99, 0.0), distant, 0)

        def utility(w):
            return (0.9, 0.0) if w == distant else (0.1, 0.0)

        # One suppressed step...
        chosen, jumped = policy.select(inside, utility, queue, 0)
        assert not jumped
        # ...then jumping resumes.
        chosen, jumped = policy.select(inside, utility, queue, 0)
        assert jumped

    def test_held_candidates_restored(self, grid):
        tracker, policy, queue = self._setup(grid)
        inside = Window((0, 0), (1, 1))
        # Fill the queue with cluster-adjacent (dist 0) candidates only.
        for i in range(5):
            queue.push((0.9 - i * 0.1, 0.0), Window((i, 0), (i + 2, 2)), 0)
        before = len(queue)
        chosen, jumped = policy.select(inside, priority_of, queue, 0)
        assert not jumped
        assert len(queue) == before

    def test_scan_limit_validation(self, grid):
        with pytest.raises(ValueError, match="scan_limit"):
            UtilityJumpPolicy(ClusterTracker(grid), scan_limit=0)


class TestDistJumpPolicy:
    def test_chooses_furthest_of_k(self, grid):
        tracker = ClusterTracker(grid)
        tracker.add(Window((0, 0), (2, 2)))
        policy = DistJumpPolicy(tracker, k=3)
        queue = SpillableQueue()
        near = Window((2, 2), (3, 3))
        far = Window((9, 9), (10, 10))
        queue.push((0.8, 0.0), near, 0)
        queue.push((0.7, 0.0), far, 0)
        current = Window((1, 1), (2, 2))  # dist 0
        chosen, jumped = policy.select(current, priority_of, queue, 0)
        assert chosen == far and jumped
        assert len(queue) == 2  # the two unchosen candidates restored

    def test_no_clusters_no_jump(self, grid):
        policy = DistJumpPolicy(ClusterTracker(grid), k=3)
        queue = SpillableQueue()
        queue.push((0.9, 0.0), Window((5, 5), (6, 6)), 0)
        current = Window((0, 0), (1, 1))
        chosen, jumped = policy.select(current, priority_of, queue, 0)
        assert chosen == current and not jumped
        assert len(queue) == 1

    def test_k_validation(self, grid):
        with pytest.raises(ValueError, match="candidate count"):
            DistJumpPolicy(ClusterTracker(grid), k=0)


class TestSearchWiring:
    @pytest.mark.parametrize(
        "diversification, tracked, modified",
        [
            ("none", False, False),
            ("static", False, False),
            ("dist_jumps", True, False),
            ("utility_jumps", True, True),
        ],
    )
    def test_tracker_only_for_jump_policies(
        self, tiny_dataset, tiny_query, tiny_db, diversification, tracked, modified
    ):
        """No cluster fold without a policy that reads it; no call for an
        identity benefit."""
        from repro.core import SearchConfig, SWEngine

        config = SearchConfig(diversification=diversification, step_limit=300)
        search = SWEngine(tiny_db, tiny_dataset.name).prepare(tiny_query, config)
        assert (search.tracker is not None) == tracked
        assert (search._modify_benefit is not None) == modified
        run = search.run()
        assert run.results
        if tracked:
            assert search.tracker.num_clusters > 0
