"""Result clusters for diversification (paper Section 4.4).

A *cluster* is defined as the MBR of all resulting windows that
(transitively) overlap each other.  The tracker maintains the clusters
online with a union-find over result windows; the diversification
strategies query the minimum distance from a candidate window to any
cluster (normalized to [0, 1] by the search-area diagonal).

Post-hoc analysis (Table 3 reports "time to discover k clusters" against
the *final* clustering) lives in :func:`cluster_discovery_times`.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import Rect
from .grid import Grid
from .query import ResultWindow
from .window import Window

__all__ = ["ClusterTracker", "final_clusters", "cluster_discovery_times"]


class ClusterTracker:
    """Online union-find clustering of result windows."""

    def __init__(self, grid: Grid) -> None:
        self._grid = grid
        self._diameter = grid.area.diameter
        self._windows: list[Window] = []
        self._parent: list[int] = []
        self._mbr: dict[int, Window] = {}  # root -> bounding window

    @property
    def num_results(self) -> int:
        """Result windows added so far."""
        return len(self._windows)

    @property
    def num_clusters(self) -> int:
        """Current number of clusters."""
        return len(self._mbr)

    def add(self, window: Window) -> int:
        """Add a result window; returns the cluster count afterwards."""
        idx = len(self._windows)
        self._windows.append(window)
        self._parent.append(idx)
        self._mbr[idx] = window
        for other in range(idx):
            if window.overlaps(self._windows[other]):
                self._union(idx, other)
        return self.num_clusters

    def cluster_rects(self) -> list[Rect]:
        """Coordinate-space MBRs of the current clusters."""
        return [w.rect(self._grid) for w in self._mbr.values()]

    def belongs_to_cluster(self, window: Window) -> bool:
        """Whether the window overlaps any current cluster MBR."""
        return any(window.overlaps(mbr) for mbr in self._mbr.values())

    def min_distance(self, window: Window) -> float:
        """Normalized min Euclidean distance to the clusters.

        1.0 when no clusters exist yet (maximum diversity value), 0.0 when
        the window touches/overlaps a cluster.
        """
        if not self._mbr:
            return 1.0
        rect = window.rect(self._grid)
        dist = min(rect.min_distance(mbr.rect(self._grid)) for mbr in self._mbr.values())
        if self._diameter <= 0:
            return 0.0
        return min(1.0, dist / self._diameter)

    def _find(self, i: int) -> int:
        root = i
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[i] != root:
            self._parent[i], i = root, self._parent[i]
        return root

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        self._parent[rb] = ra
        merged = self._mbr.pop(rb)
        self._mbr[ra] = self._mbr[ra].hull(merged)


def final_clusters(results: Sequence[ResultWindow], grid: Grid) -> list[list[ResultWindow]]:
    """Group results into the final clusters (post-hoc analysis).

    Groups come in the order of their first member, members in result
    order.
    """
    tracker = ClusterTracker(grid)
    for res in results:
        tracker.add(res.window)
    groups: dict[int, list[ResultWindow]] = {}
    for i, res in enumerate(results):
        groups.setdefault(tracker._find(i), []).append(res)
    return list(groups.values())


def cluster_discovery_times(results: Sequence[ResultWindow], grid: Grid) -> list[float]:
    """Sorted times at which each final cluster was first touched.

    "By discovering a cluster we mean finding at least one window
    belonging to the cluster" (Section 6.5); element ``k-1`` is therefore
    the paper's "time to discover k clusters".
    """
    clusters = final_clusters(results, grid)
    times = sorted(min(r.time for r in group) for group in clusters)
    return times
