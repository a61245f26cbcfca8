"""A Guttman R-tree (quadratic split), used as the GiST-index stand-in.

The paper creates a GiST index per data set ("In PostgreSQL, GiST indexes
are used instead of R-trees") and evaluates an ``-ind`` placement where
tuples are clustered in index order: better than axis ordering, worse than
Hilbert/explicit clustering because insertion-built R-trees do not
guarantee an efficient linear order (Section 6, Table 2).

We therefore build the index the same way — one-at-a-time insertion with
Guttman's quadratic split — and derive the ``-ind`` placement from a DFS
over its leaves.  Placement reads only that leaf order
(``storage/placement.py``); ``RTree.search`` (range search) has no
caller outside the tests.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = ["RTree"]


class _Node:
    """An R-tree node; leaves hold payload ids, inner nodes hold children."""

    __slots__ = ("leaf", "mins", "maxs", "children", "payloads")

    def __init__(self, ndim: int, leaf: bool) -> None:
        self.leaf = leaf
        self.mins = [math.inf] * ndim
        self.maxs = [-math.inf] * ndim
        self.children: list[_Node] = []
        self.payloads: list[tuple[tuple[float, ...], int]] = []

    def count(self) -> int:
        return len(self.payloads) if self.leaf else len(self.children)


def _enlargement(mins: list[float], maxs: list[float], point: Sequence[float]) -> float:
    """Area increase of an MBR when extended to cover ``point``."""
    old = 1.0
    new = 1.0
    for lo, hi, p in zip(mins, maxs, point):
        old_side = max(0.0, hi - lo)
        new_side = max(hi, p) - min(lo, p)
        old *= old_side
        new *= new_side
    return new - old


def _area(mins: Sequence[float], maxs: Sequence[float]) -> float:
    area = 1.0
    for lo, hi in zip(mins, maxs):
        area *= max(0.0, hi - lo)
    return area


class RTree:
    """A point R-tree with Guttman quadratic node splitting.

    Parameters
    ----------
    ndim:
        Dimensionality of indexed points.
    max_entries:
        Node capacity ``M``; minimum fill is ``M // 2``.
    """

    def __init__(self, ndim: int, max_entries: int = 32) -> None:
        if ndim < 1:
            raise ValueError(f"ndim must be >= 1, got {ndim}")
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self._ndim = ndim
        self._max = max_entries
        self._min = max(2, max_entries // 2)
        self._root = _Node(ndim, leaf=True)
        self._size = 0

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self._size

    @property
    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        height = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            height += 1
        return height

    # -- insertion -----------------------------------------------------------

    def insert(self, point: Sequence[float], payload: int) -> None:
        """Insert one point with an integer payload (e.g. a row id)."""
        if len(point) != self._ndim:
            raise ValueError(f"point has {len(point)} dims, tree has {self._ndim}")
        point = tuple(float(v) for v in point)
        path = self._choose_path(point)
        leaf = path[-1]
        leaf.payloads.append((point, payload))
        self._extend_mbrs(path, point)
        self._size += 1
        self._handle_overflow(path)

    def bulk_insert(self, points: np.ndarray, payloads: Sequence[int] | None = None) -> None:
        """Insert many points (row ``i`` gets payload ``payloads[i]`` or ``i``)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self._ndim:
            raise ValueError(f"points must be (n, {self._ndim})")
        ids = range(points.shape[0]) if payloads is None else payloads
        for row, payload in zip(points, ids):
            self.insert(tuple(row), int(payload))

    @classmethod
    def bulk_load_str(cls, points: np.ndarray, max_entries: int = 32) -> "RTree":
        """Sort-Tile-Recursive bulk loading (Leutenegger et al.).

        STR packs leaves by sorting on the first coordinate, slicing into
        vertical strips, and sorting each strip by the second coordinate —
        producing near-optimal leaves.  Insertion-built trees (the paper's
        ``-ind`` placement) are measurably worse; keeping both makes the
        comparison an explicit ablation.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a (n, ndim) array")
        n, ndim = points.shape
        tree = cls(ndim, max_entries=max_entries)
        if n == 0:
            return tree
        order = _str_order(points, max_entries)
        # Build leaves directly in packed order, then stitch upward.
        leaves: list[_Node] = []
        for start in range(0, n, max_entries):
            leaf = _Node(ndim, leaf=True)
            for row in order[start : start + max_entries]:
                point = tuple(points[row])
                leaf.payloads.append((point, int(row)))
                for d in range(ndim):
                    leaf.mins[d] = min(leaf.mins[d], point[d])
                    leaf.maxs[d] = max(leaf.maxs[d], point[d])
            leaves.append(leaf)
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), max_entries):
                parent = _Node(ndim, leaf=False)
                parent.children = level[start : start + max_entries]
                tree._recompute_mbr(parent)
                parents.append(parent)
            level = parents
        tree._root = level[0]
        tree._size = n
        return tree

    def _choose_path(self, point: tuple[float, ...]) -> list[_Node]:
        path = [self._root]
        node = self._root
        while not node.leaf:
            best = None
            best_key = (math.inf, math.inf)
            for child in node.children:
                key = (_enlargement(child.mins, child.maxs, point), _area(child.mins, child.maxs))
                if key < best_key:
                    best_key = key
                    best = child
            node = best  # type: ignore[assignment]
            path.append(node)
        return path

    def _extend_mbrs(self, path: list[_Node], point: tuple[float, ...]) -> None:
        for node in path:
            for d in range(self._ndim):
                if point[d] < node.mins[d]:
                    node.mins[d] = point[d]
                if point[d] > node.maxs[d]:
                    node.maxs[d] = point[d]

    def _handle_overflow(self, path: list[_Node]) -> None:
        for level in range(len(path) - 1, -1, -1):
            node = path[level]
            if node.count() <= self._max:
                return
            left, right = self._split(node)
            if level == 0:
                new_root = _Node(self._ndim, leaf=False)
                new_root.children = [left, right]
                self._recompute_mbr(new_root)
                self._root = new_root
            else:
                parent = path[level - 1]
                parent.children.remove(node)
                parent.children.extend((left, right))

    def _split(self, node: _Node) -> tuple[_Node, _Node]:
        """Guttman's quadratic split of an overflowing node."""
        if node.leaf:
            entries = node.payloads
            reps = [p for p, _ in entries]
        else:
            entries = node.children  # type: ignore[assignment]
            reps = [tuple((lo + hi) / 2 for lo, hi in zip(c.mins, c.maxs)) for c in node.children]

        seed_a, seed_b = self._pick_seeds(entries, reps)
        group_a = _Node(self._ndim, node.leaf)
        group_b = _Node(self._ndim, node.leaf)
        assigned = {seed_a, seed_b}
        self._assign(group_a, entries[seed_a])
        self._assign(group_b, entries[seed_b])

        remaining = [i for i in range(len(entries)) if i not in assigned]
        for pos, i in enumerate(remaining):
            # Force remaining entries into the underfull group when needed.
            need_a = self._min - group_a.count()
            need_b = self._min - group_b.count()
            left_over = len(remaining) - pos
            if need_a >= left_over:
                self._assign(group_a, entries[i])
                continue
            if need_b >= left_over:
                self._assign(group_b, entries[i])
                continue
            grow_a = _enlargement(group_a.mins, group_a.maxs, reps[i])
            grow_b = _enlargement(group_b.mins, group_b.maxs, reps[i])
            if grow_a < grow_b or (grow_a == grow_b and group_a.count() <= group_b.count()):
                self._assign(group_a, entries[i])
            else:
                self._assign(group_b, entries[i])
        return group_a, group_b

    def _pick_seeds(self, entries: list, reps: list[tuple[float, ...]]) -> tuple[int, int]:
        """Most wasteful pair (largest dead area when grouped together)."""
        worst = -math.inf
        pair = (0, 1)
        n = len(reps)
        for i in range(n):
            for j in range(i + 1, n):
                mins = [min(a, b) for a, b in zip(reps[i], reps[j])]
                maxs = [max(a, b) for a, b in zip(reps[i], reps[j])]
                waste = _area(mins, maxs)
                if waste > worst:
                    worst = waste
                    pair = (i, j)
        return pair

    def _assign(self, group: _Node, entry) -> None:
        if group.leaf:
            point, payload = entry
            group.payloads.append((point, payload))
            for d in range(self._ndim):
                group.mins[d] = min(group.mins[d], point[d])
                group.maxs[d] = max(group.maxs[d], point[d])
        else:
            group.children.append(entry)
            for d in range(self._ndim):
                group.mins[d] = min(group.mins[d], entry.mins[d])
                group.maxs[d] = max(group.maxs[d], entry.maxs[d])

    def _recompute_mbr(self, node: _Node) -> None:
        for d in range(self._ndim):
            node.mins[d] = min(c.mins[d] for c in node.children)
            node.maxs[d] = max(c.maxs[d] for c in node.children)

    # -- queries -------------------------------------------------------------

    def search(self, lows: Sequence[float], highs: Sequence[float]) -> list[int]:
        """Payloads of all points inside the half-open box ``[lows, highs)``."""
        if len(lows) != self._ndim or len(highs) != self._ndim:
            raise ValueError("query box dimensionality mismatch")
        out: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if self._size == 0:
                break
            if any(node.mins[d] >= highs[d] or node.maxs[d] < lows[d] for d in range(self._ndim)):
                continue
            if node.leaf:
                for point, payload in node.payloads:
                    if all(lows[d] <= point[d] < highs[d] for d in range(self._ndim)):
                        out.append(payload)
            else:
                stack.extend(node.children)
        return out

    def leaf_order(self) -> list[int]:
        """Payloads in depth-first leaf order — the ``-ind`` placement."""
        order: list[int] = []
        for node in self._dfs():
            if node.leaf:
                order.extend(payload for _, payload in node.payloads)
        return order

    def leaf_mbrs(self) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
        """MBRs of all leaves, in DFS order (used by tests/diagnostics)."""
        return [
            (tuple(n.mins), tuple(n.maxs))
            for n in self._dfs()
            if n.leaf and n.count() > 0
        ]

    def _dfs(self) -> Iterator[_Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.leaf:
                # Reverse keeps child order stable for the DFS.
                stack.extend(reversed(node.children))


def _str_order(points: np.ndarray, leaf_capacity: int) -> np.ndarray:
    """Row permutation packing points into STR tiles."""
    n, ndim = points.shape
    num_leaves = math.ceil(n / leaf_capacity)
    if ndim == 1:
        return np.argsort(points[:, 0], kind="stable")
    strips = max(1, math.ceil(math.sqrt(num_leaves)))
    rows_per_strip = math.ceil(n / strips)
    by_x = np.argsort(points[:, 0], kind="stable")
    pieces = []
    for start in range(0, n, rows_per_strip):
        strip = by_x[start : start + rows_per_strip]
        pieces.append(strip[np.argsort(points[strip, 1], kind="stable")])
    return np.concatenate(pieces)
