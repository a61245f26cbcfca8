"""A Guttman R-tree (quadratic split), used as the GiST-index stand-in.

The paper creates a GiST index per data set ("In PostgreSQL, GiST indexes
are used instead of R-trees") and evaluates an ``-ind`` placement where
tuples are clustered in index order: better than axis ordering, worse than
Hilbert/explicit clustering because insertion-built R-trees do not
guarantee an efficient linear order (Section 6, Table 2).

We therefore build the index the same way — one-at-a-time insertion with
Guttman's quadratic split — and derive the ``-ind`` placement from a DFS
over its leaves.  That leaf order is all the tree is used for
(``storage/placement.py::index_order``); it answers no range queries.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

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
        self._handle_overflow(path)

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

    # -- placement ---------------------------------------------------------

    def leaf_order(self) -> list[int]:
        """Payloads in depth-first leaf order — the ``-ind`` placement."""
        order: list[int] = []
        for node in self._dfs():
            if node.leaf:
                order.extend(payload for _, payload in node.payloads)
        return order

    def _dfs(self) -> Iterator[_Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.leaf:
                # Reverse keeps child order stable for the DFS.
                stack.extend(reversed(node.children))

