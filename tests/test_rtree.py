"""Unit and property tests for the Guttman R-tree behind the ``-ind`` placement.

The tree is built by :meth:`RTree.insert` and read only through
:meth:`RTree.leaf_order`, so every check goes through those two.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import RTree


def _leaves(tree):
    return [node for node in tree._dfs() if node.leaf]


def _assert_mbrs_cover(tree):
    """Every node's MBR covers its points (leaves) or children (inner)."""
    for node in tree._dfs():
        if node.leaf:
            boxes = [(p, p) for p, _ in node.payloads]
        else:
            boxes = [(c.mins, c.maxs) for c in node.children]
        for lo, hi in boxes:
            assert all(m <= v for m, v in zip(node.mins, lo))
            assert all(v <= m for m, v in zip(node.maxs, hi))


class TestRTreeBasics:
    def test_empty_tree(self):
        assert RTree(2).leaf_order() == []

    def test_insert_and_leaf_order(self):
        tree = RTree(2, max_entries=4)
        tree.insert((1.0, 1.0), 0)
        tree.insert((5.0, 5.0), 1)
        assert tree.leaf_order() == [0, 1]

    def test_dimension_validation(self):
        tree = RTree(2)
        with pytest.raises(ValueError, match="dims"):
            tree.insert((1.0,), 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="ndim"):
            RTree(0)
        with pytest.raises(ValueError, match="max_entries"):
            RTree(2, max_entries=2)

    def test_split_grows_height(self):
        tree = RTree(2, max_entries=4)
        for i in range(30):
            tree.insert((float(i % 6), float(i // 6)), i)
        assert not tree._root.leaf
        # Quadratic split keeps every leaf between min fill and capacity.
        assert all(2 <= len(leaf.payloads) <= 4 for leaf in _leaves(tree))
        assert sorted(tree.leaf_order()) == list(range(30))
        _assert_mbrs_cover(tree)

    def test_duplicates_allowed(self):
        tree = RTree(2, max_entries=4)
        tree.insert((1.0, 1.0), 0)
        tree.insert((1.0, 1.0), 1)
        assert sorted(tree.leaf_order()) == [0, 1]


class TestRTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_leaf_order_matches_inserted_points(self, points):
        tree = RTree(2, max_entries=5)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert sorted(tree.leaf_order()) == list(range(len(points)))
        for leaf in _leaves(tree):
            assert len(leaf.payloads) <= 5
            for point, payload in leaf.payloads:
                assert point == tuple(float(v) for v in points[payload])
        _assert_mbrs_cover(tree)


class TestLeafOrder:
    def test_leaf_order_is_permutation(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, (150, 2))
        tree = RTree(2, max_entries=8)
        for i, p in enumerate(pts):
            tree.insert(tuple(p), i)
        order = tree.leaf_order()
        assert sorted(order) == list(range(150))

    def test_leaf_order_has_locality(self):
        """R-tree leaf neighbors should be spatially closer than random."""
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, (400, 2))
        tree = RTree(2, max_entries=16)
        for i in rng.permutation(400):
            tree.insert(tuple(pts[i]), int(i))
        ordered = pts[np.array(tree.leaf_order())]
        tree_gap = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        random_gap = np.linalg.norm(np.diff(pts, axis=0), axis=1).mean()
        assert tree_gap < random_gap

    def test_leaf_mbrs_cover_points(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 10, (100, 2))
        tree = RTree(2, max_entries=8)
        for i, p in enumerate(pts):
            tree.insert(tuple(p), i)
        mbrs = [(leaf.mins, leaf.maxs) for leaf in _leaves(tree)]
        for p in pts:
            assert any(
                all(lo <= v <= hi for v, lo, hi in zip(p, mins, maxs))
                for mins, maxs in mbrs
            )
