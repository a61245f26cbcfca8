"""Tests for the Sort-Tile-Recursive order and the str placement ablation.

An STR bulk load packs leaves from one sort; ``str_order`` is that sort,
so no tree is built.  Leaf MBRs below are the ``max_entries``-row chunks
of the order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.storage import RTree
from repro.storage.placement import index_order, order_rows, str_order


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(91)
    return rng.uniform(0, 10, (500, 2))


def _strips(coords, max_entries):
    """The row ranges of ``str_order``'s strips, in order."""
    n = coords.shape[0]
    strips = max(1, math.ceil(math.sqrt(math.ceil(n / max_entries))))
    per_strip = math.ceil(n / strips)
    return [(lo, min(lo + per_strip, n)) for lo in range(0, n, per_strip)]


def _touches(mins, maxs, lows, highs):
    return all(mi < h and ma >= l for mi, ma, l, h in zip(mins, maxs, lows, highs))


class TestStrBulkLoad:
    def test_size_and_leaf_order(self, points):
        order = str_order(points, max_entries=16)
        assert order.shape == (500,)
        assert sorted(order) == list(range(500))

    def test_strips_sorted_on_x(self, points):
        order = str_order(points, max_entries=16)
        ranges = _strips(points, 16)
        assert len(ranges) == 6
        for (lo, hi), (nlo, nhi) in zip(ranges, ranges[1:]):
            assert points[order[lo:hi], 0].max() <= points[order[nlo:nhi], 0].min()

    def test_rows_within_a_strip_sorted_on_y(self, points):
        order = str_order(points, max_entries=16)
        for lo, hi in _strips(points, 16):
            assert np.all(np.diff(points[order[lo:hi], 1]) >= 0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            str_order(np.empty((0, 2)))

    def test_1d_input(self):
        pts = np.array([[3.0], [1.0], [2.0], [5.0], [2.0]])
        np.testing.assert_array_equal(str_order(pts, max_entries=4), [1, 2, 4, 0, 3])

    def test_str_beats_insertion_on_query_fanout(self, points):
        """The quality gap justifying the -ind vs STR ablation."""
        order = str_order(points, max_entries=16)
        packed = [
            (points[chunk].min(axis=0), points[chunk].max(axis=0))
            for chunk in np.array_split(order, range(16, 500, 16))
        ]
        inserted = RTree(2, max_entries=16)
        rng = np.random.default_rng(92)
        for i in rng.permutation(500):
            inserted.insert(tuple(points[i]), int(i))
        inserted_leaves = [(n.mins, n.maxs) for n in inserted._dfs() if n.leaf]
        total_packed = total_inserted = 0
        for seed in range(40):
            r = np.random.default_rng(seed)
            lo = r.uniform(0, 8, 2)
            hi = lo + 2
            total_packed += sum(_touches(mi, ma, lo, hi) for mi, ma in packed)
            total_inserted += sum(_touches(mi, ma, lo, hi) for mi, ma in inserted_leaves)
        assert total_packed < total_inserted


class TestStrPlacement:
    def test_str_order_is_permutation(self, points):
        order = str_order(points)
        assert sorted(order) == list(range(500))

    def test_dispatch(self, points):
        np.testing.assert_array_equal(order_rows("str", points), str_order(points))

    def test_str_locality_at_least_index(self, points):
        """STR ordering's neighbor distance should not exceed insertion's."""
        str_gap = np.linalg.norm(
            np.diff(points[str_order(points)], axis=0), axis=1
        ).mean()
        ins_gap = np.linalg.norm(
            np.diff(points[index_order(points)], axis=0), axis=1
        ).mean()
        assert str_gap < ins_gap * 1.25
