"""Unit tests for physical placements and heap tables."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import Grid, Rect
from repro.storage import (
    HeapTable,
    TableSchema,
    axis_order,
    cell_flat_ids,
    cluster_order,
    hilbert_order,
    index_order,
    order_rows,
    random_order,
)


@pytest.fixture()
def coords():
    rng = np.random.default_rng(7)
    return rng.uniform(0, 10, (300, 2))


@pytest.fixture()
def unit_grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


class TestPlacements:
    def test_axis_order_sorts_primary(self, coords):
        perm = axis_order(coords, primary_dim=0)
        xs = coords[perm, 0]
        assert np.all(np.diff(xs) >= 0)

    def test_axis_order_other_dim(self, coords):
        perm = axis_order(coords, primary_dim=1)
        ys = coords[perm, 1]
        assert np.all(np.diff(ys) >= 0)

    def test_axis_order_validates_dim(self, coords):
        with pytest.raises(ValueError, match="out of range"):
            axis_order(coords, primary_dim=2)

    def test_all_orders_are_permutations(self, coords, unit_grid):
        n = coords.shape[0]
        for perm in (
            axis_order(coords),
            hilbert_order(coords),
            cluster_order(coords, unit_grid),
            index_order(coords),
            random_order(n),
        ):
            assert sorted(perm) == list(range(n))

    def test_cluster_order_groups_cells(self, coords, unit_grid):
        perm = cluster_order(coords, unit_grid)
        flats = cell_flat_ids(coords[perm], unit_grid)
        # Each cell's tuples are contiguous: cell ids never reappear.
        seen = set()
        previous = None
        for f in flats:
            if f != previous:
                assert f not in seen, "cell id reappeared — grouping broken"
                seen.add(f)
                previous = f

    def test_cluster_order_requires_grid(self, coords):
        with pytest.raises(ValueError, match="requires the grid"):
            order_rows("cluster", coords)

    def test_order_rows_dispatch(self, coords, unit_grid):
        perm = order_rows("hilbert", coords)
        np.testing.assert_array_equal(perm, hilbert_order(coords))

    def test_cell_flat_ids_outside_marked(self, unit_grid):
        coords = np.array([[5.0, 5.0], [11.0, 5.0], [-1.0, 2.0]])
        flats = cell_flat_ids(coords, unit_grid)
        assert flats[0] == unit_grid.flat_id((5, 5))
        assert flats[1] == -1
        assert flats[2] == -1

    def test_1d_coords_accepted(self):
        grid = Grid(Rect.from_bounds([(0.0, 10.0)]), (1.0,))
        coords = np.array([3.0, 1.0, 7.0])
        perm = order_rows("axis", coords, grid=grid)
        np.testing.assert_array_equal(perm, [1, 0, 2])


class TestTableSchema:
    def test_attribute_columns(self):
        schema = TableSchema(["x", "y", "v"], ["x", "y"])
        assert schema.attribute_columns == ("v",)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TableSchema(["x", "x"], ["x"])

    def test_coordinate_must_exist(self):
        with pytest.raises(ValueError, match="not in schema"):
            TableSchema(["x"], ["y"])

    def test_needs_coordinates(self):
        with pytest.raises(ValueError, match="coordinate column"):
            TableSchema(["x"], [])


class TestHeapTable:
    def test_shape(self, small_table):
        assert small_table.num_rows == 600
        assert small_table.num_blocks == 38  # ceil(600/16)
        assert small_table.ndim == 2

    def test_column_read_only(self, small_table):
        column = small_table.column("v")
        with pytest.raises(ValueError):
            column[0] = 99.0

    def test_unknown_column(self, small_table):
        with pytest.raises(KeyError, match="no column"):
            small_table.column("nope")

    def test_block_rows(self, small_table):
        assert small_table.block_rows(0) == slice(0, 16)
        assert small_table.block_rows(37) == slice(592, 600)
        with pytest.raises(ValueError, match="out of range"):
            small_table.block_rows(38)

    def test_rows_of_blocks(self, small_table):
        rows = small_table.rows_of_blocks(np.array([0, 37]))
        assert rows.size == 16 + 8
        assert rows[0] == 0 and rows[-1] == 599

    def test_blocks_matching_exact(self, small_table):
        lows, highs = (2.0, 3.0), (4.0, 5.0)
        blocks, matching = small_table.blocks_matching(lows, highs)
        coords = small_table.coordinates()
        expected_rows = [
            i
            for i in range(small_table.num_rows)
            if lows[0] <= coords[i, 0] < highs[0] and lows[1] <= coords[i, 1] < highs[1]
        ]
        np.testing.assert_array_equal(matching, expected_rows)
        np.testing.assert_array_equal(
            blocks, np.unique(np.array(expected_rows) // 16)
        )

    def test_blocks_matching_empty_region(self, small_table):
        blocks, matching = small_table.blocks_matching((20.0, 20.0), (30.0, 30.0))
        assert blocks.size == 0 and matching.size == 0

    def test_mbr_prefilter_superset(self, small_table):
        lows, highs = (1.0, 1.0), (2.0, 2.0)
        coarse = set(small_table.blocks_intersecting(lows, highs).tolist())
        exact = set(small_table.blocks_matching(lows, highs)[0].tolist())
        assert exact <= coarse

    def test_validation(self):
        schema = TableSchema(["x"], ["x"])
        with pytest.raises(ValueError, match="empty"):
            HeapTable("t", schema, {"x": np.array([])})
        with pytest.raises(ValueError, match="lengths differ"):
            HeapTable(
                "t",
                TableSchema(["x", "y"], ["x"]),
                {"x": np.array([1.0]), "y": np.array([1.0, 2.0])},
            )
        with pytest.raises(ValueError, match="missing column"):
            HeapTable("t", TableSchema(["x", "y"], ["x"]), {"x": np.array([1.0])})
        with pytest.raises(ValueError, match="positive"):
            HeapTable("t", schema, {"x": np.array([1.0])}, tuples_per_block=0)


def _pinned_inputs():
    """Three seeded coordinate sets with a grid each (2-d, 2-d with duplicates, 3-d)."""
    rng = np.random.default_rng(1)
    yield "uniform2d", rng.uniform(0, 10, (300, 2)), Grid(
        Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0)
    )
    rng = np.random.default_rng(2)
    yield "dups2d", np.round(rng.uniform(0, 8, (400, 2)), 1), Grid(
        Rect.from_bounds([(0.0, 8.0), (0.0, 8.0)]), (2.0, 0.5)
    )
    rng = np.random.default_rng(3)
    yield "normal3d", rng.normal(5, 2, (350, 3)), Grid(
        Rect.from_bounds([(0.0, 10.0)] * 3), (2.5, 2.5, 2.5)
    )


# sha256 of each placement's row permutation as little-endian int64.
_PINNED_ORDERS = {
    ("uniform2d", "axis"): "c8ec921ac8667545541682b5a40cd205ce6291ab37bf245898eb95f4dfac9dc1",
    ("uniform2d", "index"): "44c4fc084ffdd8bac31e4c42486baf4ab83019fc73dcbe8dfaa53074c163ae26",
    ("uniform2d", "hilbert"): "6e60c273a83333de370c0f8876d99f79c96fbd55369cc08b73b08775d824882b",
    ("uniform2d", "cluster"): "1c52747a24adac75b75a76c1db00a0076d65546a5bbf0f0291c1d79d1b81b145",
    ("uniform2d", "random"): "fc4f68b1416f0516f46fc1f4dea80646f176f944b2951104dc35ec433ad22035",
    ("uniform2d", "str"): "e9530c1922ae1e7a3fbcda3fecf8ab19eb7a4f5dff63010b3af3ae34f102995f",
    ("dups2d", "axis"): "b54ce8f7b75862eb3d1902a62c60d8ff210ae214a053b207a320967dc20d4761",
    ("dups2d", "index"): "3e92fcb8b690cf72679f0d3dd7aff228cf6b3c10b9b9614a921ca61244357a81",
    ("dups2d", "hilbert"): "27a3e0c10f17db38b58e4aa22dabd07bfcd40ac34cb3fcffd3d6ebaf9bda353a",
    ("dups2d", "cluster"): "cadcc2898a64d307640ed5ce81b77273dce9cf14666217284364255b9019841a",
    ("dups2d", "random"): "f49fd50b3b4dc35c3c98f8850cb77cd6ef0c3b9ba5c594736f22296eb88c17d5",
    ("dups2d", "str"): "53c5de2f3e6a6d98b276ce18d3bb5527b78671c320d2adb44d9fbee80b11e87a",
    ("normal3d", "axis"): "54ac3df2bb2ecdee0e58551398a39d086ef6808a3732d20915f588f33abc299f",
    ("normal3d", "index"): "b12f47f9e4f428789bd14fd953c165ff2b71ef3033be9d2933ea3fba8f2912da",
    ("normal3d", "hilbert"): "a4051e732c538b2eba7ce76e21bc6cf9f4e0faf9269044551b2a9ea46436f8a9",
    ("normal3d", "cluster"): "ba4265172809669287138a5e0287420127a10300fdcba773545ccb3730d892b9",
    ("normal3d", "random"): "073b56db4cd7daf6ac7bfec4964b046360c6ff28c6bd78a36f4650c401de2cdd",
    ("normal3d", "str"): "62b1b49df3330e72703d92d0fd180b20f71bd256e8e50c0e65d398d32a1be726",
}


def test_order_rows_pinned():
    """Every placement's permutation is byte-stable on three seeded inputs."""
    for name, coords, grid in _pinned_inputs():
        for placement in ("axis", "index", "hilbert", "cluster", "random", "str"):
            order = order_rows(placement, coords, grid=grid)
            digest = hashlib.sha256(np.asarray(order, dtype="<i8").tobytes()).hexdigest()
            assert digest == _PINNED_ORDERS[name, placement], (name, placement)
