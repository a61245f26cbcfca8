"""Unit and property tests for the exploration grid."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Grid, Rect


class TestGridShape:
    def test_shape_and_cell_count(self, grid_10x10):
        assert grid_10x10.shape == (10, 10)
        assert grid_10x10.num_cells == 100
        assert grid_10x10.ndim == 2

    def test_clipped_last_cell(self):
        grid = Grid(Rect.from_bounds([(0.0, 10.5)]), (3.0,))
        assert grid.shape == (4,)
        last = grid.cell_interval(0, 3)
        assert last.lo == 9.0
        assert last.hi == 10.5  # clipped to the area bound

    def test_step_count_mismatch(self):
        with pytest.raises(ValueError, match="steps"):
            Grid(Rect.from_bounds([(0, 1), (0, 1)]), (1.0,))

    def test_nonpositive_step(self):
        with pytest.raises(ValueError, match="positive"):
            Grid(Rect.from_bounds([(0, 1)]), (0.0,))

    def test_empty_area(self):
        with pytest.raises(ValueError, match="positive extent"):
            Grid(Rect.from_bounds([(1.0, 1.0)]), (1.0,))

    def test_exact_division_has_no_phantom_cell(self):
        grid = Grid(Rect.from_bounds([(0.0, 10.0)]), (2.0,))
        assert grid.shape == (5,)


class TestCellAddressing:
    def test_cell_rect(self, grid_10x10):
        rect = grid_10x10.cell_rect((2, 3))
        assert rect.lower == (2.0, 3.0)
        assert rect.upper == (3.0, 4.0)

    def test_cell_of_point(self, grid_10x10):
        assert grid_10x10.cell_of_point((2.5, 3.99)) == (2, 3)
        assert grid_10x10.cell_of_point((0.0, 0.0)) == (0, 0)

    def test_cell_of_point_outside(self, grid_10x10):
        with pytest.raises(ValueError, match="outside"):
            grid_10x10.cell_of_point((10.0, 5.0))

    def test_point_in_clipped_cell(self):
        grid = Grid(Rect.from_bounds([(0.0, 10.5)]), (3.0,))
        assert grid.cell_of_point((10.4,)) == (3,)

    def test_flat_id_roundtrip(self, grid_10x10):
        for idx in [(0, 0), (9, 9), (3, 7)]:
            flat = grid_10x10.flat_id(idx)
            assert grid_10x10.index_of_flat(flat) == idx

    def test_flat_id_row_major(self, grid_10x10):
        assert grid_10x10.flat_id((0, 0)) == 0
        assert grid_10x10.flat_id((0, 1)) == 1
        assert grid_10x10.flat_id((1, 0)) == 10

    def test_flat_id_bounds(self, grid_10x10):
        with pytest.raises(ValueError, match="out of range"):
            grid_10x10.flat_id((10, 0))
        with pytest.raises(ValueError, match="out of range"):
            grid_10x10.index_of_flat(100)

    def test_iter_cells_covers_everything(self):
        grid = Grid(Rect.from_bounds([(0, 3), (0, 2)]), (1.0, 1.0))
        cells = list(grid.iter_cells())
        assert len(cells) == 6
        assert len(set(cells)) == 6

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_flat_roundtrip_property(self, i, j):
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
        assert grid.index_of_flat(grid.flat_id((i, j))) == (i, j)

    @given(
        st.floats(min_value=0, max_value=9.999, allow_nan=False),
        st.floats(min_value=0, max_value=9.999, allow_nan=False),
    )
    def test_point_lands_in_its_cell(self, x, y):
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
        idx = grid.cell_of_point((x, y))
        assert grid.cell_rect(idx).contains_point((x, y))


class TestBoxRect:
    def test_box_rect(self, grid_10x10):
        rect = grid_10x10.box_rect((2, 3), (4, 5))
        assert rect.lower == (2.0, 3.0)
        assert rect.upper == (4.0, 5.0)

    def test_box_rect_validates(self, grid_10x10):
        with pytest.raises(ValueError, match="invalid"):
            grid_10x10.box_rect((2, 3), (2, 5))  # empty in dim 0
        with pytest.raises(ValueError, match="invalid"):
            grid_10x10.box_rect((0, 0), (11, 1))

    def test_box_rect_clipped_edge(self):
        grid = Grid(Rect.from_bounds([(0.0, 10.5)]), (3.0,))
        rect = grid.box_rect((2,), (4,))
        assert rect.upper == (10.5,)


class TestGridKey:
    def test_key_strings_are_pinned(self):
        """``grid_key`` is stored in SQLite files and ``grid_signature`` is
        compared across served sessions, so both must stay byte-stable."""
        from repro.serve import grid_signature
        from repro.storage import grid_key

        cases = [
            (
                Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0)),
                "((0.0, 0.0), (10.0, 10.0), (1.0, 1.0))",
                "g:b4620afa3d95ad34ef43889fbb4b52baa6644590",
            ),
            (
                Grid(Rect.from_bounds([(0, 5840)]), (365,)),
                "((0,), (5840,), (365,))",
                "g:74e685587851817f1a9f8e053ab48523a01b0986",
            ),
        ]
        for grid, key, signature in cases:
            assert grid.key == (grid.area.lower, grid.area.upper, grid.steps)
            assert grid_key(grid) == key
            assert grid_signature(grid) == signature
