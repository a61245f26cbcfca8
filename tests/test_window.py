"""Unit and property tests for windows and the search-graph structure."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Direction, Grid, Rect, Window, enumerate_windows
from repro.core.window import neighbor_bounds


@st.composite
def windows(draw, ndim=2, max_coord=12):
    lo = tuple(draw(st.integers(0, max_coord - 1)) for _ in range(ndim))
    hi = tuple(draw(st.integers(l + 1, max_coord)) for l in lo)
    return Window(lo, hi)


class TestWindowBasics:
    def test_shape_functions(self):
        w = Window((1, 2), (4, 3))
        assert w.lengths == (3, 1)
        assert w.length(0) == 3
        assert w.cardinality == 3
        assert w.anchor == (1, 2)

    def test_single_cell(self):
        w = Window.single_cell((5, 6))
        assert w.cardinality == 1
        assert w.lo == (5, 6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            Window((1, 1), (1, 2))

    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError, match="matching dimensionality"):
            Window((1,), (2, 3))

    def test_iter_cells(self):
        w = Window((0, 0), (2, 2))
        assert sorted(w.iter_cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_contains_cell(self):
        w = Window((1, 1), (3, 3))
        assert w.contains_cell((2, 2))
        assert not w.contains_cell((3, 2))

    def test_hashable_and_equal(self):
        assert Window((0, 0), (1, 1)) == Window((0, 0), (1, 1))
        assert len({Window((0, 0), (1, 1)), Window((0, 0), (1, 1))}) == 1


class TestWindowAlgebra:
    def test_overlap(self):
        a = Window((0, 0), (3, 3))
        b = Window((2, 2), (5, 5))
        c = Window((3, 3), (5, 5))
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_intersection(self):
        a = Window((0, 0), (3, 3))
        b = Window((2, 1), (5, 2))
        assert a.intersection(b) == Window((2, 1), (3, 2))
        assert a.intersection(Window((4, 4), (5, 5))) is None

    def test_hull(self):
        a = Window((0, 0), (1, 1))
        b = Window((3, 2), (4, 4))
        assert a.hull(b) == Window((0, 0), (4, 4))

    def test_contains_window(self):
        outer = Window((0, 0), (5, 5))
        assert outer.contains_window(Window((1, 1), (3, 3)))
        assert outer.contains_window(outer)
        assert not outer.contains_window(Window((4, 4), (6, 6)))

    def test_is_extension_of(self):
        base = Window((1, 1), (2, 2))
        ext = Window((1, 1), (4, 4))
        assert ext.is_extension_of(base)
        assert not base.is_extension_of(base)
        assert not base.is_extension_of(ext)

    @given(windows(), windows())
    def test_overlap_matches_intersection(self, a, b):
        assert a.overlaps(b) == (a.intersection(b) is not None)

    @given(windows(), windows())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_window(a)
        assert hull.contains_window(b)


class TestNeighbors:
    def test_neighbor_directions(self, grid_10x10):
        w = Window((2, 2), (4, 4))
        nbrs = set(w.neighbors(grid_10x10))
        assert nbrs == {
            Window((1, 2), (4, 4)),  # left in dim 0
            Window((2, 2), (5, 4)),  # right in dim 0
            Window((2, 1), (4, 4)),  # left in dim 1
            Window((2, 2), (4, 5)),  # right in dim 1
        }

    def test_neighbor_at_boundary(self, grid_10x10):
        w = Window((0, 0), (10, 1))
        assert w.neighbor(grid_10x10, 0, Direction.LEFT) is None
        assert w.neighbor(grid_10x10, 0, Direction.RIGHT) is None
        assert w.neighbor(grid_10x10, 1, Direction.RIGHT) == Window((0, 0), (10, 2))

    def test_every_neighbor_is_one_cell_bigger(self, grid_10x10):
        w = Window((3, 3), (5, 6))
        for nbr in w.neighbors(grid_10x10):
            assert nbr.is_extension_of(w)
            assert nbr.cardinality - w.cardinality in (
                w.cardinality // w.length(0),
                w.cardinality // w.length(1),
            )

    @given(windows(ndim=2, max_coord=10))
    def test_neighbors_contain_original(self, w):
        grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
        for nbr in w.neighbors(grid):
            assert nbr.contains_window(w)

    def test_extend_validates_amount(self):
        with pytest.raises(ValueError, match=">= 1"):
            Window((0, 0), (1, 1)).extend(0, Direction.RIGHT, 0)


class TestEnumerateWindows:
    def test_count_1d(self):
        grid = Grid(Rect.from_bounds([(0.0, 4.0)]), (1.0,))
        wins = list(enumerate_windows(grid))
        # n*(n+1)/2 = 10 windows over 4 cells.
        assert len(wins) == 10
        assert len(set(wins)) == 10

    def test_count_2d(self):
        grid = Grid(Rect.from_bounds([(0.0, 3.0), (0.0, 3.0)]), (1.0, 1.0))
        wins = list(enumerate_windows(grid))
        assert len(wins) == 36  # (3*4/2)^2

    def test_max_lengths(self):
        grid = Grid(Rect.from_bounds([(0.0, 4.0)]), (1.0,))
        wins = list(enumerate_windows(grid, max_lengths=(2,)))
        assert all(w.length(0) <= 2 for w in wins)
        assert len(wins) == 7  # 4 singles + 3 pairs

    def test_max_lengths_validation(self):
        grid = Grid(Rect.from_bounds([(0.0, 4.0)]), (1.0,))
        with pytest.raises(ValueError, match="dimensionality"):
            list(enumerate_windows(grid, max_lengths=(2, 2)))

    def test_all_reachable_via_neighbors(self):
        """Every window is reachable from a cell through neighbor steps."""
        grid = Grid(Rect.from_bounds([(0.0, 4.0), (0.0, 3.0)]), (1.0, 1.0))
        reached = {Window.single_cell(c) for c in grid.iter_cells()}
        frontier = list(reached)
        while frontier:
            w = frontier.pop()
            for nbr in w.neighbors(grid):
                if nbr not in reached:
                    reached.add(nbr)
                    frontier.append(nbr)
        assert reached == set(enumerate_windows(grid))


class TestWindowRect:
    def test_rect(self, grid_10x10):
        w = Window((2, 3), (4, 5))
        rect = w.rect(grid_10x10)
        assert rect.lower == (2.0, 3.0)
        assert rect.upper == (4.0, 5.0)

    def test_rect_volume_matches_cardinality_on_unit_grid(self, grid_10x10):
        w = Window((1, 1), (4, 3))
        assert w.rect(grid_10x10).volume == pytest.approx(w.cardinality)


class TestCanonicalKey:
    """Window.key/from_key: the cross-session canonical identity."""

    def test_round_trip_and_uniqueness_over_all_windows(self):
        grid = Grid(Rect.from_bounds([(0.0, 4.0), (0.0, 3.0)]), (1.0, 1.0))
        shape = grid.shape
        keys = {}
        for window in enumerate_windows(grid):
            key = window.key(shape)
            assert key not in keys, f"{window} collides with {keys[key]}"
            keys[key] = window
            assert Window.from_key(key, shape) == window

    @given(
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
        st.data(),
    )
    def test_round_trip_3d(self, shape, data):
        lo = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        hi = tuple(data.draw(st.integers(lo[d] + 1, shape[d])) for d in range(3))
        window = Window(lo, hi)
        assert Window.from_key(window.key(shape), shape) == window

    def test_key_depends_on_shape(self):
        window = Window((1, 1), (2, 2))
        assert window.key((4, 4)) != window.key((5, 5))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensionality"):
            Window((0, 0), (1, 1)).key((4,))

    def test_undecodable_key_rejected(self):
        shape = (3, 3)
        top = Window((2, 2), (3, 3)).key(shape)
        with pytest.raises(ValueError, match="does not decode"):
            Window.from_key(top + (3 * 3 * 4 * 4), shape)


class TestNeighborBounds:
    """The scalar expansion both search loops share, against its oracle."""

    @staticmethod
    def oracle(window, grid, max_lengths, max_card):
        """``Window.neighbors`` filtered the way Algorithm 1 words it."""
        kept, capped = [], 0
        for neighbor in window.neighbors(grid):
            too_long = any(n > m for n, m in zip(neighbor.lengths, max_lengths))
            if too_long or (max_card is not None and neighbor.cardinality > max_card):
                capped += 1
            else:
                kept.append((neighbor.lo, neighbor.hi))
        return kept, capped

    @given(st.integers(1, 4), st.data())
    def test_matches_filtered_window_neighbors(self, ndim, data):
        shape = tuple(data.draw(st.integers(1, 6)) for _ in range(ndim))
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * ndim)
        assert grid.shape == shape
        lo = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        hi = tuple(data.draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
        window = Window(lo, hi)
        # The search only expands windows inside the caps, but lengths
        # sitting exactly on a cap (and a cap of 1) are the edge to hit.
        max_lengths = tuple(
            data.draw(st.integers(length, s + 1))
            for length, s in zip(window.lengths, shape)
        )
        max_card = data.draw(
            st.one_of(st.none(), st.integers(window.cardinality, 2 * window.cardinality + 1))
        )
        bounds, capped = neighbor_bounds(lo, hi, shape, max_lengths, max_card)
        assert (bounds, capped) == self.oracle(window, grid, max_lengths, max_card)

    def test_order_and_caps_by_hand(self):
        shape = (4, 4)
        every = neighbor_bounds((1, 1), (2, 3), shape, shape, None)
        assert every == (
            [((0, 1), (2, 3)), ((1, 1), (3, 3)), ((1, 0), (2, 3)), ((1, 1), (2, 4))],
            0,
        )
        # Length cap on dimension 1: both of its directions are capped.
        assert neighbor_bounds((1, 1), (2, 3), shape, (4, 2), None) == (
            [((0, 1), (2, 3)), ((1, 1), (3, 3))],
            2,
        )
        # card 2 -> 4 along dimension 0 breaks a cap of 3; 2 -> 3 along 1 fits.
        assert neighbor_bounds((1, 1), (2, 3), shape, shape, 3) == (
            [((1, 0), (2, 3)), ((1, 1), (2, 4))],
            2,
        )
        # Grid edges are not caps: nothing to count in a full-grid window.
        assert neighbor_bounds((0, 0), (4, 4), shape, (1, 1), 1) == ([], 0)
