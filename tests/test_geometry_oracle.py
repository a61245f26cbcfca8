"""Grid edge tables and unchecked neighbours against the arithmetic they replace.

:class:`~repro.core.Grid` looks every cell interval and window rectangle
up in a per-dimension table of cell edges, and
:meth:`~repro.core.Window.extend` (so :meth:`~repro.core.Window.neighbor`)
builds its result without re-validating it.  The oracles here are the
code as first written: ``L + i * s`` clipped to ``U`` per call, and
"check the boundary, then extend" with the extension built from lists
and validated.  Bounds are compared with ``float.hex`` over random areas
and steps, including clipped last cells and steps with no exact binary
representation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Grid, Rect
from repro.core.window import Direction, Window


def oracle_cell_interval(grid: Grid, dim: int, index: int) -> tuple[float, float]:
    area_iv = grid.area[dim]
    lo = area_iv.lo + index * grid.steps[dim]
    return lo, min(lo + grid.steps[dim], area_iv.hi)


def oracle_box_rect(grid: Grid, lo, hi) -> list[tuple[float, float]]:
    return [
        (oracle_cell_interval(grid, d, lo[d])[0], oracle_cell_interval(grid, d, hi[d] - 1)[1])
        for d in range(grid.ndim)
    ]


def oracle_extend(window: Window, dim: int, direction: Direction, amount: int = 1) -> Window:
    lo, hi = list(window.lo), list(window.hi)
    if direction is Direction.LEFT:
        lo[dim] -= amount
    else:
        hi[dim] += amount
    return Window(tuple(lo), tuple(hi))


def oracle_neighbor(window: Window, grid: Grid, dim: int, direction: Direction):
    if direction is Direction.LEFT:
        if window.lo[dim] == 0:
            return None
    elif window.hi[dim] >= grid.shape[dim]:
        return None
    return oracle_extend(window, dim, direction)


def _hex(pairs) -> list[tuple[str, str]]:
    return [(float.hex(float(lo)), float.hex(float(hi))) for lo, hi in pairs]


@st.composite
def grids(draw):
    ndim = draw(st.integers(1, 3))
    bounds, steps = [], []
    for _ in range(ndim):
        lo = draw(st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.1, 1 / 3, 123.456]),
        ))
        step = draw(st.one_of(
            st.floats(1e-3, 50.0, allow_nan=False),
            st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.0, 2.5]),
        ))
        cells = draw(st.integers(1, 40))
        # Shave a fraction of a step off: the last cell clips.
        shave = draw(st.sampled_from([0.0, 0.0, 0.5, 0.9, 1e-7]))
        hi = lo + step * (cells - shave)
        if not hi > lo:
            hi = math.nextafter(lo, math.inf)
        bounds.append((lo, hi))
        steps.append(step)
    return Grid(Rect.from_bounds(bounds), tuple(steps))


@st.composite
def grid_and_box(draw):
    grid = draw(grids())
    lo, hi = [], []
    for size in grid.shape:
        a = draw(st.integers(0, size - 1))
        b = draw(st.integers(a + 1, size))
        lo.append(a)
        hi.append(b)
    return grid, tuple(lo), tuple(hi)


@given(grid=grids())
@settings(max_examples=200, deadline=None)
def test_every_cell_interval_matches_the_arithmetic(grid):
    for dim, size in enumerate(grid.shape):
        got = [grid.cell_interval(dim, i) for i in range(size)]
        assert _hex((iv.lo, iv.hi) for iv in got) == _hex(
            oracle_cell_interval(grid, dim, i) for i in range(size)
        )


@given(case=grid_and_box())
@settings(max_examples=300, deadline=None)
def test_box_rect_matches_the_arithmetic(case):
    grid, lo, hi = case
    rect = grid.box_rect(lo, hi)
    assert _hex((iv.lo, iv.hi) for iv in rect.intervals) == _hex(oracle_box_rect(grid, lo, hi))
    assert Window(lo, hi).rect(grid) == rect


def test_integer_areas_keep_their_types():
    # The table is built with the same expressions, so int stays int.
    rect = Grid(Rect.from_bounds([(0, 10)]), (3,)).box_rect((1,), (4,))
    assert (rect.lower, rect.upper) == ((3,), (10,))
    assert [type(v) for v in rect.lower + rect.upper] == [int, int]


@pytest.mark.parametrize(
    "lo, hi", [((-1, 0), (1, 1)), ((0, 0), (0, 1)), ((0, 0), (11, 1)), ((0,), (1,))]
)
def test_box_rect_still_rejects_invalid_boxes(lo, hi):
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 1.0)]), (1.0, 1.0))
    with pytest.raises(ValueError):
        grid.box_rect(lo, hi)


@given(case=grid_and_box())
@settings(max_examples=300, deadline=None)
def test_neighbor_is_boundary_check_then_extend(case):
    grid, lo, hi = case
    window = Window(lo, hi)
    for dim in range(grid.ndim):
        for direction in (Direction.LEFT, Direction.RIGHT):
            got = window.neighbor(grid, dim, direction)
            expected = oracle_neighbor(window, grid, dim, direction)
            if expected is None:
                assert got is None
                continue
            assert (got.lo, got.hi) == (expected.lo, expected.hi)
            assert type(got.lo) is tuple and type(got.hi) is tuple
            assert got == expected and hash(got) == hash(expected)
            # Valid by construction: validation would accept it.
            Window(got.lo, got.hi)


@given(case=grid_and_box(), amount=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_extend_equals_the_validated_list_arithmetic(case, amount):
    grid, lo, hi = case
    window = Window(lo, hi)
    for dim in range(grid.ndim):
        for direction in (Direction.LEFT, Direction.RIGHT):
            got = window.extend(dim, direction, amount)
            expected = oracle_extend(window, dim, direction, amount)
            assert (got.lo, got.hi) == (expected.lo, expected.hi)
            assert type(got.lo) is tuple and type(got.hi) is tuple
            assert got == expected and hash(got) == hash(expected)
