"""The SQL baseline's array enumerator against its per-window oracle.

``repro.dbms.executor.enumerate_windows_filtered`` scores every placement
of a window shape in one array pass.  It must return exactly what the
``itertools.product`` loop kept in ``tests/naive_oracle.py`` returns:
the same windows, bounds and objective values (float values compared by
their bytes), in the same order, with the same ``enumerated`` count that
the baseline's simulated CPU time is charged on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    SWQuery,
    col,
)
from repro.dbms.executor import CellGrids, enumerate_windows_filtered

from .naive_oracle import naive_enumerate_windows_filtered

AGGREGATES = ("count", "sum", "avg", "min", "max")
OPS = tuple(ComparisonOp)
KEYS = ("a", "b")
# Grid side per dimensionality: a pushdown-free 4-d grid of side 3 still
# enumerates 6^4 windows through the oracle's Python loop.
MAX_SIDE = {1: 12, 2: 7, 3: 4, 4: 3}


def fingerprint(results):
    """Windows, bounds and objective values, floats as their bytes."""
    return [
        (
            r.window,
            r.bounds,
            [(k, type(v), np.float64(v).tobytes()) for k, v in r.objective_values.items()],
            r.time,
        )
        for r in results
    ]


def make_cells(seed, shape, nan_rate):
    """Random cell grids: empty cells (count 0, ±inf extrema), NaN sums."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=shape).astype(float)
    empty = counts == 0
    sums, mins, maxs = {}, {}, {}
    for name in KEYS:
        key = repr(col(name))
        low = rng.normal(20.0, 10.0, size=shape)
        high = low + rng.exponential(5.0, size=shape)
        total = (low + high) / 2 * counts
        total[rng.random(shape) < nan_rate] = np.nan
        low[rng.random(shape) < nan_rate / 2] = np.nan
        sums[key] = np.where(empty, 0.0, total)
        mins[key] = np.where(empty, np.inf, low)
        maxs[key] = np.where(empty, -np.inf, high)
    return CellGrids(counts=counts, sums=sums, mins=mins, maxs=maxs)


def make_query(shape, conditions):
    return SWQuery.build(
        dimensions=tuple(f"d{i}" for i in range(len(shape))),
        area=[(0.0, float(s)) for s in shape],
        steps=[1.0] * len(shape),
        conditions=conditions,
    )


@st.composite
def shape_conditions(draw, ndim):
    conds = []
    for dim in range(ndim):
        if draw(st.booleans()):
            conds.append(ShapeCondition(
                ShapeObjective(ShapeKind.LENGTH, dim),
                draw(st.sampled_from(OPS)),
                draw(st.integers(1, 4)),
            ))
    if draw(st.booleans()):
        conds.append(ShapeCondition(
            ShapeObjective(ShapeKind.CARDINALITY),
            draw(st.sampled_from(OPS)),
            draw(st.integers(1, 12)),
        ))
    return conds


@st.composite
def content_condition(draw, cells):
    """A condition whose value is some cell's own value (times a small
    window cardinality for the additive aggregates), so that windows
    qualify and ``=`` / ``!=`` meet equal operands."""
    agg = draw(st.sampled_from(AGGREGATES))
    if agg == "count":
        objective = ContentObjective.of("count")
        grid = cells.counts
    else:
        objective = ContentObjective.of(agg, col(draw(st.sampled_from(KEYS))))
        grid = {"sum": cells.sums, "min": cells.mins, "max": cells.maxs}.get(agg, cells.sums)
        grid = grid[objective.key]
        if agg == "avg":
            with np.errstate(divide="ignore", invalid="ignore"):
                grid = grid / cells.counts
    finite = grid[np.isfinite(grid)]
    value = float(draw(st.sampled_from(finite.tolist()))) if finite.size else 0.0
    if agg in ("count", "sum"):
        value *= draw(st.integers(1, 4))
    return ContentCondition(objective, draw(st.sampled_from(OPS)), value)


@st.composite
def cases(draw):
    ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, MAX_SIDE[ndim])) for _ in range(ndim))
    cells = make_cells(
        draw(st.integers(0, 2**16)), shape, draw(st.sampled_from([0.0, 0.1]))
    )
    conditions = draw(shape_conditions(ndim)) + draw(
        st.lists(content_condition(cells), min_size=0, max_size=3)
    )
    return shape, cells, conditions


def assert_enumerators_agree(shape, cells, conditions, pushdown):
    query = make_query(shape, conditions)
    got, got_enumerated = enumerate_windows_filtered(query, cells, pushdown=pushdown)
    want, want_enumerated = naive_enumerate_windows_filtered(query, cells, pushdown=pushdown)
    assert got_enumerated == want_enumerated
    assert fingerprint(got) == fingerprint(want)
    return got


# A shape of 4 100 cells: above sliding_reduce's 4 096-cell limit, the
# min/max placements take its per-placement fallback.
WIDE = (
    (4110,),
    make_cells(3, (4110,), 0.0),
    [
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, 4100),
        ContentCondition(ContentObjective.of("min", col("a")), ComparisonOp.LT, 0.0),
        ContentCondition(ContentObjective.of("max", col("b")), ComparisonOp.GT, 0.0),
        ContentCondition(ContentObjective.of("avg", col("a")), ComparisonOp.NE, 0.0),
    ],
)


@settings(max_examples=150, deadline=None)
@given(case=cases(), pushdown=st.booleans())
@example(case=WIDE, pushdown=True)
def test_array_enumerator_equals_the_per_window_oracle(case, pushdown):
    assert_enumerators_agree(*case, pushdown)


def test_wide_shape_case_has_hits():
    """The fallback example must exercise the value path, not an empty mask."""
    assert assert_enumerators_agree(*WIDE, True)
