"""The compiled per-window passes against the naive oracle.

A query's scoring pass (``UtilityModel.score``), validation pass
(``DataManager.exact_values``) and fully-read check (``is_read``) are
built once per kernel set as closures over the kernels' flat views
(DESIGN.md §8).  Here they run beside ``tests/naive_oracle.py``, which
composes every value per window from numpy slice reductions, on 1-3-d
grids, every aggregate (interval pairs included), with and without
noise, on grids holding NaN, ±inf and -0.0 cells, for boxes of 1 to 64
cells on both sides of the scalar sum's 16-cell cut, while reads,
installs and checkpoint restores change the Data Manager under them.
Values are compared by ``float.hex``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContentObjective, Grid, Rect, SearchConfig, Window, col
from repro.core import kernels as kernels_module
from repro.core.conditions import (
    ComparisonOp,
    ConditionSet,
    ContentCondition,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
)
from repro.core.datamanager import DataManager
from repro.core.kernels import _SCALAR_SUM_MAX_CELLS
from repro.core.query import SWQuery
from repro.core.search import HeuristicSearch
from repro.obs import MetricsRegistry
from repro.sampling import NoiseModel, StratifiedSampler
from repro.storage import Database, HeapTable, TableSchema

from .naive_oracle import NaiveDataManager, NaiveSearch

#: Per dimensionality, a grid that holds boxes of up to 64 cells.
SHAPES = {1: (80,), 2: (12, 10), 3: (5, 6, 6)}
MAX_CELLS = 64
AGGREGATES = ("count", "sum", "avg", "min", "max")
SPECIALS = (math.nan, math.inf, -math.inf, -0.0)
_INPUTS: dict = {}


def inputs(shape):
    """``(db, grid, sample)`` over ``[0, shape)`` with unit steps, a value
    column ``v``, and points only in the lower half of dimension 0."""
    if shape not in _INPUTS:
        rng = np.random.default_rng(3 * math.prod(shape))
        n = 500
        columns = {
            f"x{d}": rng.uniform(0, size * (0.5 if d == 0 else 1.0), n)
            for d, size in enumerate(shape)
        }
        columns["v"] = rng.normal(25.0, 5.0, n)
        schema = TableSchema(list(columns), [f"x{d}" for d in range(len(shape))])
        db = Database()
        db.register(HeapTable("pts", schema, columns, tuples_per_block=16))
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * len(shape))
        sample = StratifiedSampler(0.3, seed=21).sample(db.table("pts"), grid)
        _INPUTS[shape] = (db, grid, sample)
    return _INPUTS[shape]


@st.composite
def boxes(draw, shape):
    """``(lo, hi)`` of a box of 1 to 64 cells inside ``shape``."""
    lo, hi, cells = [], [], 1
    for size in shape:
        length = draw(st.integers(1, min(size, MAX_CELLS // cells)))
        cells *= length
        low = draw(st.integers(0, size - length))
        lo.append(low)
        hi.append(low + length)
    return tuple(lo), tuple(hi)


@st.composite
def conditions(draw, ndim):
    """One or two objectives — each an interval pair or one bound — and
    maybe a shape condition."""
    out = []
    for agg in draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=2, unique=True)):
        objective = ContentObjective.of(agg, None if agg == "count" else col("v"))
        scale = {"count": 8.0, "sum": 200.0}.get(agg, 25.0)
        low = draw(st.floats(0.0, 1.5)) * scale
        high = low + draw(st.floats(0.0, 1.0)) * scale
        eps = draw(st.one_of(st.none(), st.floats(0.1, 2.0).map(lambda f: f * scale)))
        above = draw(st.sampled_from([ComparisonOp.GT, ComparisonOp.GE]))
        below = draw(st.sampled_from([ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.NE]))
        pair = [
            ContentCondition(objective, above, low, eps),
            ContentCondition(objective, below, high, eps),
        ]
        out += draw(st.sampled_from([pair, pair[:1], pair[1:]]))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(list(ShapeKind)))
        dim = draw(st.integers(0, ndim - 1)) if kind is ShapeKind.LENGTH else None
        op = draw(st.sampled_from(list(ComparisonOp)))
        out.append(ShapeCondition(ShapeObjective(kind, dim), op, float(draw(st.integers(2, 6)))))
    return out


def bits(value: float) -> str:
    """``float.hex``, with every NaN one token."""
    return "nan" if math.isnan(value) else float(value).hex()


def validation(search, window):
    """``_check_window`` by bits — or the error on a window with unread cells."""
    try:
        result = search._check_window(window)
    except ValueError:
        return "unread"
    if result is None:
        return None
    values = sorted((label, bits(v)) for label, v in result.objective_values.items())
    return result.window, bits(result.time), values


OPS = ("read", "install", "poison", "capture", "restore", "score", "score", "estimate", "check")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_pass_matches_oracle(data):
    """Scores, estimates, validations and fully-read checks of the
    compiled passes equal the oracle's per-window composition by bits."""
    ndim = data.draw(st.sampled_from([1, 2, 2, 3]))
    shape = SHAPES[ndim]
    db, grid, sample = inputs(shape)
    conds = data.draw(conditions(ndim))
    query = SWQuery(tuple(f"x{d}" for d in range(ndim)), grid, ConditionSet.of(conds, ndim))
    noise = data.draw(st.sampled_from([None, NoiseModel(30.0)]))
    objectives = query.conditions.content_objectives()
    config = SearchConfig(s=data.draw(st.sampled_from([0.0, 0.5, 1.0])))
    naive = NaiveSearch(
        query, NaiveDataManager(db, "pts", grid, objectives, sample, noise=noise), config
    )
    search = HeuristicSearch(
        query, DataManager(db, "pts", grid, objectives, sample, noise=noise), config,
        metrics=MetricsRegistry(),
    )
    kernels = search.data.kernels
    source = NaiveDataManager(db, "pts", grid, objectives, sample)
    keys = sorted({o.key for o in objectives if o.key != "*"})
    captured = None
    for op in data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=40)):
        window = Window(*data.draw(boxes(shape)))
        if op == "read":
            for core in (naive, search):
                core.data.read_window(window)
        elif op == "install":
            source.read_window(Window.single_cell(window.lo))
            for core in (naive, search):
                core.data.install_cell(window.lo, source.cell_payload(window.lo))
        elif op == "poison" and keys:
            # A special value in every estimation grid of one cell, written
            # in place as the Data Manager writes its grids.
            value = data.draw(st.sampled_from(SPECIALS))
            for core in (naive, search):
                for family in (core.data.eff_sum, core.data.eff_min, core.data.eff_max):
                    family[keys[0]][window.lo] = value
        elif op == "capture":
            captured = (naive.data.state(), search.data.state())
        elif op == "restore" and captured is not None:
            naive.data.restore_state(captured[0])
            search.data.restore_state(captured[1])
        elif op == "score":
            want = [bits(v) for v in naive._utility(window)]
            assert [bits(v) for v in search._utility(window)] == want
            assert bits(search.utility_model.benefit(window)) == want[1]
        elif op == "estimate":
            assert search.data.is_read(window) == naive.data.is_read(window)
            for objective in objectives:
                assert bits(search.data.estimate(objective, window)) == bits(
                    naive.data.estimate(objective, window)
                )
        else:
            assert validation(search, window) == validation(naive, window)
        # One kernel set for the manager's life; the naive run never builds one.
        assert search.data.kernels is kernels and naive.data._kernels is None
    assert search.stats.estimates == naive.stats.estimates
    # A registry's instruments keep the search in CPython's shared-key layout.
    assert len(vars(search)) <= 30


def managers(shape, objectives, noise=None):
    db, grid, sample = inputs(shape)
    return [DataManager(db, "pts", grid, objectives, sample, noise=noise) for _ in range(2)]


def test_restore_keeps_the_kernel_set():
    """A capture restored onto a manager that has read more since scores,
    estimates and validates like a fresh manager given the same reads —
    also once a later read brings the version back to the number the
    tables were last refilled at."""
    shape = SHAPES[2]
    conds = [
        ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.GT, 20.0, 2.0),
        ContentCondition(ContentObjective.of("avg", col("v")), ComparisonOp.LT, 30.0, 2.0),
        ContentCondition(ContentObjective.of("count"), ComparisonOp.GE, 3.0, 1.0),
    ]
    db, grid, sample = inputs(shape)
    query = SWQuery(("x0", "x1"), grid, ConditionSet.of(conds, 2))
    objectives = query.conditions.content_objectives()
    live, fresh = (
        HeuristicSearch(query, dm, SearchConfig())
        for dm in managers(shape, objectives, NoiseModel(30.0))
    )
    probes = [Window(*b) for b in [((0, 0), (2, 2)), ((1, 3), (4, 6)), ((3, 0), (6, 6)),
                                   ((0, 0), (6, 10)), ((2, 5), (5, 9)), ((4, 4), (5, 5))]]

    def observe(search):
        out = []
        for probe in probes:
            out.append([bits(v) for v in search._utility(probe)])
            out.append([bits(search.data.estimate(o, probe)) for o in objectives])
            out.append(search.data.is_read(probe))
            out.append(validation(search, probe))
        return out

    for window in [Window((0, 0), (3, 4)), Window((2, 5), (5, 9))]:
        live.data.read_window(window)
        fresh.data.read_window(window)
    capture = live.data.state()
    kernels = live.data.kernels
    for then in (None, Window((0, 4), (2, 10))):
        live.data.read_window(Window((3, 0), (6, 6)))
        observe(live)  # the tables refill at the capture's version + 1
        live.data.restore_state(capture)
        assert live.data.kernels is kernels and live.data.version == fresh.data.version
        if then is not None:  # version + 1 again, over other cells
            for search in (live, fresh):
                search.data.read_window(then)
        assert observe(live) == observe(fresh)
    # The restored tables refilled in place, byte-equal to a fresh build.
    assert kernels._unread_sat.table.tobytes() == fresh.data.kernels._unread_sat.table.tobytes()
    assert kernels._read_sat.table.tobytes() == fresh.data.kernels._read_sat.table.tobytes()


def test_cell_getters_are_shared_across_kernel_sets(monkeypatch):
    """Two kernel sets over one grid shape build each box shape's cell
    getter once between them."""
    calls: list[tuple[int, ...]] = []
    box_offsets = kernels_module.box_offsets

    def counting(lengths, strides):
        calls.append(tuple(lengths))
        return box_offsets(lengths, strides)

    monkeypatch.setattr(kernels_module, "box_offsets", counting)
    kernels_module._cell_getter.cache_clear()
    objective = ContentObjective.of("sum", col("v"))
    shapes = [(1, 2), (2, 2), (3, 4), (4, 4), (2, 8), (3, 6), (1, 1)]
    for dm in managers(SHAPES[2], [objective]):
        for lengths in shapes:
            for lo in [(0, 0), (1, 2), (5, 1)]:
                window = Window(lo, tuple(l + n for l, n in zip(lo, lengths)))
                assert bits(dm.kernels.reduce(objective, window)) == bits(
                    float(dm.eff_sum[objective.key][dm.box(window)].sum())
                )
    scalar = [s for s in shapes if 1 < math.prod(s) <= _SCALAR_SUM_MAX_CELLS]
    assert sorted(calls) == sorted(scalar)
