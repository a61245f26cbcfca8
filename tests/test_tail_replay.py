"""The no-result tail, replayed, against stepping to exhaustion.

Once every cell is read, the run has gone ``QUIET_EXPLORATIONS``
explorations without a result, and the exact cells show that no result
is left, ``HeuristicSearch.iter_results`` finishes the run with
``repro.core.tail.replay_tail`` instead of stepping (DESIGN.md §13, "The
no-result tail").  Here a replayed ``run()`` meets the same search
driven through ``step()`` until done — the path the serving layer and
the distributed worker take — on random 1-3-d grids, shapes and
conditions, with lazy updates on and off: results, ``SearchStats``, the
completion clock and the post-run ``checkpoint_state()`` must be equal,
floats by ``float.hex`` and arrays by bytes.  Runs with diversification,
noise, a trace, a registry, a lifecycle limit, pruning, a scrubber, a
spilled frontier, or an anchor or data range other than the whole grid's
must take the stepping path, without the proof even being asked.  The
property test shortens the quiet stretch, so that small spaces reach the
replay and it starts at varied points.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import ContentObjective, Grid, Rect, SearchConfig, SWEngine, col
from repro.core import search as search_module
from repro.core import tail as tail_module
from repro.core.conditions import (
    ComparisonOp,
    ConditionSet,
    ContentCondition,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
)
from repro.core.datamanager import DataManager
from repro.core.query import SWQuery
from repro.core.search import HeuristicSearch
from repro.core.trace import SearchTrace
from repro.obs import MetricsRegistry
from repro.sampling import NoiseModel, StratifiedSampler
from repro.storage import Database, HeapTable, TableSchema
from repro.storage.integrity import StorageFaultPlan
from repro.workloads import make_database, synthetic_dataset, synthetic_query

#: Grid shapes per dimensionality.
GRIDS = {1: [(12,), (30,)], 2: [(6, 5), (9, 8)], 3: [(3, 4, 4), (4, 4, 5)]}
AGGREGATES = ("count", "sum", "avg", "min", "max")
_INPUTS: dict = {}


def inputs(shape: tuple[int, ...], seed: int):
    """``(columns, schema, grid, sample)``: clustered points in ``[0, shape)``
    with unit steps and a value column ``v``."""
    if (shape, seed) not in _INPUTS:
        rng = np.random.default_rng(seed * 101 + math.prod(shape))
        n = 40 * math.prod(shape) ** 0.5
        centre = rng.uniform(0, 1, len(shape)) * np.array(shape)
        columns = {}
        for d, size in enumerate(shape):
            spread = np.concatenate(
                [rng.uniform(0, size, int(n)), rng.normal(centre[d], 0.7, int(n))]
            )
            columns[f"x{d}"] = np.clip(spread, 0.0, size - 1e-9)
        columns["v"] = rng.normal(25.0, 6.0, 2 * int(n))
        schema = TableSchema(list(columns), [f"x{d}" for d in range(len(shape))])
        grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * len(shape))
        table = HeapTable("pts", schema, columns, tuples_per_block=8)
        sample = StratifiedSampler(0.3, seed=seed).sample(table, grid)
        _INPUTS[shape, seed] = (columns, schema, grid, sample)
    return _INPUTS[shape, seed]


def fresh_search(shape, seed, query, config, noise=None, **kwargs) -> HeuristicSearch:
    """A search over its own database, clock, disk and buffer pool."""
    columns, schema, grid, sample = inputs(shape, seed)
    db = Database()
    db.register(HeapTable("pts", schema, columns, tuples_per_block=8))
    data = DataManager(
        db, "pts", grid, query.conditions.content_objectives(), sample, noise=noise
    )
    return HeuristicSearch(query, data, config, **kwargs)


@st.composite
def queries(draw, shape):
    """A query over ``shape``: one or two content conditions, a cardinality
    cap that keeps the space small, and maybe a minimum length."""
    ndim = len(shape)
    conds = []
    for agg in draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=2, unique=True)):
        objective = ContentObjective.of(agg, None if agg == "count" else col("v"))
        scale = {"count": 30.0, "sum": 700.0}.get(agg, 25.0)
        threshold = draw(st.floats(0.3, 1.6)) * scale
        op = draw(st.sampled_from([ComparisonOp.GT, ComparisonOp.GE, ComparisonOp.LT]))
        eps = draw(st.one_of(st.none(), st.floats(0.1, 2.0).map(lambda f: f * scale)))
        conds.append(ContentCondition(objective, op, threshold, eps))
    cap = draw(st.integers(2, 8))
    conds.append(ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LE, cap))
    if draw(st.booleans()):
        dim = draw(st.integers(0, ndim - 1))
        conds.append(
            ShapeCondition(ShapeObjective(ShapeKind.LENGTH, dim), ComparisonOp.GE, 2.0)
        )
    grid = inputs(shape, 0)[2]
    return SWQuery(tuple(f"x{d}" for d in range(ndim)), grid, ConditionSet.of(conds, ndim))


def stepped(search: HeuristicSearch):
    """Drive ``search`` through ``step()`` until it is done."""
    run = search.new_run()
    search.begin()
    while search.step(run)[0] not in ("done", "interrupted"):
        pass
    return run


def replayed(search: HeuristicSearch, quiet: int | None = None) -> tuple:
    """``search.run()``, how many times it replayed a tail, and how many
    times it asked for the proof.

    ``quiet`` stands in for ``QUIET_EXPLORATIONS``: how long a run goes
    without a result, every cell read, before it asks for the proof.
    """
    if quiet is None:
        quiet = tail_module.QUIET_EXPLORATIONS
    with mock.patch.object(
        search_module, "replay_tail", wraps=search_module.replay_tail
    ) as replay, mock.patch.object(
        search_module, "nothing_left", wraps=search_module.nothing_left
    ) as proof, mock.patch.object(search_module, "QUIET_EXPLORATIONS", quiet):
        run = search.run()
    return run, replay.call_count, proof.call_count


def fingerprint(search: HeuristicSearch, run) -> tuple:
    """Results, stats and clock, floats by ``float.hex``."""
    return (
        [
            (
                r.window,
                r.bounds,
                sorted((k, float(v).hex()) for k, v in r.objective_values.items()),
                r.time.hex(),
            )
            for r in run.results
        ],
        dataclasses.asdict(run.stats),
        run.completion_time_s.hex(),
        search.data.clock.now.hex(),
        run.interrupted,
    )


def assert_same_state(a, b, path: str = "state") -> None:
    """Two ``checkpoint_state()`` trees are equal: arrays by dtype, shape
    and bytes, floats by ``float.hex``."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same_state(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_state(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif isinstance(a, float):
        assert a.hex() == b.hex(), path
    else:
        assert a == b, path


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_replayed_tail_equals_stepping(data):
    """A run that replays its tail ends exactly where stepping ends."""
    ndim = data.draw(st.sampled_from([1, 2, 2, 3]))
    shape = data.draw(st.sampled_from(GRIDS[ndim]))
    seed = data.draw(st.integers(0, 3))
    query = data.draw(queries(shape))
    config = SearchConfig(
        s=data.draw(st.sampled_from([0.5, 0.8, 1.0])),
        alpha=data.draw(st.sampled_from([0.0, 1.0, 4.0])),
        lazy_updates=data.draw(st.booleans()),
        refresh_reads=data.draw(st.sampled_from([0, 0, 2])),
    )
    # Small spaces end long before the default quiet stretch; a short one
    # also starts the replay at varied points, results found after the
    # last read included.
    quiet = data.draw(st.sampled_from([0, 1, 5, 30]))
    reference = fresh_search(shape, seed, query, config)
    want = stepped(reference)
    search = fresh_search(shape, seed, query, config)
    run, replays, proofs = replayed(search, quiet)
    event(f"replayed: {bool(replays)}")
    assert replays <= proofs <= 1
    assert fingerprint(search, run) == fingerprint(reference, want)
    assert len(search.queue) == 0 and search.queue.next_seq == reference.queue.next_seq
    assert_same_state(search.checkpoint_state(), reference.checkpoint_state())
    assert len(vars(search)) <= 30


@functools.cache
def synthetic():
    """A 16x16 synthetic-high dataset whose results all come before its
    last read, and the paper's query over it plus a never-violated
    ``count() < 10**9`` (an anti-monotone bound, for the pruning case)."""
    dataset = synthetic_dataset("high", scale=0.1, seed=1)
    base = synthetic_query(dataset)
    conditions = list(base.conditions.shape_conditions) + list(
        base.conditions.content_conditions
    )
    conditions.append(ContentCondition(ContentObjective.of("count"), ComparisonOp.LT, 1e9))
    query = SWQuery(base.dimensions, base.grid, ConditionSet.of(conditions, 2))
    return dataset, query


def engine_search(config, noise=None, plan=None, **kwargs) -> HeuristicSearch:
    dataset, query = synthetic()
    database = make_database(dataset, "cluster")
    if plan is not None:
        database.attach_integrity(plan)
    engine = SWEngine(database, dataset.name, noise=noise)
    return engine.prepare(query, config, **kwargs)


@pytest.mark.parametrize("lazy", [True, False])
def test_a_synthetic_query_replays_its_tail(lazy):
    """The gate is not vacuous: the paper's query replays its tail, lazy
    re-inserts included, and still ends where stepping ends."""
    config = SearchConfig(alpha=1.0, lazy_updates=lazy)
    reference = engine_search(config)
    want = stepped(reference)
    search = engine_search(config)
    reinserts = []

    def replay(core):
        before = core.stats.lazy_reinserts
        tail_module.replay_tail(core)
        reinserts.append(core.stats.lazy_reinserts - before)

    with mock.patch.object(search_module, "replay_tail", replay):
        run = search.run()
    assert len(reinserts) == 1 and run.results
    assert (reinserts[0] > 0) == lazy
    assert fingerprint(search, run) == fingerprint(reference, want)
    assert_same_state(search.checkpoint_state(), reference.checkpoint_state())


STEPPING_CONFIGS = {
    "utility_jumps": (dict(diversification="utility_jumps"), {}, {}),
    "dist_jumps": (dict(diversification="dist_jumps"), {}, {}),
    "static": (dict(diversification="static"), {}, {}),
    "noise": ({}, dict(noise=NoiseModel(30.0)), {}),
    "trace": ({}, dict(trace=SearchTrace()), {}),
    "registry": ({}, dict(metrics=MetricsRegistry()), {}),
    "step_limit": (dict(step_limit=10**6), {}, {}),
    "deadline": (dict(deadline_s=1e6), {}, {}),
    "pruning": (dict(assume_nonnegative=True), {}, {}),
    "spilled": (dict(head_capacity=64), {}, {}),
    "scrubber": (dict(scrub_blocks_per_step=4), dict(plan=StorageFaultPlan(seed=3)), {}),
    # Ranges other than the serial tier's, which the replay does not model:
    # a partition's anchor, and data ranges wider than the grid (a narrower
    # one needs cells from a peer, which a serial search has none of).
    "anchor": ({}, {}, dict(anchor_lo=1)),
    "data_lo": ({}, {}, dict(data_lo=-1)),
    "data_hi": ({}, {}, dict(data_hi=10**6)),
}


@pytest.mark.parametrize("name", sorted(STEPPING_CONFIGS))
def test_gated_runs_keep_stepping(name):
    """Runs the gate excludes complete without a replay and end where the
    same configuration stepped by hand ends."""
    overrides, extras, ranges = STEPPING_CONFIGS[name]
    config = SearchConfig(alpha=1.0, **overrides)
    search = engine_search(config, **extras)
    vars(search).update(ranges)
    # Asked at the first chance, so that only the gate keeps it stepping.
    run, replays, proofs = replayed(search, quiet=0)
    assert replays == proofs == 0
    # Trace and registry observe the run without changing it.
    reference = engine_search(config, noise=extras.get("noise"), plan=extras.get("plan"))
    vars(reference).update(ranges)
    want = stepped(reference)
    assert fingerprint(search, run) == fingerprint(reference, want)
    if name == "spilled":
        assert search.queue.spill_events > 0
