"""Guards on the one stepping core (DESIGN.md, "The stepping core").

Three things nothing else in tier-1 notices: a search loop forked back
into two, a ledger target that a tier merely inherits, and a neighbour
walk that pushes what the bounds-first walk of the oracle would not.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import math
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core import DataManager, Grid, HeuristicSearch, Rect, SearchConfig, Window
from repro.core.search import SearchStats, SteppingCore
from repro.costs import DEFAULT_COST_MODEL
from repro.distributed.messages import Network
from repro.distributed.partitioning import plan_partitions
from repro.distributed.worker import Worker
from repro.sampling import StratifiedSampler
from repro.storage import Database, HeapTable

from .naive_oracle import NaiveSearch
from .test_worker_protocol import make_dataset

SPANS_PY = Path(__file__).parents[1] / "benchmarks" / "ledger" / "spans.py"


def test_ledger_targets_resolve_on_the_classes_that_name_them():
    # spans._sites looks a target up with vars(owner).get(name): a
    # ``step`` or ``begin`` that HeuristicSearch / Worker only inherited
    # from the core would read as missing and zero its layer silently.
    spec = importlib.util.spec_from_file_location("ledger_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses resolve annotations there
    tracer = None
    try:
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        assert tracer.missing == []
    finally:
        if tracer is not None:
            tracer.uninstall()
        del sys.modules[spec.name]
    assert not spans.Tracer.any_installed()


def _explored(core) -> list:
    """Record the windows ``core`` explores, in order."""
    seen = []
    explore = core._explore

    def recording(window, *args):
        seen.append(window)
        return explore(window, *args)

    core._explore = recording
    return seen


def test_serial_is_the_one_worker_case():
    dataset, query = make_dataset(1)
    full_table = HeapTable(dataset.name, dataset.schema, dataset.columns, 8)
    sample = StratifiedSampler(0.5, seed=3).sample(full_table, dataset.grid)
    config = SearchConfig(alpha=1.0)

    def data_manager() -> DataManager:
        db = Database(cost_model=DEFAULT_COST_MODEL, clock=SimClock())
        db.register(HeapTable(dataset.name, dataset.schema, dataset.columns, 8))
        return DataManager(
            db,
            dataset.name,
            query.grid,
            query.conditions.content_objectives(),
            sample,
            sample_table=full_table,
        )

    # The serial side is driven through step() until done, the loop the
    # worker mirrors; run() may replay the no-result tail instead, which
    # explores without calling _explore (compared below).
    search = HeuristicSearch(query, data_manager(), config)
    serial_explored = _explored(search)
    run = search.new_run()
    search.begin()
    while search.step(run)[0] != "done":
        pass

    worker = Worker(
        0,
        plan_partitions(query.grid, 1),
        query,
        data_manager(),
        Network(1, DEFAULT_COST_MODEL),
        config=config,
        cost_model=DEFAULT_COST_MODEL,
    )
    worker_explored = _explored(worker)
    while not worker.is_done():
        worker.step()

    assert run.results and search.stats.reads > 0 and search.stats.lazy_reinserts > 0
    assert worker_explored == serial_explored
    assert [
        (r.window, r.objective_values, r.time) for r in worker.results
    ] == [(r.window, r.objective_values, r.time) for r in run.results]
    assert dataclasses.asdict(worker.stats) == dataclasses.asdict(search.stats)
    assert worker.now == run.completion_time_s
    assert not worker._waiting and not worker.lost_windows

    fresh = HeuristicSearch(query, data_manager(), config)
    whole = fresh.run()
    assert [(r.window, r.objective_values, r.time) for r in whole.results] == [
        (r.window, r.objective_values, r.time) for r in run.results
    ]
    assert dataclasses.asdict(whole.stats) == dataclasses.asdict(search.stats)
    assert whole.completion_time_s == run.completion_time_s
    assert fresh.data.clock.now == search.data.clock.now
    # CPython keeps up to 30 instance attributes in its shared-key layout;
    # the 31st makes every ``self.x`` of the serial step slower (~10 %).
    assert len(vars(search)) <= 30 and len(vars(fresh)) <= 30


@functools.cache
def _walker() -> NaiveSearch:
    """One oracle search whose grid, caps and dedup set each walk resets."""
    dataset, query = make_dataset(1)
    db = Database(cost_model=DEFAULT_COST_MODEL, clock=SimClock())
    db.register(HeapTable(dataset.name, dataset.schema, dataset.columns, 8))
    sample = StratifiedSampler(0.5, seed=3).sample(db.table(dataset.name), dataset.grid)
    data = DataManager(
        db, dataset.name, query.grid, query.conditions.content_objectives(), sample
    )
    return NaiveSearch(query, data, SearchConfig())


@st.composite
def neighbor_walks(draw):
    """A 1-3-d grid, a window in it, caps, an ``anchor_lo``, dedup-set
    contents (some of the window's neighbours among them) and whether the
    window is pruned."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(ndim))
    lo, hi = [], []
    for size in shape:
        low = draw(st.integers(0, size - 1))
        lo.append(low)
        hi.append(draw(st.integers(low + 1, size)))
    window = Window(tuple(lo), tuple(hi))
    grid = Grid(Rect.from_bounds([(0.0, float(s)) for s in shape]), (1.0,) * ndim)
    max_lengths = tuple(draw(st.integers(1, size + 1)) for size in shape)
    max_card = draw(st.none() | st.integers(1, math.prod(shape) + 1))
    anchor_lo = draw(st.integers(0, shape[0]))
    neighbour_keys = [nb.key(shape) for nb in window.neighbors(grid)]
    generated = {k for k in neighbour_keys if draw(st.booleans())}
    generated |= set(draw(st.lists(st.integers(0, 10**6), max_size=3)))
    pruned = draw(st.booleans())
    return grid, window, max_lengths, max_card, anchor_lo, generated, pruned


@settings(max_examples=300, deadline=None)
@given(neighbor_walks())
def test_key_walk_pushes_what_the_bounds_walk_pushes(walk):
    grid, window, max_lengths, max_card, anchor_lo, generated, pruned = walk
    core = _walker()
    outcomes = []
    for generate in (SteppingCore._generate_neighbors, NaiveSearch._generate_neighbors):
        pushed = []
        core.grid = grid
        core._max_lengths, core._max_card, core.anchor_lo = max_lengths, max_card, anchor_lo
        core._generated = set(generated)
        core.stats = SearchStats()
        core._prune_conditions = ("pruned",) if pruned else ()
        core._violates_anti_monotone = lambda window: True
        core._push_unregistered = pushed.append
        generate(core, window)
        outcomes.append(
            (
                [(w.lo, w.hi) for w in pushed],
                core._generated,
                core.stats.capped_extensions,
                core.stats.pruned_extensions,
            )
        )
    assert outcomes[0] == outcomes[1]
