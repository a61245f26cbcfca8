"""Offline inputs live with the data: one store per placed dataset.

``make_table`` records each table's source — the dataset object under
one placement, block size, ``axis_dim`` and ``seed`` — and the source
keeps the samples and objective grids drawn from those rows, so a fresh
database over an already-sampled dataset draws nothing.  The store must
be invisible: a stored input records the counters its draw recorded and
is published to a semantic cache as a drawn one would be.  The oracle
for every run is the same run over a *copy* of the dataset, which is
another source and so draws for real.
"""

from __future__ import annotations

import dataclasses
import gc
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SWEngine
from repro.core.trace import SearchTrace
from repro.io import metrics_to_json
from repro.obs import MetricsRegistry
from repro.serve import SemanticCache
from repro.storage import Database, SQLiteBackend, SQLiteTable
from repro.storage.pages import BlockLayout
from repro.storage.resilience import BackendFaultPlan
from repro.workloads import make_database, make_table, synthetic_dataset

from .naive_oracle import run_fingerprint
from .test_estimation_store import AVG, CONFIG, OTHER, _query, builds  # noqa: F401


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset("high", scale=0.2, seed=5)


def _observe(dataset, run: dict, cache: SemanticCache, path) -> tuple:
    """One query on a fresh database over ``dataset``: all it lets be seen."""
    run = dict(run)
    kind = run.pop("kind")
    query = _query(dataset, run.pop("area"), run.pop("step"), run.pop("objectives"))
    backend = f"sqlite:{path}" if kind == "sqlite" else "simulator"
    registry, trace = MetricsRegistry(), SearchTrace()
    with make_database(dataset, "cluster", backend=backend) as database:
        engine = SWEngine(database, dataset.name, **run)
        if kind == "served":
            engine.attach_semantic_cache(cache)
        report = engine.execute(query, CONFIG, trace=trace, metrics=registry)
        return (
            run_fingerprint(report.run),
            database.clock.now,
            trace.events(),
            metrics_to_json(registry),
        )


_runs = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["simulator", "sqlite", "served"]),
        "sample_fraction": st.sampled_from([0.1, 0.2]),
        "sample_seed": st.sampled_from([17, 3]),
        "sampler": st.sampled_from(["stratified", "uniform"]),
        "area": st.sampled_from([1.0, 0.6]),
        "step": st.sampled_from([1.0, 2.0]),
        "objectives": st.sampled_from([(AVG,), (OTHER,), (AVG, OTHER)]),
    }
)


@given(runs=st.lists(_runs, min_size=2, max_size=5))
@settings(max_examples=15, deadline=None)
def test_the_store_is_invisible(dataset, tmp_path_factory, runs):
    directory = tmp_path_factory.mktemp("store")
    observed = {}
    for side in ("shared", "copies"):
        cache = SemanticCache(metrics=MetricsRegistry())
        seen = []
        for index, run in enumerate(runs):
            placed = dataset if side == "shared" else dataclasses.replace(dataset)
            seen.append(_observe(placed, run, cache, directory / f"{side}{index}.db"))
        counters = cache.metrics.snapshot()["counters"]
        samples = {k: v for k, v in counters.items() if k.startswith("serve.cache.sample_")}
        observed[side] = (seen, samples, metrics_to_json(cache.metrics))
    assert observed["shared"] == observed["copies"]


# -- sources never share ---------------------------------------------------------


PLACEMENTS = [
    {"placement": "cluster"},
    {"placement": "axis"},
    {"placement": "random"},
    {"placement": "hilbert"},
    {"placement": "str"},
    {"placement": "cluster", "tuples_per_block": 4},
    {"placement": "random", "seed": 8},
]


def test_each_placement_is_its_own_source(dataset):
    sources = [make_table(dataset, **place).source for place in PLACEMENTS]
    assert len({id(source) for source in sources}) == len(PLACEMENTS)
    # The defaults name the same placement: cluster, 8 tuples a block, seed 7.
    assert make_table(dataset, "cluster", tuples_per_block=8).source is sources[0]
    assert make_table(dataset, "random", seed=7).source is not sources[-1]
    # A copy holds equal columns in another object: another source.
    copy = dataclasses.replace(dataset)
    assert make_table(copy, "cluster").source is not sources[0]


@pytest.mark.parametrize(
    "other",
    [*PLACEMENTS[1:], {"copy": True}],
    ids=lambda place: "-".join(f"{k}={v}" for k, v in place.items()),
)
def test_a_sample_never_crosses_sources(dataset, builds, other):  # noqa: F811
    dataset = dataclasses.replace(dataset)
    query = _query(dataset)
    other = dict(other)
    second = dataclasses.replace(dataset) if other.pop("copy", False) else dataset
    place = {"placement": "cluster", **other}
    for placed, kwargs in ((dataset, {"placement": "cluster"}), (second, place)):
        placement = kwargs.pop("placement")
        with make_database(placed, placement, **kwargs) as database:
            SWEngine(database, placed.name).prepare(query, CONFIG)
    assert builds == {"samples": 2, "grids": 2}


def test_databases_on_one_source_draw_once(dataset, builds):  # noqa: F811
    dataset = dataclasses.replace(dataset)
    query = _query(dataset, objectives=(AVG, OTHER))
    for _ in range(3):
        with make_database(dataset, "cluster") as database:
            SWEngine(database, dataset.name).prepare(query, CONFIG)
    assert builds == {"samples": 1, "grids": 2}


# -- lifetime ----------------------------------------------------------------------


def _reachable(root):
    """Every object reachable from ``root``, not entering types or modules."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_the_store_lives_and_dies_with_its_dataset():
    dataset = synthetic_dataset("high", scale=0.1, seed=9)
    query = _query(dataset, objectives=(AVG, OTHER))
    with make_database(dataset, "cluster") as database:
        SWEngine(database, dataset.name).prepare(query, CONFIG)
        source = database.table(dataset.name).source
    (sample,) = source.samples.values()
    assert len(source.grids[id(sample)]) == 2
    assert not any(isinstance(obj, BlockLayout) for obj in _reachable(source))
    store = weakref.ref(source)
    del database, source, sample
    gc.collect()
    assert store() is not None  # the dataset keeps it
    del dataset
    gc.collect()
    assert store() is None


# -- handles that draw their own -------------------------------------------------------


def test_a_resilient_handle_draws_its_own(dataset, builds):  # noqa: F811
    query = _query(dataset)
    with make_database(dataset, "cluster") as warm:
        SWEngine(warm, dataset.name).prepare(query, CONFIG)
        source = warm.table(dataset.name).source
    builds.update(samples=0, grids=0)
    with make_database(dataset, "cluster") as database:
        database.attach_resilience(BackendFaultPlan(seed=0))
        handle = database.table(dataset.name)
        assert handle.source is None
        SWEngine(database, dataset.name).prepare(query, CONFIG)
        assert database.inputs(handle) is not source
    assert builds == {"samples": 1, "grids": 1}


def _resilient_run(dataset, plan):
    registry, trace = MetricsRegistry(), SearchTrace()
    with make_database(dataset, "cluster", backend="sqlite:") as database:
        database.attach_metrics(registry)
        database.attach_resilience(plan)
        engine = SWEngine(database, dataset.name, sample_fraction=0.1)
        report = engine.execute(_query(dataset), CONFIG, trace=trace)
        return run_fingerprint(report.run), database.clock.now, trace.events(), metrics_to_json(
            registry
        )


@pytest.mark.parametrize("seed", [3, 11])
def test_a_chaos_run_is_the_same_over_a_warm_store(dataset, seed):
    plan = BackendFaultPlan.chaos(seed, 0.3)
    dataset = dataclasses.replace(dataset)
    with make_database(dataset, "cluster") as warm:
        # Fill the source's store with exactly the inputs the run takes.
        SWEngine(warm, dataset.name, sample_fraction=0.1).prepare(_query(dataset), CONFIG)
    got = _resilient_run(dataset, plan)
    assert got == _resilient_run(dataclasses.replace(dataset), plan)


def test_a_reopened_sqlite_handle_draws_its_own(dataset, tmp_path, builds, monkeypatch):  # noqa: F811
    gathers = []
    original = SQLiteTable.gather
    monkeypatch.setattr(
        SQLiteTable, "gather", lambda self, *a, **k: gathers.append(1) or original(self, *a, **k)
    )
    query = _query(dataset)
    path = tmp_path / "catalog.db"
    with make_database(dataset, "cluster", backend=f"sqlite:{path}") as stored:
        SWEngine(stored, dataset.name).prepare(query, CONFIG)
    builds.update(samples=0, grids=0)
    gathers.clear()
    backend = SQLiteBackend(str(path))
    try:
        reopened = backend.handle(dataset.name)
        assert reopened.source is None
        with Database(backend="simulator") as database:
            database.register(reopened)
            SWEngine(database, dataset.name).prepare(query, CONFIG)
    finally:
        backend.close()
    assert builds == {"samples": 1, "grids": 1}
    assert gathers
