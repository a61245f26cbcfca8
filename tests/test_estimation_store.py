"""The store of offline estimation inputs, as one Database sees it.

The sample of a stored table (per sampler, grid geometry, fraction and
seed) and the objective grids over it (per objective) are built once per
placed dataset, and every engine over a database on it reads the same
objects.  A stored input is exactly what a rebuild would compute, so a
run over a shared database must be byte-identical to the same run where
every engine builds its own inputs — which is what the oracle database
below does: it is placed from a copy of the dataset (another source) and
forgets its database's record and its source's store after each query.
Tests that count constructions place a fresh copy, as a store outlives
the databases that filled it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    SearchConfig,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    SWEngine,
    col,
)
from repro.core.query import SWQuery
from repro.sampling import estimators, stratified
from repro.storage import SQLiteTable
from repro.workloads import make_database, synthetic_dataset

from .naive_oracle import run_fingerprint

AVG = ContentObjective.of("avg", col("value"))
OTHER = ContentObjective.of("max", col("y"))
CONFIG = SearchConfig(alpha=1.0, step_limit=150)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset("high", scale=0.2, seed=5)


def _query(dataset, area: float = 1.0, step: float = 1.0, objectives=(AVG,)):
    """The paper's synthetic query over a share of the area, at a step multiple."""
    grid = dataset.grid
    card = ShapeObjective(ShapeKind.CARDINALITY)
    conditions = [ShapeCondition(card, ComparisonOp.GT, 5), ShapeCondition(card, ComparisonOp.LT, 10)]
    for objective in objectives:
        conditions.append(ContentCondition(objective, ComparisonOp.GT, 20.0))
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[
            (grid.area[d].lo, grid.area[d].lo + area * (grid.area[d].hi - grid.area[d].lo))
            for d in range(grid.ndim)
        ],
        steps=[step * s for s in grid.steps],
        conditions=conditions,
    )


@pytest.fixture()
def fresh(dataset):
    """A copy of the dataset: a new source, whose store is empty."""
    return dataclasses.replace(dataset)


def _forget(database, name) -> None:
    """Drop the stored inputs: the next engine builds its own, as before the store."""
    database._samples.clear()
    database._grids.clear()
    store = database.inputs(database.table(name))
    store.samples.clear()
    store.grids.clear()


@pytest.fixture()
def builds(monkeypatch):
    """Counts of sample draws and objective-grid builds."""
    seen = {"samples": 0, "grids": 0}

    def counting(module, name, kind):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(stratified.StratifiedSampler, "sample", "samples")
    counting(stratified, "uniform_sample", "samples")
    counting(estimators, "build_objective_grids", "grids")
    return seen


def _run(database, dataset, query, **engine_kwargs):
    engine = SWEngine(database, dataset.name, **engine_kwargs)
    report = engine.execute(query, CONFIG)
    return engine, (run_fingerprint(report.run), database.clock.now)


def test_engines_over_one_database_share_sample_and_grids(fresh, builds):
    dataset = fresh
    query = _query(dataset, objectives=(AVG, OTHER))
    with make_database(dataset, "cluster") as shared:
        first, got_a = _run(shared, dataset, query)
        second, got_b = _run(shared, dataset, query)
        assert second.sample_for(query) is first.sample_for(query)
        assert builds == {"samples": 1, "grids": 2}  # one per objective
    copy = dataclasses.replace(dataset)
    with make_database(copy, "cluster") as oracle:
        _, want_a = _run(oracle, copy, query)
        _forget(oracle, copy.name)
        _, want_b = _run(oracle, copy, query)
    assert (got_a, got_b) == (want_a, want_b)


@pytest.mark.parametrize(
    "change",
    [
        {"sample_fraction": 0.2},
        {"sample_seed": 18},
        {"sampler": "uniform"},
        {"area": 0.5},
        {"step": 2.0},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_key_builds_its_own_sample(fresh, builds, change):
    dataset = fresh
    change = dict(change)
    geometry = {k: change.pop(k) for k in ("area", "step") if k in change}
    with make_database(dataset, "cluster") as database:
        base = SWEngine(database, dataset.name).sample_for(_query(dataset))
        other = SWEngine(database, dataset.name, **change).sample_for(_query(dataset, **geometry))
        again = SWEngine(database, dataset.name, **change).sample_for(_query(dataset, **geometry))
    assert other is not base and again is other
    assert builds["samples"] == 2


def test_second_query_on_a_sqlite_file_pulls_nothing(fresh, tmp_path, monkeypatch):
    dataset = fresh
    pulls = {"coordinates": 0, "gather": 0}
    for name in pulls:
        original = getattr(SQLiteTable, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            pulls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SQLiteTable, name, counted)
    query = _query(dataset)
    with make_database(dataset, "cluster", backend=f"sqlite:{tmp_path / 'c.db'}") as database:
        SWEngine(database, dataset.name).prepare(query, CONFIG)
        # The cluster-placed table's cell directory draws the sample
        # without a coordinate pull; the objective grids still gather.
        assert pulls["gather"] >= 1
        pulls.update(coordinates=0, gather=0)
        SWEngine(database, dataset.name).prepare(query, CONFIG)
    assert pulls == {"coordinates": 0, "gather": 0}


def test_stored_inputs_are_read_only(dataset):
    query = _query(dataset)
    with make_database(dataset, "cluster") as database:
        search = SWEngine(database, dataset.name).prepare(query, CONFIG)
        sample = SWEngine(database, dataset.name).sample_for(query)
        grids = search.data.objective_grids(AVG.key)
    for array in (sample.rows, sample.cells, sample.cell_true_counts, sample.cell_sample_counts):
        with pytest.raises(ValueError):
            array[...] = 0
    for array in (grids.scaled_sum, grids.sample_min, grids.sample_max):
        with pytest.raises(ValueError):
            array[...] = 0.0


_keys = st.fixed_dictionaries(
    {
        "sample_fraction": st.sampled_from([0.1, 0.2]),
        "sample_seed": st.sampled_from([17, 3]),
        "sampler": st.sampled_from(["stratified", "uniform"]),
        "area": st.sampled_from([1.0, 0.6]),
        "step": st.sampled_from([1.0, 2.0]),
        "objectives": st.sampled_from([(AVG,), (OTHER,), (AVG, OTHER)]),
    }
)


@given(keys=st.lists(_keys, min_size=2, max_size=4))
@settings(max_examples=12, deadline=None)
def test_interleaved_queries_match_rebuilding_oracle(dataset, keys):
    # Copies made here, not by the function-scoped ``fresh`` fixture,
    # which Hypothesis would share across examples.
    copy = dataclasses.replace(dataset)
    with make_database(dataset, "cluster") as shared, make_database(copy, "cluster") as oracle:
        for key in keys:
            key = dict(key)
            query = _query(dataset, key.pop("area"), key.pop("step"), key.pop("objectives"))
            engine, got = _run(shared, dataset, query, **key)
            _, want = _run(oracle, copy, query, **key)
            _forget(oracle, copy.name)
            assert got == want
            with make_database(dataclasses.replace(dataset), "cluster") as other:
                rebuilt = SWEngine(other, dataset.name, **key).sample_for(query)
            stored = engine.sample_for(query)
            for field in ("rows", "cells", "cell_true_counts", "cell_sample_counts"):
                assert np.array_equal(getattr(stored, field), getattr(rebuilt, field))
