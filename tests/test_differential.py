"""Differential oracle: SW search versus the brute-force SQL baseline.

Hypothesis generates small semantic-window queries — random shape bounds
and content intervals over the tiny synthetic dataset — and every one
must produce the *identical result set* three ways:

* the blocking complex-SQL baseline (``dbms.baseline``), which
  enumerates windows exhaustively and is the trusted oracle;
* the serial :class:`HeuristicSearch` through :class:`SWEngine`;
* a 2-worker distributed run.

Both SW executions run fully instrumented and must pass the
:class:`InvariantAuditor` — so each generated query doubles as an
accounting-identity fuzz case.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    SearchConfig,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    SWEngine,
    SWQuery,
    col,
)
from repro.costs import DEFAULT_COST_MODEL
from repro.dbms import run_sql_baseline
from repro.distributed import DistributedConfig, run_distributed
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage.database import Database
from repro.workloads import synthetic_dataset
from repro.workloads.base import make_table

pytestmark = pytest.mark.slow

_DATASET = synthetic_dataset("high", scale=0.2, seed=5)
_TABLE = make_table(_DATASET, "cluster")


def _fresh_db() -> Database:
    db = Database(cost_model=DEFAULT_COST_MODEL, clock=SimClock(), buffer_fraction=0.15)
    db.register(_TABLE)
    return db


def _build_query(card_hi: int, min_len: int, avg_lo: float, width: float) -> SWQuery:
    grid = _DATASET.grid
    avg_value = ContentObjective.of("avg", col("value"))
    conditions = [
        ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, card_hi),
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, min_len),
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.GE, min_len),
        ContentCondition(avg_value, ComparisonOp.GT, avg_lo),
        ContentCondition(avg_value, ComparisonOp.LT, avg_lo + width),
    ]
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
        steps=grid.steps,
        conditions=conditions,
    )


query_params = st.tuples(
    st.integers(min_value=2, max_value=12),   # cardinality upper bound
    st.integers(min_value=1, max_value=2),    # per-dimension length floor
    st.floats(min_value=0.0, max_value=35.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, max_value=25.0, allow_nan=False, allow_infinity=False),
)


def _audited(registry: MetricsRegistry, label: str) -> None:
    report = InvariantAuditor(registry).report()
    assert report["ok"], f"{label}: {report['violations']}"


@given(params=query_params)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_search_matches_baseline(params):
    card_hi, min_len, avg_lo, width = params
    query = _build_query(card_hi, min_len, avg_lo, width)

    oracle = run_sql_baseline(_fresh_db(), _DATASET.name, query)
    expected = {r.window for r in oracle.results}

    serial_db = _fresh_db()
    registry = MetricsRegistry()
    serial_db.attach_metrics(registry)
    engine = SWEngine(serial_db, _DATASET.name, sample_fraction=0.1)
    report = engine.execute(query, SearchConfig(alpha=1.0))
    assert {r.window for r in report.results} == expected
    _audited(registry, "serial")

    dist_registry = MetricsRegistry()
    dist = run_distributed(
        _DATASET,
        query,
        DistributedConfig(
            num_workers=2,
            overlap="no_overlap",
            placement="cluster",
            search=SearchConfig(alpha=1.0),
            sample_fraction=0.1,
        ),
        metrics=dist_registry,
    )
    assert {r.window for r in dist.results} == expected
    _audited(dist_registry, "distributed")


def _threshold_query(op: ComparisonOp, value: float) -> SWQuery:
    grid = _DATASET.grid
    avg_value = ContentObjective.of("avg", col("value"))
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
        steps=grid.steps,
        conditions=[
            ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, 4),
            ContentCondition(avg_value, op, value),
        ],
    )


def _reported_averages() -> list[float]:
    """Window averages the search itself reports, in report order."""
    query = _threshold_query(ComparisonOp.GT, -1e300)
    report = SWEngine(_fresh_db(), _DATASET.name, sample_fraction=0.1).execute(
        query, SearchConfig(alpha=1.0)
    )
    return [value for r in report.results for value in r.objective_values.values()]


_REPORTED = _reported_averages()


@given(
    index=st.integers(min_value=0, max_value=len(_REPORTED) - 1),
    nudge=st.sampled_from([-1, 0, 1]),
    op=st.sampled_from([ComparisonOp.GT, ComparisonOp.GE, ComparisonOp.LT, ComparisonOp.LE]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_thresholds_on_reported_values_agree(index, nudge, op):
    """A threshold placed on a value the search reports, or one ulp beside
    it, splits windows alike in the baseline, the search and a 2-worker
    run: all three sum a window as numpy's slice sum of its cells."""
    value = _REPORTED[index]
    if nudge:
        value = math.nextafter(value, math.copysign(math.inf, nudge))
    query = _threshold_query(op, value)

    expected = {r.window for r in run_sql_baseline(_fresh_db(), _DATASET.name, query).results}
    engine = SWEngine(_fresh_db(), _DATASET.name, sample_fraction=0.1)
    serial = {r.window for r in engine.execute(query, SearchConfig(alpha=1.0)).results}
    dist = run_distributed(
        _DATASET,
        query,
        DistributedConfig(
            num_workers=2,
            overlap="no_overlap",
            placement="cluster",
            search=SearchConfig(alpha=1.0),
            sample_fraction=0.1,
        ),
    )
    assert serial == expected
    assert {r.window for r in dist.results} == expected
