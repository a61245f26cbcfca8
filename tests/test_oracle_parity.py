"""Kernel search vs the naive oracle: byte-identical runs.

Every estimate of the search goes through the summed-area-table kernels,
seeding scores all start placements in one batch, the periodic refresh
re-scores the frontier as packed arrays, and neighbour generation dedups
on key arithmetic before building bounds.  Each run here repeats on
:class:`~tests.naive_oracle.NaiveEngine` — slice reductions, one
``Window`` per seed, one ``_utility`` per stale entry, bounds and a
packed key per neighbour candidate — and must match it
in results, simulated times, ``SearchStats``, trace events and metrics.
The cases cover every synthetic spread, and the configurations whose
frontier used to fall back to the oracle form: a noise model, STATIC
sub-area queues, and utility jumps refreshing once clusters exist.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.core import SearchConfig, SWEngine
from repro.core.kernels import DataKernels, SummedAreaTable
from repro.core.search import SteppingCore
from repro.core.trace import EventKind, SearchTrace
from repro.obs import MetricsRegistry
from repro.sampling import NoiseModel
from repro.workloads import make_database, synthetic_dataset, synthetic_query
from repro.workloads.synthetic import SPREADS

from .naive_oracle import NaiveDataManager, NaiveEngine, NaiveSearch, run_fingerprint


def _twin_runs(dataset, query, config, placement="cluster", **engine_kw):
    """(naive, kernel) runs as (fingerprint, trace events, metrics snapshot)."""
    out = []
    for engine_cls in (NaiveEngine, SWEngine):
        database = make_database(dataset, placement)
        registry = MetricsRegistry()
        database.attach_metrics(registry)
        trace = SearchTrace()
        engine = engine_cls(database, dataset.name, **engine_kw)
        run = engine.execute(query, config, trace=trace).run
        out.append((run_fingerprint(run), list(trace), registry.snapshot()))
    return out


#: Every window query the kernels answer, and the corner read under them.
KERNEL_QUERIES = [
    (DataKernels, name)
    for name, attr in vars(DataKernels).items()
    if not name.startswith("__") and name != "_refresh"
    and (callable(attr) or isinstance(attr, property))
] + [(SummedAreaTable, "box_sum")]


def test_naive_engine_runs_the_oracle(tiny_dataset, tiny_query, tiny_db):
    search = NaiveEngine(tiny_db, tiny_dataset.name).prepare(tiny_query)
    assert type(search) is NaiveSearch and type(search.data) is NaiveDataManager
    search = SWEngine(tiny_db, tiny_dataset.name).prepare(tiny_query)
    assert not isinstance(search, NaiveSearch)
    assert not isinstance(search.data, NaiveDataManager)
    # The oracle scores without the kernels, or parity would compare
    # them with themselves: a naive run survives every kernel query raising.
    assert {"reader", "validator", "reduce", "unread_objects", "placement_estimates"} <= {
        name for _, name in KERNEL_QUERIES
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the naive oracle asked the kernels")

    with contextlib.ExitStack() as stack:
        for owner, name in KERNEL_QUERIES:
            stack.enter_context(mock.patch.object(owner, name, property(forbidden)))
        # Nor does it walk neighbours by key arithmetic.
        stack.enter_context(
            mock.patch.object(SteppingCore, "_generate_neighbors", forbidden)
        )
        naive = NaiveEngine(make_database(tiny_dataset, "cluster"), tiny_dataset.name)
        run = naive.execute(tiny_query).run
    kernel = SWEngine(make_database(tiny_dataset, "cluster"), tiny_dataset.name)
    assert run.results and run_fingerprint(run) == run_fingerprint(
        kernel.execute(tiny_query).run
    )


@pytest.mark.parametrize("spread", SPREADS)
def test_spread_runs_match_the_oracle(spread):
    dataset = synthetic_dataset(spread, scale=0.3)
    naive, kernel = _twin_runs(
        dataset, synthetic_query(dataset), SearchConfig(), placement="axis",
        sample_fraction=0.1,
    )
    assert kernel == naive
    assert kernel[0][0], f"no results on {spread}"


@pytest.mark.parametrize(
    "config, noise",
    [
        (SearchConfig(refresh_reads=12), NoiseModel(30.0)),
        (SearchConfig(diversification="static", refresh_reads=8), None),
        (SearchConfig(diversification="static", refresh_reads=12), NoiseModel(30.0)),
        (
            SearchConfig(diversification="utility_jumps", refresh_reads=4, step_limit=300),
            None,
        ),
    ],
    ids=["noise", "static", "static-noise", "utility-jumps"],
)
def test_refreshing_runs_match_the_oracle(tiny_dataset, tiny_query, config, noise):
    naive, kernel = _twin_runs(
        tiny_dataset, tiny_query, config, sample_fraction=0.2, noise=noise
    )
    assert kernel == naive
    (_, _, stats), events, _ = kernel
    assert stats.refreshes > 0
    # At least one refresh re-scored a frontier after the first result —
    # for utility jumps, the per-row form of the refresh.
    kinds = [e.kind for e in events]
    assert EventKind.REFRESH in kinds[kinds.index(EventKind.RESULT) :]
