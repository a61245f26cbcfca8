"""Guards on the one stepping core (DESIGN.md, "The stepping core").

Two things nothing else in tier-1 notices: a search loop forked back
into two, and a ledger target that a tier merely inherits.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

from repro.clock import SimClock
from repro.core import DataManager, HeuristicSearch, SearchConfig
from repro.costs import DEFAULT_COST_MODEL
from repro.distributed.messages import Network
from repro.distributed.partitioning import plan_partitions
from repro.distributed.worker import Worker
from repro.sampling import StratifiedSampler
from repro.storage import Database, HeapTable

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

    search = HeuristicSearch(query, data_manager(), config)
    serial_explored = _explored(search)
    run = search.run()

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
    # CPython keeps up to 30 instance attributes in its shared-key layout;
    # the 31st makes every ``self.x`` of the serial step slower (~10 %).
    assert len(vars(search)) <= 30
