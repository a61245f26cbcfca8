"""The naive reference oracle for the search's estimator and frontier.

The summed-area-table kernels (``repro.core.kernels``) and the batched
seeding and refresh of ``repro.core.search`` promise runs byte-identical
to the per-window computation they replace: results, simulated times,
``SearchStats`` and trace events.  That computation lives here, as the
oracle those promises are tested against:

* :class:`NaiveDataManager` — every window query is a numpy slice
  reduction over the Data Manager's grid arrays;
* :class:`NaiveSearch` — seeding scores one :class:`Window` per start
  placement in an ``itertools.product`` loop, and the periodic refresh
  re-scores each stale frontier entry through ``_utility``;
* :class:`NaiveEngine` — an :class:`SWEngine` whose queries run on both.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

from repro.core import SWEngine, Window
from repro.core import engine as engine_module
from repro.core.conditions import ContentObjective
from repro.core.datamanager import DataManager
from repro.core.diversify import SubAreaQueues
from repro.core.search import HeuristicSearch
from repro.core.trace import EventKind

__all__ = [
    "NaiveDataManager",
    "NaiveEngine",
    "NaiveSearch",
    "drain_entries",
    "push_entries",
    "run_fingerprint",
]


class NaiveDataManager(DataManager):
    """A Data Manager answering every window query by slice reduction."""

    def is_read(self, window: Window) -> bool:
        return bool(self.read_mask[self.box(window)].all())

    def window_count(self, window: Window) -> float:
        return float(self.true_count[self.box(window)].sum())

    def unread_objects(self, window: Window) -> float:
        return float(self.unread_count[self.box(window)].sum())

    def _reduce(self, objective: ContentObjective, window: Window) -> float:
        box = self.box(window)
        agg = objective.aggregate.name
        if agg == "count":
            return float(self.true_count[box].sum())
        key = objective.key
        if agg == "sum":
            return float(self.eff_sum[key][box].sum())
        if agg == "avg":
            count = self.true_count[box].sum()
            if count <= 0:
                return math.nan
            return float(self.eff_sum[key][box].sum() / count)
        if agg == "min":
            value = float(self.eff_min[key][box].min())
            return value if math.isfinite(value) else math.nan
        if agg == "max":
            value = float(self.eff_max[key][box].max())
            return value if math.isfinite(value) else math.nan
        raise ValueError(f"unsupported aggregate {agg!r}")


def drain_entries(queue) -> list:
    """Empty a frontier into ``(priority, Window, version)`` entries."""
    utilities, benefits, lows, his, versions = queue.drain_arrays()
    return [
        ((u, b), Window(tuple(lo), tuple(hi)), v)
        for u, b, lo, hi, v in zip(
            utilities.tolist(), benefits.tolist(), lows.tolist(), his.tolist(),
            versions.tolist(),
        )
    ]


def push_entries(queue, entries) -> None:
    """``SpillableQueue.push_many`` on the frontier, or on each STATIC
    sub-area queue with its entries in their relative order."""
    if not isinstance(queue, SubAreaQueues):
        queue.push_many(entries)
        return
    groups: dict = {}
    for entry in entries:
        groups.setdefault(queue.queue_of(entry[1]), []).append(entry)
    for sub_queue, group in groups.items():
        sub_queue.push_many(group)


class NaiveSearch(HeuristicSearch):
    """Algorithm 1 with per-window seeding and per-entry refresh."""

    def _batch_seed(self, lo: int, hi: int, mins: tuple[int, ...]) -> None:
        shape = self.grid.shape
        spans = [range(lo, hi)] + [
            range(shape[d] - mins[d] + 1) for d in range(1, self.grid.ndim)
        ]
        for position in itertools.product(*spans):
            self._push_unregistered(
                Window(tuple(position), tuple(p + m for p, m in zip(position, mins)))
            )

    def _refresh_impl(self) -> None:
        version = self.data.version
        if not self.queue.has_stale(version):
            self.stats.refresh_skipped += 1
            if self.metrics is not None:
                self.metrics.inc("search.refresh_skipped")
            return
        entries = drain_entries(self.queue)
        push_entries(
            self.queue,
            [
                (
                    priority if entry_version >= version else self._utility(window),
                    window,
                    version,
                )
                for priority, window, entry_version in entries
            ],
        )
        self.stats.refreshes += 1
        if self.metrics is not None:
            self.metrics.inc("search.refreshes")
        if self.trace is not None:
            self.trace.record(
                EventKind.REFRESH,
                self.data.clock.now - self._start_time,
                entries=len(entries),
            )


class NaiveEngine(SWEngine):
    """An :class:`SWEngine` whose searches run the naive oracle."""

    def prepare(self, *args, **kwargs) -> HeuristicSearch:
        with mock.patch.multiple(
            engine_module, DataManager=NaiveDataManager, HeuristicSearch=NaiveSearch
        ):
            return super().prepare(*args, **kwargs)


def run_fingerprint(run) -> tuple:
    """Everything observable about a search run, for byte-identity checks."""
    return (
        [
            (r.window, r.bounds, tuple(sorted(r.objective_values.items())), r.time)
            for r in run.results
        ],
        run.completion_time_s,
        run.stats,
    )
