"""The naive reference oracle for the search's estimator and frontier.

The summed-area-table kernels (``repro.core.kernels``) and the batched
seeding and refresh of ``repro.core.search`` promise runs byte-identical
to the per-window computation they replace: results, simulated times,
``SearchStats`` and trace events.  That computation lives here, as the
oracle those promises are tested against:

* :class:`NaiveDataManager` — every window query is a numpy slice
  reduction over the Data Manager's grid arrays;
* :class:`NaiveSearch` — a window's utility is composed per window
  (shape conditions evaluated afresh, one ``DataManager.estimate`` per
  objective, the cost through ``DataManager.unread_objects``), seeding
  scores one :class:`Window` per start placement in an
  ``itertools.product`` loop, the periodic refresh re-scores each
  stale frontier entry through ``_utility``, neighbour generation
  builds every candidate's bounds (``neighbor_bounds``) and packs its
  key before deduplicating, and the run steps through its no-result
  tail instead of replaying it (``repro.core.tail``);
* :class:`NaiveEngine` — an :class:`SWEngine` whose queries run on both;
* :func:`naive_enumerate_windows_filtered` — the SQL baseline's window
  enumerator as one ``itertools.product`` loop over every placement,
  counting with its own zero-padded prefix sums (one 2^n-corner box sum
  per candidate window) and summing values as numpy's slice sum of the
  window's cells (``repro.dbms.executor`` scores each shape's
  placements in one array pass and must match it bit for bit);
* :func:`naive_stratified_sample` — the stratified sampler with every
  row's cell computed from its coordinates and the rows ordered by two
  sorts, random key then cell (``StratifiedSampler.sample`` reads cells
  from the table's cell directory and sorts once, and must draw the
  same sample byte for byte).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence
from unittest import mock

import numpy as np

from repro.core import SWEngine, Window
from repro.core import engine as engine_module
from repro.core.conditions import ContentCondition, ContentObjective
from repro.core.datamanager import DataManager
from repro.core.diversify import SubAreaQueues
from repro.core.query import ResultWindow, SWQuery
from repro.core.search import HeuristicSearch
from repro.core.trace import EventKind
from repro.core.utility import UtilityModel
from repro.core.window import neighbor_bounds
from repro.dbms.executor import CellGrids, _shapes
from repro.sampling.stratified import CellSample, allocate_budget
from repro.storage.placement import cell_flat_ids

__all__ = [
    "NaiveDataManager",
    "NaiveEngine",
    "NaiveSearch",
    "drain_entries",
    "naive_benefit",
    "naive_enumerate_windows_filtered",
    "naive_stratified_sample",
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

    def exact_values(self, conditions, window: Window) -> dict[str, float] | None:
        if not self.is_read(window):
            raise ValueError(f"window {window!r} has unread cells; read it first")
        values: dict[str, float] = {}
        for cond, label in conditions:
            value = values.get(label)
            if value is None:
                value = values[label] = self._reduce(cond.objective, window)
            if not cond.evaluate_value(value):
                return None
        return values

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


def naive_benefit(model: UtilityModel, window: Window) -> float:
    """``B_w`` composed per window: the shape conditions evaluated on the
    window, then one ``DataManager.estimate`` per objective."""
    benefit = model._shape_benefit(window)
    if benefit == 0.0:
        return 0.0
    for objective, conditions in model._groups:
        estimate = model.data.estimate(objective, window)
        if math.isnan(estimate):
            return 0.0
        for cond, eps in conditions:
            if not cond.op.test(estimate, cond.value):
                benefit = min(benefit, max(0.0, 1.0 - abs(estimate - cond.value) / eps))
                if benefit == 0.0:
                    return 0.0
    return benefit


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
    """Algorithm 1 with per-window scoring, seeding and refresh, stepped
    to the end: it never replays the no-result tail."""

    def _tail_is_replayable(self) -> bool:
        return False

    def _utility(self, window: Window) -> tuple[float, float]:
        self.stats.estimates += 1
        if self._obs is not None:
            self._obs.estimates.value += 1.0
        model = self.utility_model
        benefit = naive_benefit(model, window)
        if self._modify_benefit is not None:
            benefit = self._modify_benefit(window, benefit)
        cost_term = 1.0 - min(model.cost(window) / model.k, 1.0)
        return (model.s * benefit + (1.0 - model.s) * cost_term, benefit)

    def _check_window(self, window: Window) -> ResultWindow | None:
        if not self.query.conditions.shape_satisfied(window):
            return None
        objective_values = self.data.exact_values(self._cond_labels, window)
        if objective_values is None:
            return None
        return ResultWindow(
            window=window,
            bounds=window.rect(self.grid),
            objective_values=objective_values,
            time=self.data.clock.now - self._start_time,
        )

    def _generate_neighbors(self, window: Window) -> None:
        if self._prune_conditions and self._violates_anti_monotone(window):
            self.stats.pruned_extensions += 1
            return
        bounds, capped = neighbor_bounds(
            window.lo, window.hi, self.grid.shape, self._max_lengths, self._max_card
        )
        self.stats.capped_extensions += capped
        if bounds and bounds[0][0][0] < self.anchor_lo:
            del bounds[0]
        for lo, hi in bounds:
            self._push_bounds(lo, hi)

    def _push_bounds(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> None:
        """Score and enqueue the window ``[lo, hi)`` unless already generated."""
        key = self._key_of_bounds(lo, hi)
        if key in self._generated:
            return
        self._generated.add(key)
        self._push_unregistered(Window.unchecked(lo, hi))

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


def naive_enumerate_windows_filtered(
    query: SWQuery, cells: CellGrids, pushdown: bool = True
) -> tuple[list[ResultWindow], int]:
    """Generate + filter every window within the condition shape bounds,
    one placement at a time — ``enumerate_windows_filtered``'s oracle."""
    grid = query.grid
    conditions = query.conditions
    if pushdown:
        max_lengths = conditions.max_lengths(grid.shape)
        min_lengths = conditions.min_lengths(grid.shape)
        max_card = conditions.max_cardinality(grid.shape)
    else:
        max_lengths = grid.shape
        min_lengths = (1,) * grid.ndim
        max_card = None

    count_prefix = _prefix(cells.counts)

    results: list[ResultWindow] = []
    enumerated = 0
    content = conditions.content_conditions
    for shape in _shapes(grid.shape, min_lengths, max_lengths, max_card):
        for lo in itertools.product(
            *(range(grid.shape[d] - shape[d] + 1) for d in range(grid.ndim))
        ):
            enumerated += 1
            hi = tuple(l + s for l, s in zip(lo, shape))
            window = Window(lo, hi)
            if not conditions.shape_satisfied(window):
                continue
            values = _window_values(window, cells, count_prefix, content)
            if values is None:
                continue
            results.append(
                ResultWindow(
                    window=window,
                    bounds=window.rect(grid),
                    objective_values=values,
                    time=0.0,
                )
            )
    return results, enumerated


def _cell_box(window: Window) -> tuple[slice, ...]:
    """Slice tuple for a window."""
    return tuple(slice(l, u) for l, u in zip(window.lo, window.hi))


def _window_values(
    window: Window,
    cells: CellGrids,
    count_prefix: np.ndarray,
    conditions: Sequence[ContentCondition],
) -> dict[str, float] | None:
    """Exact objective values if all content conditions pass, else None."""
    count = _box_sum(count_prefix, window)
    values: dict[str, float] = {}
    for cond in conditions:
        agg = cond.objective.aggregate.name
        key = cond.objective.key
        if agg == "count":
            value = count
        elif agg == "sum":
            value = float(cells.sums[key][_cell_box(window)].sum())
        elif agg == "avg":
            total = float(cells.sums[key][_cell_box(window)].sum())
            value = total / count if count > 0 else math.nan
        elif agg == "min":
            value = float(cells.mins[key][_cell_box(window)].min())
            value = value if math.isfinite(value) else math.nan
        elif agg == "max":
            value = float(cells.maxs[key][_cell_box(window)].max())
            value = value if math.isfinite(value) else math.nan
        else:
            raise ValueError(f"unsupported aggregate {agg!r}")
        if not cond.evaluate_value(value):
            return None
        values[repr(cond.objective)] = value
    return values


def _prefix(grid_values: np.ndarray) -> np.ndarray:
    """N-dimensional inclusive prefix sum, zero-padded at the front."""
    out = grid_values
    for axis in range(grid_values.ndim):
        out = np.cumsum(out, axis=axis)
    padded = np.zeros(tuple(s + 1 for s in grid_values.shape))
    padded[tuple(slice(1, None) for _ in range(grid_values.ndim))] = out
    return padded


def _box_sum(prefix: np.ndarray, window: Window) -> float:
    """Inclusion–exclusion box sum over a zero-padded prefix array."""
    total = 0.0
    ndim = window.ndim
    for corner in itertools.product((0, 1), repeat=ndim):
        idx = tuple(
            window.hi[d] if corner[d] else window.lo[d] for d in range(ndim)
        )
        sign = (-1) ** (ndim - sum(corner))
        total += sign * prefix[idx]
    return float(total)


def naive_stratified_sample(table, grid, fraction: float, seed: int) -> CellSample:
    """``StratifiedSampler(fraction, seed).sample(table, grid)``, two-pass.

    Every row's cell from ``cell_flat_ids`` of the table's coordinates;
    the in-area rows sorted by their random key (stably only when two
    keys tie), then stably by cell, so ties order by position.
    """
    flat = cell_flat_ids(table.coordinates(), grid)
    inside = flat >= 0
    rows_inside, cells_inside = np.nonzero(inside)[0], flat[inside]
    true_counts = np.bincount(cells_inside, minlength=grid.num_cells).astype(np.int64)
    budget = max(1, int(round(fraction * rows_inside.size)))
    quotas = allocate_budget(true_counts, budget)
    keys = np.random.default_rng(seed).random(rows_inside.size)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        by_key = np.argsort(keys, kind="stable")
    by_cell = np.argsort(cells_inside[by_key], kind="stable")
    starts = np.cumsum(true_counts) - true_counts
    before = np.cumsum(quotas) - quotas
    pick = np.arange(int(quotas.sum())) + np.repeat(starts - before, quotas)
    return CellSample(
        rows=rows_inside[by_key[by_cell[pick]]],
        cells=np.repeat(np.arange(grid.num_cells, dtype=np.int64), quotas),
        cell_true_counts=true_counts.reshape(grid.shape),
        cell_sample_counts=quotas.reshape(grid.shape),
    )
