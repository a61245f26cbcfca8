"""The heuristic online search (paper Section 4.1, Algorithm 1).

The search space of all windows is traversed best-first by *utility*
(Section 4.2), with:

* **start-window pruning** — minimum-length shape conditions determine the
  smallest window shape generated, skipping the lower layers of the search
  graph;
* **neighbor pruning** — maximum-length / maximum-cardinality shape
  conditions stop extension generation (always safe: shape functions are
  data-independent and monotone in window size);
* **lazy utility updates** — entries carry the Data Manager version at
  estimation time; a popped stale entry is re-estimated and only explored
  if it still beats the queue's best, otherwise it is re-inserted;
* **periodic queue refresh** — every N disk reads the queue entries whose
  estimates are stale are recomputed wholesale;
* **progress-driven prefetching** (Section 4.3) — reads are extended by
  Algorithm 2 under the current prefetch size;
* **diversification hooks** (Section 4.4) — jump policies may swap the
  window about to be explored; the static strategy swaps the queue layout;
* optional **anti-monotone content pruning** for non-negative ``sum`` /
  ``count`` upper-bound conditions (Section 4.1).

Every explored window is validated on *exact* data — results are never
approximate.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterator, Sequence

import numpy as np

from ..costs import CostModel, DEFAULT_COST_MODEL
from ..errors import CheckpointError
from ..obs.metrics import DEFAULT_TIME_BOUNDS
from . import checkpoint as ckpt
from .clusters import ClusterTracker
from .conditions import ContentCondition
from .datamanager import DataManager
from .diversify import (
    Diversification,
    DistJumpPolicy,
    JumpPolicy,
    SubAreaQueues,
    UtilityJumpPolicy,
)
from .kernels import placement_bounds
from .prefetch import PrefetchState, PrefetchStrategy, prefetch_extend
from .pqueue import SpillableQueue
from .query import ResultWindow, SWQuery
from .tail import QUIET_EXPLORATIONS, nothing_left, replay_tail
from .trace import EventKind, SearchTrace
from .utility import UtilityModel
from .window import Window

__all__ = ["SearchConfig", "SearchStats", "SearchRun", "SteppingCore", "HeuristicSearch"]

#: What :meth:`SteppingCore._span` enters when no registry is attached.
_NO_SPAN = nullcontext()


class _Instruments:
    """A search's counters and profiling spans, bound once to its registry.

    The search holds them as one attribute: CPython keeps an instance's
    attributes in a shared-key dict only up to 30 of them, and past that
    every ``self.x`` of the step gets slower — one attribute per counter
    put a search with a registry past it.
    """

    __slots__ = (
        "estimates", "generated", "explored", "results", "reads",
        "cold_reads", "prefetch_reads", "cells_window", "cells_prefetch",
        "expand", "seed", "prefetch", "estimate", "recover",
    )

    def __init__(self, registry) -> None:
        counter = registry.counter
        self.estimates = counter("search.estimates")
        self.generated = counter("search.windows_generated")
        self.explored = counter("search.windows_explored")
        self.results = counter("search.results")
        self.reads = counter("search.reads")
        self.cold_reads = counter("search.cold_reads")
        self.prefetch_reads = counter("search.prefetch_reads")
        self.cells_window = counter("search.cells_requested_window")
        self.cells_prefetch = counter("search.cells_requested_prefetch")
        # One profiling span per seam, re-entered ever after
        # (repro.obs.span); ``expand`` is entered per window.
        span = registry.span
        self.expand = span("expand")
        self.seed = span("seed")
        self.prefetch = span("prefetch")
        self.estimate = span("estimate")
        self.recover = span("recover")


@dataclass
class SearchConfig:
    """Tunable knobs of one search execution.

    ``alpha`` is the prefetch aggressiveness; ``prefetch`` picks the
    dynamic/static/none sizing strategy; ``diversification`` selects the
    Section 4.4 strategy.  ``refresh_reads`` > 0 enables the periodic
    whole-queue refresh every that many disk reads.  ``lazy_updates=False``
    is an ablation that trusts insertion-time utilities unconditionally.
    ``assume_nonnegative`` activates anti-monotone pruning for eligible
    content conditions (caller asserts values are non-negative).

    Lifecycle knobs: ``time_limit_s`` bounds one run's duration (relative
    to its start), while ``deadline_s`` is an *absolute* simulated-clock
    deadline that survives checkpoint/resume.  ``step_limit`` caps the
    cumulative number of explored windows (the deterministic kill point
    the checkpoint tests use).  ``head_capacity`` caps the queue head
    (spilling the tail to buckets) and ``memory_budget_blocks`` shrinks
    the table's buffer pool for the duration of the query.
    ``scrub_blocks_per_step`` > 0 advances the background integrity
    scrubber by that many blocks after each exploration (requires a
    storage fault plan attached to the database).

    The default benefit weight follows the paper's guidance that "it is
    better to first explore windows with high benefits and use the cost as
    a tie-breaker": s = 0.8.
    """

    s: float = 0.8
    alpha: float = 0.0
    prefetch: PrefetchStrategy | str = PrefetchStrategy.DYNAMIC
    diversification: Diversification | str = Diversification.NONE
    dist_jump_k: int = 8
    jump_scan_limit: int = 64
    static_subareas: int = 4
    refresh_reads: int = 0
    lazy_updates: bool = True
    assume_nonnegative: bool = False
    head_capacity: int = 1_000_000
    time_limit_s: float | None = None
    deadline_s: float | None = None
    step_limit: int | None = None
    memory_budget_blocks: int | None = None
    scrub_blocks_per_step: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.prefetch, str):
            self.prefetch = PrefetchStrategy(self.prefetch)
        if isinstance(self.diversification, str):
            self.diversification = Diversification(self.diversification)
        if not 0 <= self.s <= 1:
            raise ValueError(f"benefit weight s must be in [0, 1], got {self.s}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.refresh_reads < 0:
            raise ValueError(f"refresh_reads must be >= 0, got {self.refresh_reads}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if self.step_limit is not None and self.step_limit < 1:
            raise ValueError(f"step_limit must be >= 1, got {self.step_limit}")
        if self.memory_budget_blocks is not None and self.memory_budget_blocks < 1:
            raise ValueError(
                f"memory_budget_blocks must be >= 1, got {self.memory_budget_blocks}"
            )
        if self.scrub_blocks_per_step < 0:
            raise ValueError(
                f"scrub_blocks_per_step must be >= 0, got {self.scrub_blocks_per_step}"
            )

    def fingerprint(self) -> dict:
        """The knobs that must match between a checkpoint and its resume.

        Lifecycle limits (time/deadline/steps) are deliberately excluded —
        resuming with a higher step limit is the whole point — but every
        knob that alters exploration order or simulated time is in.
        """
        return {
            "s": self.s,
            "alpha": self.alpha,
            "prefetch": self.prefetch.value,
            "diversification": self.diversification.value,
            "refresh_reads": self.refresh_reads,
            "lazy_updates": self.lazy_updates,
            "assume_nonnegative": self.assume_nonnegative,
            "head_capacity": self.head_capacity,
            "scrub_blocks_per_step": self.scrub_blocks_per_step,
        }


@dataclass
class SearchStats:
    """Counters accumulated by one search run."""

    explored: int = 0
    generated: int = 0
    estimates: int = 0
    reads: int = 0
    cells_read: int = 0
    prefetched_cells: int = 0
    jumps: int = 0
    lazy_reinserts: int = 0
    refreshes: int = 0
    refresh_skipped: int = 0
    pruned_extensions: int = 0
    capped_extensions: int = 0


@dataclass
class SearchRun:
    """Outcome of one search: results with relative emission times + stats.

    ``completion_time_s`` is the full duration until the search space was
    exhausted; ``all_results_time_s`` the duration until the last result
    was found (the paper's "100 %" mark, which precedes completion because
    remaining data must still be read to *confirm* there is nothing else).
    """

    results: list[ResultWindow] = field(default_factory=list)
    completion_time_s: float = 0.0
    stats: SearchStats = field(default_factory=SearchStats)
    interrupted: bool = False
    interrupt_reason: str | None = None

    @property
    def num_results(self) -> int:
        """Number of qualifying windows found."""
        return len(self.results)

    @property
    def first_result_time_s(self) -> float | None:
        """Seconds until the first result, or ``None`` if none."""
        return self.results[0].time if self.results else None

    @property
    def all_results_time_s(self) -> float | None:
        """Seconds until the last result, or ``None`` if none."""
        return self.results[-1].time if self.results else None

    def time_to_fraction(self, fraction: float) -> float | None:
        """Seconds until ``fraction`` of all results had been emitted."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self.results:
            return None
        needed = max(1, math.ceil(fraction * len(self.results)))
        return self.results[needed - 1].time


class SteppingCore:
    """One Section 4 search step for every tier (DESIGN.md, "The stepping core").

    Owns the utility model, prefetch state, frontier, stats, dedup set
    and results, and defines seeding, the lazy update, exploration and
    neighbor generation once.  What Section 5 adds — each worker searches
    its partition and fetches boundary cells from a peer — is three
    parameters, here at their single-node values: the first-dimension
    **data range** ``[data_lo, data_hi)`` readable locally (the whole
    axis: two integer compares, nothing clipped); the **missing-cells
    step** :meth:`_park_for_missing_cells`, asked only about windows
    leaving that range; and the **anchor range**, whose lower edge
    ``anchor_lo`` a generated neighbor must not cross.  Subclasses add
    the outer loop (``step``) and the hooks below.
    """

    # Defaults a tier overrides on its instance.  Class-level so that a
    # serial search's instance stays within the 30 attributes CPython keeps
    # in its shared-key layout: past it every ``self.x`` of the step slows.
    data_lo = anchor_lo = 0
    _modify_benefit: Callable[[Window, float], float] | None = None
    _prune_conditions: tuple[ContentCondition, ...] = ()

    def __init__(
        self,
        query: SWQuery,
        data: DataManager,
        config: SearchConfig,
        cost_model: CostModel,
        queue,
        trace: SearchTrace | None = None,
        metrics=None,
    ) -> None:
        self.query = query
        self.data = data
        self.config = config
        self.cost_model = cost_model
        self.queue = queue
        self.trace = trace
        self.grid = query.grid

        self.utility_model = UtilityModel(query.conditions, data, s=config.s)
        self.prefetch_state = PrefetchState(alpha=config.alpha, strategy=config.prefetch)
        self.stats = SearchStats()

        # Observability (repro.obs) — opt-in like the trace.  The registry
        # is attached to the Data Manager and prefetch state so the
        # cross-layer accounting identities hold, and counters and spans
        # are bound once so the steady-state cost per event is a float add.
        self.metrics = metrics
        self._obs = None
        if metrics is not None:
            data.attach_metrics(metrics)
            self.prefetch_state.metrics = metrics
            self._obs = _Instruments(metrics)

        shape = self.grid.shape
        self._min_lengths = query.conditions.min_lengths(shape)
        self._max_lengths = query.conditions.max_lengths(shape)
        self._max_card = query.conditions.max_cardinality(shape)
        # Dedup of generated windows by packed integer key (mixed-radix
        # encoding of lo/hi against the grid shape) — far smaller than a
        # set of Window objects over 10^5-10^6 candidates.
        self._generated: set[int] = set()
        # Objective labels are stable per query — computing repr() per
        # validation is pure overhead on the hot path.
        self._cond_labels = [
            (cond, repr(cond.objective))
            for cond in query.conditions.content_conditions
        ]
        self._last_read_region: Window | None = None
        self._results: list[ResultWindow] = []

        self.data_hi = shape[0]
        self._start_time = 0.0  # time origin of result and trace stamps

    def _span(self, name: str):
        """This seam's ``repro.obs`` profiling span, or nothing without a registry."""
        return getattr(self._obs, name) if self._obs is not None else _NO_SPAN

    # -- hooks ----------------------------------------------------------------------------

    def _park_for_missing_cells(self, window: Window) -> bool:
        """Whether ``window``, which leaves the data range, must wait for
        cells held elsewhere before it can be validated."""
        return False

    def _after_local_read(self) -> None:
        """Straight after every local ``read_window``, before validation."""

    def _after_read_settled(self, window: Window, positive: bool, jumped: bool) -> None:
        """After a read that touched blocks was recorded as positive or not."""

    def _emit(self, result: ResultWindow) -> None:
        """A window just qualified and joined the result list."""

    def _trace_tags(self, kind: EventKind) -> dict:
        """The tier's tag on a READ or RESULT trace event."""
        return {}

    def _batch_benefit_modifier(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """Array form of ``_modify_benefit``; ``None`` if it has none."""
        return lambda benefits: benefits

    def _utility(self, window: Window) -> tuple[float, float]:
        """(utility, benefit) queue priority — benefit breaks exact ties."""
        self.stats.estimates += 1
        if self._obs is not None:
            self._obs.estimates.value += 1.0
        model = self.utility_model
        benefit, cost_term = model.scorer(window)
        if self._modify_benefit is not None:
            benefit = self._modify_benefit(window, benefit)
        return (model.combine(benefit, cost_term), benefit)

    def _still_best(self, window: Window, version: int) -> bool:
        """The lazy utility update: a popped stale entry is re-estimated and,
        if it no longer beats the queue's best, re-inserted (``False``).

        :func:`~repro.core.tail.replay_tail` mirrors this test (re-insert
        only when strictly worse than the head); change both together.
        """
        if not self.config.lazy_updates or version >= self.data.version:
            return True
        utility = self._utility(window)
        top = self.queue.peek_priority()
        if top is None or not utility < top:
            return True
        self.queue.push(utility, window, self.data.version)
        self.stats.lazy_reinserts += 1
        if self.metrics is not None:
            self.metrics.inc("search.lazy_reinserts")
        return False

    def _seed_slab(self, lo: int, hi: int) -> None:
        """StartWindows(): every placement of the minimal qualifying shape
        whose first-dimension anchor falls in ``[lo, hi)``, in row-major order."""
        mins = self._min_lengths
        hi = min(hi, self.grid.shape[0] - mins[0] + 1)
        with self._span("seed"):
            if lo < hi:
                self._batch_seed(lo, hi, mins)

    def _batch_seed(self, lo: int, hi: int, mins: tuple[int, ...]) -> None:
        """One kernel pass over the slab; the frontier takes the packed
        bounds directly, without a :class:`Window` per placement."""
        lows, his = placement_bounds(self.grid.shape, mins, (lo, hi))
        utilities, benefits = self._score_rows(
            lows, his, lambda: self.utility_model.placement_profile(mins, (lo, hi))
        )
        self.queue.push_many_arrays(utilities, benefits, lows, his, self.data.version)
        n = len(utilities)
        self.stats.generated += n
        if self._obs is not None:
            self._obs.generated.value += float(n)

    def _score_rows(
        self,
        lows: np.ndarray,
        his: np.ndarray,
        profile: Callable[[], tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(utilities, benefits)`` of packed window rows, bitwise equal to
        one :meth:`_utility` per row.

        ``profile()`` yields the rows' ``(benefits, cost_terms)`` in one
        kernel pass.  A benefit modifier without an array form (utility
        jumps once clusters exist) scores row by row through
        :meth:`_utility` instead.
        """
        modifier = self._batch_benefit_modifier()
        if modifier is None:
            scores = [
                self._utility(Window.unchecked(tuple(lo), tuple(hi)))
                for lo, hi in zip(lows.tolist(), his.tolist())
            ]
            return tuple(np.array(scores, dtype=np.float64).reshape(-1, 2).T)
        benefits, cost_terms = profile()
        n = len(benefits)
        self.stats.estimates += n
        if self._obs is not None:
            self._obs.estimates.value += float(n)
        modified = modifier(benefits)
        return self.utility_model.combine(modified, cost_terms), modified

    def _key_of_bounds(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """``Window.key`` over packed bounds without building the Window."""
        m_lo, m_hi = self.grid.key_multipliers
        return sum(map(mul, lo, m_lo)) + sum(map(mul, hi, m_hi))

    def _push_unregistered(self, window: Window) -> None:
        """Score and enqueue without consulting the dedup set.

        For neighbours :meth:`_generate_neighbors` has just registered, and
        for seeds, which never register: a neighbour exceeds the minimal
        shape in some dimension, so its key cannot collide with a seed's,
        and an adopted slab is disjoint from every slab its adopter seeded.
        """
        self.queue.push(self._utility(window), window, self.data.version)
        self.stats.generated += 1
        if self._obs is not None:
            self._obs.generated.value += 1.0

    def _generate_neighbors(self, window: Window) -> None:
        """GetNeighbors() with max-shape and anti-monotone pruning.

        Walks the candidates of :func:`~repro.core.window.neighbor_bounds`
        in its order and under its caps, but dedups on keys first:
        ``Window.key`` is affine in the bounds, so growing dimension ``d``
        left or right moves the parent's key by ``-m_lo[d]`` or
        ``+m_hi[d]``.  Only a candidate not generated before gets bounds
        and a :class:`Window`.

        :func:`~repro.core.tail.replay_tail` mirrors this walk — the
        ``capped_extensions`` count, the key arithmetic and the left-then-
        right dedup order — for serial runs with ``anchor_lo == 0``, and
        takes the caps as they bound the enumerated space (a neighbour is
        capped iff its shape leaves it); change them together.
        """
        if self._prune_conditions and self._violates_anti_monotone(window):
            self.stats.pruned_extensions += 1
            return
        lo, hi = window.lo, window.hi
        shape = self.grid.shape
        max_lengths = self._max_lengths
        max_card = self._max_card
        card = window.cardinality if max_card is not None else 0
        m_lo, m_hi = self.grid.key_multipliers
        key = self._key_of_bounds(lo, hi)
        generated = self._generated
        push = self._push_unregistered
        # Explored windows are anchored in our slab, and only growing left
        # in the first dimension — always the first candidate — moves the
        # anchor: the first candidate goes if it starts left of anchor_lo,
        # which takes a window starting at or before anchor_lo.
        anchor_lo = self.anchor_lo
        check_first = lo[0] <= anchor_lo
        capped = 0
        for d, (l, h) in enumerate(zip(lo, hi)):
            left = l > 0
            right = h < shape[d]
            if not (left or right):
                continue
            length = h - l
            if length >= max_lengths[d] or (
                max_card is not None and card // length * (length + 1) > max_card
            ):
                capped += left + right
                continue
            if check_first:
                check_first = False
                if lo[0] - (left and d == 0) < anchor_lo:
                    if left:
                        left = False
                    else:
                        right = False
            if left:
                k = key - m_lo[d]
                if k not in generated:
                    generated.add(k)
                    push(Window.unchecked(lo[:d] + (l - 1,) + lo[d + 1 :], hi))
            if right:
                k = key + m_hi[d]
                if k not in generated:
                    generated.add(k)
                    push(Window.unchecked(lo, hi[:d] + (h + 1,) + hi[d + 1 :]))
        self.stats.capped_extensions += capped

    def _violates_anti_monotone(self, window: Window) -> bool:
        if not self.data.is_read(window):
            return False
        for cond in self._prune_conditions:
            value = self.data.exact_value(cond.objective, window)
            if not cond.evaluate_value(value):
                return True
        return False

    # -- exploration ----------------------------------------------------------------------

    def _clip_to_data(self, window: Window) -> Window | None:
        """The sub-window whose cells are local, or ``None`` if none are."""
        lo0 = max(window.lo[0], self.data_lo)
        hi0 = min(window.hi[0], self.data_hi)
        if lo0 >= hi0:
            return None
        return Window.unchecked((lo0,) + window.lo[1:], (hi0,) + window.hi[1:])

    def _explore(self, window: Window, jumped: bool = False) -> ResultWindow | None:
        if self._obs is not None:
            with self._obs.expand:
                return self._explore_impl(window, jumped)
        return self._explore_impl(window, jumped)

    def _explore_impl(self, window: Window, jumped: bool) -> ResultWindow | None:
        data = self.data
        clock = data.clock
        clock.advance(self.cost_model.sw_window_s())
        self.stats.explored += 1
        obs = self._obs
        if obs is not None:
            obs.explored.value += 1.0

        all_local = self.data_lo <= window.lo[0] and window.hi[0] <= self.data_hi
        local = window if all_local else self._clip_to_data(window)
        did_read = False
        if local is not None and not data.is_read(local):
            with self._span("prefetch"):
                region = prefetch_extend(
                    local, self.prefetch_state.size(), self.grid, self.utility_model.cost
                )
            if region.lo[0] < self.data_lo or region.hi[0] > self.data_hi:
                region = self._clip_to_data(region)
            prefetched = region.cardinality - local.cardinality
            if obs is not None:
                obs.cells_window.value += float(local.cardinality)
                obs.cells_prefetch.value += float(prefetched)
            scan = data.read_window(region)
            self.stats.prefetched_cells += prefetched
            # A request that touched no heap pages (empty region under a
            # tight placement) is not a disk read for prefetch purposes.
            if scan is not None and scan.blocks_touched > 0:
                self.stats.reads += 1
                did_read = True
                if obs is not None:
                    obs.reads.value += 1.0
                    if region == local:
                        obs.cold_reads.value += 1.0
                    else:
                        obs.prefetch_reads.value += 1.0
            self._after_local_read()

        # A parked window's validation is deferred; its read counts as
        # negative and its neighbors are generated now all the same.
        if all_local or not self._park_for_missing_cells(window):
            result = self._check_window(window)
        else:
            result = None
        if result is not None:
            self._results.append(result)
            if obs is not None:
                obs.results.value += 1.0
            if self.trace is not None:
                tags = self._trace_tags(EventKind.RESULT)
                self.trace.record(EventKind.RESULT, result.time, window, **tags)
            self._emit(result)
            if not did_read and self._last_read_region is not None:
                # A cached window qualifying out of the last read's cells
                # makes that read positive retroactively (Section 4.3).
                if window.overlaps(self._last_read_region):
                    self.prefetch_state.fp_reads = 0

        if did_read:
            positive = result is not None
            self.prefetch_state.record_read(positive)
            self._last_read_region = region
            if self.trace is not None:
                self.trace.record(
                    EventKind.READ,
                    clock.now - self._start_time,
                    region,
                    positive=positive,
                    prefetched=prefetched,
                    **self._trace_tags(EventKind.READ),
                )
            self._after_read_settled(window, positive, jumped)

        self._generate_neighbors(window)
        return result

    def _check_window(self, window: Window) -> ResultWindow | None:
        """UpdateResult(): exact validation of every condition."""
        if not self.utility_model.shape_holds(window):
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

    # -- checkpoint fields ----------------------------------------------------------------

    def _core_state(self) -> dict:
        """The checkpoint fields every tier captures the same way."""
        db = self.data.database
        table = self.data.table_name
        return {
            "clock_now": self.data.clock.now,
            "stats": dataclasses.asdict(self.stats),
            "queue": self.queue.state(),
            "generated": sorted(self._generated),
            "results": ckpt.results_to_state(self._results),
            "prefetch_fp_reads": self.prefetch_state.fp_reads,
            "last_read_region": ckpt.window_to_state(self._last_read_region),
            "data": self.data.state(),
            "disk": db.disk(table).state(),
            "buffer": db.buffer(table).state(),
            "backend_installs": db.backend.install_state(table),
            "metrics": self.metrics.snapshot() if self.metrics is not None else None,
        }

    def _restore_core_state(self, state: dict) -> None:
        """Inverse of :meth:`_core_state`; the metrics snapshot lands last."""
        clock = self.data.clock
        target_now = float(state["clock_now"])
        if clock.now > target_now:
            raise CheckpointError(
                f"simulated clock ({clock.now:g}s) is already past the "
                f"checkpoint ({target_now:g}s); restore onto a fresh engine"
            )
        clock.advance_to(target_now)
        db = self.data.database
        table = self.data.table_name
        self.data.restore_state(state["data"])
        db.disk(table).restore_state(state["disk"])
        db.buffer(table).restore_state(state["buffer"])
        db.backend.restore_install_state(table, state["backend_installs"])
        self.queue.restore_state(state["queue"])
        self._generated = {int(k) for k in state["generated"]}
        for name, value in state["stats"].items():
            setattr(self.stats, name, int(value))
        self._results[:] = ckpt.results_from_state(state["results"], self.grid)
        self.prefetch_state.fp_reads = int(state["prefetch_fp_reads"])
        self._last_read_region = ckpt.window_from_state(state["last_read_region"])
        if self.metrics is not None and state["metrics"] is not None:
            self.metrics.load_snapshot(state["metrics"])


class HeuristicSearch(SteppingCore):
    """Algorithm 1 over one Data Manager.

    The whole-grid, no-network case of the :class:`SteppingCore`, plus
    what the paper evaluates on one node only: lifecycle limits, jump
    selection, STATIC sub-area queues, the periodic refresh,
    anti-monotone pruning, the scrubber and the checkpoint guards.
    """

    def __init__(
        self,
        query: SWQuery,
        data: DataManager,
        config: SearchConfig | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        trace: SearchTrace | None = None,
        metrics=None,
    ) -> None:
        config = config or SearchConfig()
        capacity = config.head_capacity
        if config.diversification is Diversification.STATIC:
            queue = SubAreaQueues(config.static_subareas, query.grid.shape, capacity)
        else:
            queue = SpillableQueue(capacity)
        super().__init__(query, data, config, cost_model, queue, trace, metrics)
        if metrics is not None:
            self._mh_result_delay = metrics.histogram(
                "search.result_delay_s", DEFAULT_TIME_BOUNDS
            )
        self._last_result_time = 0.0

        # Only the two jump policies read the result clusters; without
        # one there is no tracker to fold every result into.
        jumps = config.diversification in (
            Diversification.UTILITY_JUMPS,
            Diversification.DIST_JUMPS,
        )
        self.tracker = ClusterTracker(self.grid) if jumps else None
        self.policy = self._make_policy()
        if type(self.policy).modified_benefit is not JumpPolicy.modified_benefit:
            self._modify_benefit = self.policy.modified_benefit
        self._prune_conditions = self._anti_monotone_conditions()
        self._cancelled = False
        self._restored = False
        self._scrubber = self._make_scrubber()

    # -- setup ----------------------------------------------------------------

    def _make_policy(self) -> JumpPolicy:
        div = self.config.diversification
        if div is Diversification.UTILITY_JUMPS:
            return UtilityJumpPolicy(self.tracker, scan_limit=self.config.jump_scan_limit)
        if div is Diversification.DIST_JUMPS:
            return DistJumpPolicy(self.tracker, k=self.config.dist_jump_k)
        return JumpPolicy(self.tracker)

    def _make_scrubber(self):
        if self.config.scrub_blocks_per_step <= 0:
            return None
        from ..storage.integrity import Scrubber

        return Scrubber(
            self.data.database,
            self.data.table_name,
            blocks_per_step=self.config.scrub_blocks_per_step,
        )

    def _anti_monotone_conditions(self) -> tuple[ContentCondition, ...]:
        if not self.config.assume_nonnegative:
            return ()
        return tuple(c for c in self.query.conditions.content_conditions if c.anti_monotone)

    # -- the main loop ----------------------------------------------------------------

    def new_run(self) -> SearchRun:
        """A run record bound to this search's live result list and stats.

        Callers driving :meth:`step` directly (streaming handles, the
        serving layer) use this so interruption flags and timings land
        on the same record across park/resume cycles.
        """
        return SearchRun(results=self._results, stats=self.stats)

    def run(self, on_result: Callable[[ResultWindow], None] | None = None) -> SearchRun:
        """Execute the search to completion; returns the run record."""
        run = self.new_run()
        for _ in self.iter_results(run):
            if on_result is not None:
                on_result(self._results[-1])
        run.completion_time_s = self.data.clock.now - self._start_time
        return run

    @property
    def start_time(self) -> float:
        """Simulated-clock instant the search started (checkpoint-stable)."""
        return self._start_time

    def cancel(self) -> None:
        """Request cooperative cancellation.

        Safe to call from an ``on_result`` callback or between generator
        steps; the loop stops cleanly before its next pop, leaving the
        search checkpointable.
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested (and not yet consumed).

        The storage resilience layer polls this between backend retry
        attempts so a cancelled search is never stuck in backoff.
        """
        return self._cancelled

    def _interruption(self, clock) -> str | None:
        """Why the loop should stop now, or ``None`` to keep going."""
        if self._cancelled:
            return "cancelled"
        limit = self.config.time_limit_s
        if limit is not None and clock.now - self._start_time > limit:
            return "time_limit"
        deadline = self.config.deadline_s
        if deadline is not None and clock.now >= deadline:
            return "deadline"
        steps = self.config.step_limit
        if steps is not None and self.stats.explored >= steps:
            return "step_limit"
        return None

    def begin(self) -> None:
        """Seed the frontier, or skip seeding when resuming from a checkpoint.

        Called once per run segment — :meth:`iter_results` does it for
        you; callers driving :meth:`step` directly (the serving layer's
        cooperative scheduler) must call it before the first step.
        """
        if self._restored:
            # Resuming from a checkpoint: the frontier, caches and start
            # time were restored verbatim — re-seeding would duplicate work.
            self._restored = False
        else:
            self._start_time = self.data.clock.now
            self._seed_start_windows()

    def step(
        self, run: SearchRun | None = None, ask_tail: bool = False
    ) -> tuple[str, ResultWindow | None]:
        """Advance the search by at most one exploration.

        The cooperative scheduling quantum: pops (re-estimating and
        re-inserting stale entries as needed) until one window has been
        explored, then returns ``(status, result)`` where status is

        * ``"result"`` — the explored window qualified (``result`` set);
        * ``"step"`` — one window explored, no result;
        * ``"done"`` — the frontier is exhausted;
        * ``"interrupted"`` — a lifecycle limit fired before the pop.

        The two terminal statuses first flush the storage backend's
        buffered cell installs
        (:meth:`~repro.storage.backend.StorageBackend.flush_installs`).

        Between calls the search is parked and checkpointable
        (:meth:`checkpoint_state`), which is what lets a multi-session
        scheduler time-slice many searches over one process
        deterministically.  ``run``, when given, receives interruption
        flags and the completion time exactly as :meth:`iter_results`
        would set them.

        ``ask_tail`` is :meth:`iter_results`' alone: the step first asks
        whether the rest of the run is the no-result tail
        (:meth:`_tail_is_replayable`) and, if so, replays it
        (:func:`~repro.core.tail.replay_tail`) and is the terminal step.
        Run inside a step, the proof and the replay are where a profiler
        of ``step`` looks for the stepping they stand in for.
        """
        if ask_tail and self._tail_is_replayable():
            replay_tail(self)
        clock = self.data.clock
        use_jumps = self.config.diversification in (
            Diversification.UTILITY_JUMPS,
            Diversification.DIST_JUMPS,
        )

        while True:
            reason = self._interruption(clock)
            popped = self.queue.pop() if reason is None else None
            if popped is None:
                # The terminal step: the query's cell installs become
                # durable here, once, not on the way to its results.
                self.data.database.backend.flush_installs()
                if run is not None:
                    run.completion_time_s = clock.now - self._start_time
                    if reason is not None:
                        run.interrupted = True
                        run.interrupt_reason = reason
                return ("done" if reason is None else "interrupted", None)
            priority, window, version = popped

            if not self._still_best(window, version):
                if self.trace is not None:
                    self.trace.record(
                        EventKind.REINSERT, clock.now - self._start_time, window
                    )
                continue

            jumped = False
            if use_jumps:
                original = window
                window, jumped = self.policy.select(
                    window, self._utility, self.queue, self.data.version
                )
                if jumped:
                    self.stats.jumps += 1
                    if self.metrics is not None:
                        self.metrics.inc("search.jumps")
                    if self.trace is not None:
                        self.trace.record(
                            EventKind.JUMP,
                            clock.now - self._start_time,
                            window,
                            source=original,
                        )

            result = self._explore(window, jumped)
            if self._scrubber is not None:
                self._scrubber.step()
            if result is not None:
                return ("result", result)
            return ("step", None)

    def iter_results(self, run: SearchRun | None = None) -> Iterator[ResultWindow]:
        """Generator form: yields results online as they are discovered.

        The one loop that drives a search to its end: :meth:`run` and
        ``StreamingExecution`` iterate it.  Once every cell is exact and
        the run has explored :data:`~repro.core.tail.QUIET_EXPLORATIONS`
        windows since its last result (or its start), its next step asks
        once whether the rest of the run can find nothing (``ask_tail``
        of :meth:`step`); if so, that step replays the no-result tail
        over exact priorities instead of stepping it, and ends the run.
        """
        self.begin()
        data, stats = self.data, self.stats
        version = data.version
        all_read = ask = False
        # The explored count from which to ask; None once asked.
        ask_at = stats.explored + QUIET_EXPLORATIONS
        while True:
            status, result = self.step(run, ask)
            if status == "result":
                if ask_at is not None:
                    ask_at = stats.explored + QUIET_EXPLORATIONS
                yield result
            elif status != "step":
                return
            if not all_read:
                if data.version == version:
                    continue
                version = data.version
                all_read = bool(data.read_mask.all())
            ask = all_read and ask_at is not None and stats.explored >= ask_at
            if ask:
                ask_at = None

    def _tail_is_replayable(self) -> bool:
        """Whether the rest of this run is the no-result tail and may be
        replayed rather than stepped (DESIGN.md §13, "The no-result tail").

        Runs that keep stepping: a trace or a registry is attached (the
        trace records every pop, and the per-window ``expand`` span
        charges wall-clock float differences a replay cannot reproduce);
        a lifecycle limit is set or a cancel is pending; diversification,
        noise, anti-monotone pruning or a scrubber is on; the frontier
        has ever spilled; the anchor or data range is not the serial
        tier's whole grid (the replay's neighbour walk models no other).
        Otherwise
        :func:`~repro.core.tail.nothing_left` decides on the exact cells.
        """
        config = self.config
        if (
            self.anchor_lo != 0
            or self.data_lo != 0
            or self.data_hi != self.grid.shape[0]
            or self.trace is not None
            or self.metrics is not None
            or self._cancelled
            or config.time_limit_s is not None
            or config.deadline_s is not None
            or config.step_limit is not None
            or config.diversification is not Diversification.NONE
            or self.data.noise is not None
            or self._prune_conditions
            or self._scrubber is not None
            or self.queue.spill_events
        ):
            return False
        return nothing_left(self)

    def progress(self) -> dict[str, float]:
        """A snapshot of how far the search has come.

        ``data_read_fraction`` is the share of objects already fetched —
        the paper's caveat that "users can be sure the result is final
        only when the query finishes" corresponds to this reaching 1.0.
        """
        total = self.data.total_objects
        unread = float(self.data.unread_count.sum())
        return {
            "explored": self.stats.explored,
            "generated": self.stats.generated,
            "frontier": len(self.queue),
            "results": len(self._results),
            "reads": self.stats.reads,
            "data_read_fraction": 1.0 - (unread / total if total > 0 else 0.0),
        }

    # -- checkpoint/resume ----------------------------------------------------------------

    def _config_fingerprint(self) -> dict:
        """:meth:`SearchConfig.fingerprint` plus the grid, table and objectives."""
        return {
            **self.config.fingerprint(),
            "grid_shape": list(self.grid.shape),
            "table": self.data.table_name,
            "objectives": sorted(
                repr(c.objective) for c in self.query.conditions.content_conditions
            ),
        }

    def checkpoint_state(self) -> dict:
        """Capture the full search state for a later byte-identical resume.

        Meant to be taken while the loop is parked (after ``run()``
        returned interrupted, or between ``iter_results`` steps).  The
        capture spans the frontier, the dedup set, the cell cache, the
        storage substrate (disk head, buffer pool, integrity layer
        including its fault-injection RNG stream) and — when attached —
        the trace timeline and a metrics snapshot.

        The CHECKPOINT trace event is recorded *after* the capture, on
        the capturing run only, so it never appears in a resumed trace.
        No metrics counter is incremented: a counter created by the
        capture would linger as a zero-valued key after an in-place
        restore and break snapshot byte-identity with the uninterrupted
        run.
        """
        if self.config.diversification is not Diversification.NONE:
            raise CheckpointError(
                "checkpointing supports diversification=NONE only; "
                f"got {self.config.diversification.value!r}"
            )
        integ = self.data.database.integrity(self.data.table_name)
        state = {
            "format_version": ckpt.CHECKPOINT_FORMAT_VERSION,
            "config": self._config_fingerprint(),
            "start_time": self._start_time,
            "last_result_time": self._last_result_time,
            **self._core_state(),
            "integrity": integ.state() if integ is not None else None,
            "scrubber": self._scrubber.state() if self._scrubber is not None else None,
            "trace": ckpt.trace_to_state(self.trace) if self.trace is not None else None,
        }
        if self.trace is not None:
            self.trace.record(
                EventKind.CHECKPOINT,
                self.data.clock.now - self._start_time,
                results=len(self._results),
                frontier=len(self.queue),
            )
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` capture onto a fresh search.

        The search must be freshly prepared over the same database,
        query and configuration; the next ``run()`` / ``iter_results``
        continues exactly where the capture stopped (seeding is skipped).
        """
        ckpt.check_capture(state, self._config_fingerprint())
        integ = self.data.database.integrity(self.data.table_name)
        if (integ is None) != (state["integrity"] is None):
            raise CheckpointError(
                "storage fault plan attachment differs between the "
                "checkpointing and the resuming run"
            )
        self._restore_core_state(state)
        if integ is not None:
            integ.restore_state(state["integrity"])
        if self._scrubber is not None and state["scrubber"] is not None:
            self._scrubber.restore_state(state["scrubber"])
        # The cluster tracker is a pure fold over the result windows in
        # emission order; rebuild it and repoint the policy at it.
        if self.tracker is not None:
            self.tracker = ClusterTracker(self.grid)
            for result in self._results:
                self.tracker.add(result.window)
            self.policy.tracker = self.tracker
        self._start_time = float(state["start_time"])
        self._last_result_time = float(state["last_result_time"])
        if self.trace is not None and state["trace"] is not None:
            ckpt.load_trace_state(self.trace, state["trace"])
        self._cancelled = False
        self._restored = True

    # -- pieces of the loop ---------------------------------------------------------------

    def _seed_start_windows(self) -> None:
        """StartWindows(): all placements of the minimal qualifying shape."""
        self._seed_slab(0, self.grid.shape[0])

    def _batch_benefit_modifier(self):
        """Vectorized ``JumpPolicy.modified_benefit``, if expressible."""
        policy_type = type(self.policy)
        if policy_type in (JumpPolicy, DistJumpPolicy):
            return lambda benefits: benefits
        if policy_type is UtilityJumpPolicy and self.tracker.num_clusters == 0:
            # min_distance() is exactly 1.0 for every window while no
            # clusters exist — always the case at seeding time.
            return lambda benefits: (benefits + 1.0) / 2.0
        return None

    def _trace_tags(self, kind: EventKind) -> dict:
        return {"backend": self.data.backend_name} if kind is EventKind.READ else {}

    def _emit(self, result: ResultWindow) -> None:
        if self.tracker is not None:
            self.tracker.add(result.window)
        if self.metrics is not None:
            self._mh_result_delay.observe(result.time - self._last_result_time)
            self._last_result_time = result.time

    def _after_read_settled(self, window: Window, positive: bool, jumped: bool) -> None:
        self.policy.on_read(window, positive, jumped)
        self._maybe_refresh()

    def _maybe_refresh(self) -> None:
        interval = self.config.refresh_reads
        if interval <= 0 or self.stats.reads % interval != 0:
            return
        with self._span("estimate"):
            self._refresh_impl()

    def _refresh_impl(self) -> None:
        """Re-score the stale frontier rows and re-enter the whole frontier.

        ``drain_arrays`` hands the frontier back in content order; rows
        scored before the current data version are re-scored in one batch
        (:meth:`_score_rows` over ``bounds_profile``) and every row
        re-enters through ``push_many_arrays`` at the current version.
        """
        version = self.data.version
        if not self.queue.has_stale(version):
            # Every entry was scored at the current version: a drain
            # would re-push the whole frontier for nothing.
            self.stats.refresh_skipped += 1
            if self.metrics is not None:
                self.metrics.inc("search.refresh_skipped")
            return
        utilities, benefits, lows, his, versions = self.queue.drain_arrays()
        stale = versions < version
        stale_lows, stale_his = lows[stale], his[stale]
        utilities[stale], benefits[stale] = self._score_rows(
            stale_lows,
            stale_his,
            lambda: self.utility_model.bounds_profile(stale_lows, stale_his),
        )
        self.queue.push_many_arrays(utilities, benefits, lows, his, version)
        self.stats.refreshes += 1
        if self.metrics is not None:
            self.metrics.inc("search.refreshes")
        if self.trace is not None:
            self.trace.record(
                EventKind.REFRESH,
                self.data.clock.now - self._start_time,
                entries=len(utilities),
            )
