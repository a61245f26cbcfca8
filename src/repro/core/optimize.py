"""Optimization queries: ``maximize f(w)`` over windows (paper Section 8).

The paper lists this as future work: "we also would like to support
optimization queries that involve min/max functions, e.g. 'search for
windows with the maximum brightness'.  In this case, it is generally more
difficult to present useful online feedback to the user, since the
optimality has to be validated across all windows."

:class:`OptimizeSearch` implements the natural SW-style answer: a
best-first search ordered by the *estimated* objective (from the same
stratified sample), which reads windows exactly and maintains an online
**incumbent** — the best window seen so far, reported with a timestamp as
it improves.  Exactness is preserved the same way as in the main engine:
the final answer is only declared once every candidate window (within the
shape bounds) has been evaluated on exact data, so the incumbent
trajectory is the online feedback and the completion is the proof.

Shape conditions restrict the candidate set exactly as in Section 4.1
(start-window and neighbor pruning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import itertools

from ..costs import CostModel, DEFAULT_COST_MODEL
from .conditions import ConditionSet, ContentObjective
from .datamanager import DataManager
from .grid import Grid
from .pqueue import SpillableQueue
from .window import Window, neighbor_bounds

__all__ = ["Incumbent", "OptimizeResult", "OptimizeSearch"]


@dataclass(frozen=True)
class Incumbent:
    """One improvement of the best-so-far window."""

    window: Window
    value: float
    time: float


@dataclass
class OptimizeResult:
    """Outcome of an optimization query.

    ``trajectory`` holds every incumbent improvement in order; the last
    entry is the proven optimum (ties broken by discovery order).
    """

    trajectory: list[Incumbent] = field(default_factory=list)
    completion_time_s: float = 0.0
    windows_evaluated: int = 0

    @property
    def best(self) -> Incumbent | None:
        """The optimal window, or ``None`` when no window qualifies."""
        return self.trajectory[-1] if self.trajectory else None


class OptimizeSearch:
    """Find the window maximizing (or minimizing) a content objective.

    Parameters
    ----------
    objective:
        The content objective to optimize; it must be among the Data
        Manager's registered objectives.
    conditions:
        Shape conditions bounding the candidate set (content conditions
        are not supported here — they belong to the main engine).
    maximize:
        True for ``maximize``, False for ``minimize``.
    """

    def __init__(
        self,
        objective: ContentObjective,
        conditions: ConditionSet,
        data: DataManager,
        maximize: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if conditions.content_conditions:
            raise ValueError(
                "optimization queries take shape conditions only; express "
                "content predicates through the main engine"
            )
        self.objective = objective
        self.conditions = conditions
        self.data = data
        self.maximize = maximize
        self.cost_model = cost_model
        self.grid: Grid = data.grid

        shape = self.grid.shape
        self._min_lengths = conditions.min_lengths(shape)
        self._max_lengths = conditions.max_lengths(shape)
        self._max_card = conditions.max_cardinality(shape)
        self._generated: set[Window] = set()
        self._queue = SpillableQueue()

    def run(self) -> OptimizeResult:
        """Evaluate every qualifying window; returns the incumbent trail."""
        result = OptimizeResult()
        for _ in self.iter_incumbents(result):
            pass
        return result

    def iter_incumbents(self, result: OptimizeResult | None = None) -> Iterator[Incumbent]:
        """Generator form: yields each incumbent improvement online."""
        out = result if result is not None else OptimizeResult()
        clock = self.data.clock
        start = clock.now
        self._seed()

        best_value = -math.inf if self.maximize else math.inf
        while True:
            popped = self._queue.pop()
            if popped is None:
                break
            _, window, _ = popped
            clock.advance(self.cost_model.sw_window_s())
            if not self.data.is_read(window):
                self.data.read_window(window)
            out.windows_evaluated += 1
            if self.conditions.shape_satisfied(window):
                value = self.data.exact_value(self.objective, window)
                if not math.isnan(value) and self._improves(value, best_value):
                    best_value = value
                    incumbent = Incumbent(window, value, clock.now - start)
                    out.trajectory.append(incumbent)
                    yield incumbent
            self._neighbors(window)
        out.completion_time_s = clock.now - start

    # -- internals ------------------------------------------------------------

    def _improves(self, value: float, best: float) -> bool:
        return value > best if self.maximize else value < best

    def _priority(self, window: Window) -> tuple[float, float]:
        estimate = self.data.estimate(self.objective, window)
        if math.isnan(estimate):
            estimate = -math.inf if self.maximize else math.inf
        key = estimate if self.maximize else -estimate
        if math.isinf(key):
            key = -1e30
        return (key, 0.0)

    def _seed(self) -> None:
        shape = self.grid.shape
        mins = self._min_lengths
        spans = [range(shape[d] - mins[d] + 1) for d in range(self.grid.ndim)]
        for position in itertools.product(*spans):
            window = Window(
                tuple(position), tuple(p + l for p, l in zip(position, mins))
            )
            self._push(window)

    def _push(self, window: Window) -> None:
        if window in self._generated:
            return
        self._generated.add(window)
        self._queue.push(self._priority(window), window, self.data.version)

    def _neighbors(self, window: Window) -> None:
        bounds, _capped = neighbor_bounds(
            window.lo, window.hi, self.grid.shape, self._max_lengths, self._max_card
        )
        for lo, hi in bounds:
            self._push(Window.unchecked(lo, hi))
