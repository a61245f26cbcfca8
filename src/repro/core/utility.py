"""Window utilities: benefit, cost, and their combination (Section 4.2).

* **Cost** ``C_w = |w|_nc * m / n`` — objects in the window's non-cached
  cells, normalized by the mean cell density, so that (absent skew) cost
  ~= number of unread cells.
* **Benefit** per condition: 1 when the estimated value satisfies the
  predicate, otherwise ``max(0, 1 - |f_w - val| / eps)``; the window's
  total benefit is the *minimum* over conditions (a result must satisfy
  all of them).
* **Utility** ``U_w = s*B_w + (1-s) * (1 - min(C_w / k, 1))`` where ``k``
  is the maximum cardinality inferable from shape conditions (``m`` when
  unconstrained) and ``s`` weighs benefit against cost.

Shape conditions take part in the benefit too; their values are exact and
their natural precision is the grid extent in the relevant dimension.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Callable, Sequence

import numpy as np

from ..sampling.estimators import default_eps
from .conditions import (
    ConditionSet,
    ContentCondition,
    ContentObjective,
    ShapeKind,
)
from .datamanager import DataManager
from .window import Window

__all__ = ["UtilityModel"]


class UtilityModel:
    """Computes benefits, costs and utilities against a Data Manager.

    :meth:`score` is the per-window pass the search runs, compiled once
    per query (:attr:`scorer`); :meth:`benefit`, :meth:`utility` and
    :meth:`utility_with_benefit` are views of it.
    """

    def __init__(self, conditions: ConditionSet, data: DataManager, s: float = 0.5) -> None:
        if not 0 <= s <= 1:
            raise ValueError(f"benefit weight s must be in [0, 1], got {s}")
        self.conditions = conditions
        self.data = data
        self.s = s

        grid = data.grid
        self._m = grid.num_cells
        self._n = max(1.0, data.total_objects)
        k = conditions.max_cardinality(grid.shape)
        self._k = float(k) if k is not None else float(self._m)

        # Content conditions grouped by objective, in first-appearance
        # order: an interval predicate (``avg(v) > a AND avg(v) < b``)
        # shares one estimate per window.
        groups: dict[str, tuple[ContentObjective, list[tuple[ContentCondition, float]]]] = {}
        for cond in conditions.content_conditions:
            eps = cond.eps
            if eps is None:
                eps = default_eps(cond, data.objective_grids(cond.objective.key), self._n)
            if eps <= 0:
                raise ValueError(f"eps for condition {cond!r} must be positive, got {eps}")
            groups.setdefault(repr(cond.objective), (cond.objective, []))[1].append(
                (cond, eps)
            )
        self._groups = list(groups.values())
        # Shape values are exact; their natural precision is the grid
        # extent in the relevant dimension (the cell count for ``card``).
        self._shape = [
            (
                cond,
                float(grid.shape[cond.objective.dim])  # type: ignore[index]
                if cond.objective.kind is ShapeKind.LENGTH
                else float(self._m),
            )
            for cond in conditions.shape_conditions
        ]
        # Per window shape (``hi - lo``): its shape benefit, whether its
        # shape conditions hold, and its cell count.  A search meets at
        # most one entry per shape the grid admits.
        self._shapes: dict[tuple[int, ...], tuple[float, bool, int]] = {}
        #: ``window -> whether its shape conditions hold``: the validation
        #: pass's shape test, a 2-d window's shape read from its bounds.
        self.shape_holds: Callable[[Window], bool] = self._compile_shape_holds()
        #: The compiled per-window pass ``window -> (B_w, 1 - min(C_w/k, 1))``
        #: that :meth:`score` views.  Built at its first call, as the
        #: kernel set it reads is built lazily too.
        self.scorer: Callable[[Window], tuple[float, float]] = self._first_score

    @property
    def k(self) -> float:
        """The cost normalizer (max cardinality or total cell count)."""
        return self._k

    # -- the per-window pass --------------------------------------------------

    def score(self, window: Window) -> tuple[float, float]:
        """``(B_w, 1 - min(C_w / k, 1))`` of one window, in one pass."""
        return self.scorer(window)

    def _first_score(self, window: Window) -> tuple[float, float]:
        self.scorer = self._compile_score()
        return self.scorer(window)

    def _compile_score(self) -> Callable[[Window], tuple[float, float]]:
        """The scoring pass over this model's kernel set, as one closure.

        Fixed at build: the kernels' compiled readers (one per objective,
        ``DataKernels.reader``), whether noise applies, the condition
        tests with their thresholds and ``eps``, and the cost constants.
        Per window, the shape-only terms come from the per-shape memo,
        the unread count refills stale tables first, and each objective
        is reduced once.  Every value is bitwise the composition of
        :meth:`cost`, ``DataManager.estimate`` and the per-condition
        benefits that ``tests/naive_oracle.py`` keeps.
        """
        data = self.data
        kern = data.kernels
        unread = kern.unread
        fully_read = kern.fully_read
        perturb = None if data.noise is None else data.noise.perturb
        m, n, k = self._m, self._n, self._k
        shapes = self._shapes
        new_shape = self._new_shape
        groups = [
            (kern.reader(objective), [(cond.op.test, cond.value, eps) for cond, eps in conditions])
            for objective, conditions in self._groups
        ]
        isnan = math.isnan
        two_d = data.grid.ndim == 2

        def score(window: Window) -> tuple[float, float]:
            lo = window.lo
            hi = window.hi
            if two_d:
                l0, l1 = lo
                h0, h1 = hi
                lengths = (h0 - l0, h1 - l1)
            else:
                lengths = tuple(map(sub, hi, lo))
            terms = shapes.get(lengths)
            if terms is None:
                terms = new_shape(lengths)
            benefit = terms[0]
            cost_term = 1.0 - min(unread(lo, hi) * m / n / k, 1.0)
            if benefit == 0.0:
                return 0.0, cost_term
            # A fully read window's estimate is exact: no noise.
            noisy = perturb is not None and not fully_read(lo, hi)
            for read, tests in groups:
                estimate = read(lo, hi)
                if noisy:
                    estimate = perturb(lo, hi, estimate)
                if isnan(estimate):
                    return 0.0, cost_term
                for test, value, eps in tests:
                    if not test(estimate, value):
                        benefit = min(benefit, max(0.0, 1.0 - abs(estimate - value) / eps))
                        if benefit == 0.0:
                            return 0.0, cost_term
            return benefit, cost_term

        return score

    def _compile_shape_holds(self) -> Callable[[Window], bool]:
        shapes = self._shapes
        new_shape = self._new_shape
        if self.data.grid.ndim != 2:
            return lambda window: self.shape_terms(window)[1]

        def holds(window: Window) -> bool:
            l0, l1 = window.lo
            h0, h1 = window.hi
            terms = shapes.get((h0 - l0, h1 - l1))
            if terms is None:
                terms = new_shape((h0 - l0, h1 - l1))
            return terms[1]

        return holds

    def shape_terms(self, window: Window) -> tuple[float, bool, int]:
        """``(shape benefit, shape conditions hold, cardinality)`` of the
        window's shape — memoised, as none of them reads data."""
        lengths = tuple(map(sub, window.hi, window.lo))
        terms = self._shapes.get(lengths)
        if terms is None:
            terms = self._new_shape(lengths)
        return terms

    def _new_shape(self, lengths: tuple[int, ...]) -> tuple[float, bool, int]:
        origin = Window.unchecked((0,) * len(lengths), lengths)
        terms = self._shapes[lengths] = (
            self._shape_benefit(origin),
            self.conditions.shape_satisfied(origin),
            math.prod(lengths),
        )
        return terms

    def combine(self, benefit, cost_term):
        """``U_w = s*B + (1-s)*(1 - min(C/k, 1))`` from its two terms —
        floats or arrays alike."""
        return self.s * benefit + (1.0 - self.s) * cost_term

    # -- views ----------------------------------------------------------------

    def cost(self, window: Window) -> float:
        """``C_w``: unread objects normalized by mean cell density."""
        return self.data.unread_objects(window) * self._m / self._n

    def benefit(self, window: Window) -> float:
        """``B_w``: minimum per-condition benefit, in [0, 1]."""
        return self.score(window)[0]

    def utility(self, window: Window) -> float:
        """``U_w = s*B + (1-s)*(1 - min(C/k, 1))``."""
        return self.combine(*self.score(window))

    def utility_with_benefit(self, window: Window, benefit: float) -> float:
        """Utility using an externally modified benefit (diversification)."""
        return self.combine(benefit, self.score(window)[1])

    # -- batch evaluation over all placements of a fixed shape ------------------

    def placement_profile(
        self, lengths: Sequence[int], anchor_slab: tuple[int, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(benefits, cost_terms)`` for every placement of one shape.

        Both arrays follow :func:`~repro.core.kernels.placement_bounds`
        order.  ``anchor_slab=(lo, hi)`` limits the placements to
        first-dimension anchors in ``[lo, hi)`` — the distributed
        workers seed (and re-seed adopted) anchor slabs through this.
        Every entry is bitwise identical to the scalar :meth:`benefit` /
        ``1 - min(cost/k, 1)`` pair — the whole point of this path is
        cutting wall time without perturbing a single utility value (see
        kernels.py's exactness contract).
        """
        kern = self.data.kernels
        unread = kern.placement_unread(lengths)
        if anchor_slab is not None:
            unread = unread[anchor_slab[0] : anchor_slab[1]]
        costs = unread.reshape(-1) * self._m / self._n
        cost_terms = 1.0 - np.minimum(costs / self._k, 1.0)

        # Shape benefits depend only on the window's shape, which is the
        # same for every placement here.
        shape_benefit = self.shape_terms(
            Window.unchecked((0,) * len(lengths), tuple(lengths))
        )[0]
        benefits = np.full(cost_terms.shape, shape_benefit, dtype=np.float64)
        if shape_benefit > 0.0:
            for objective, conditions in self._groups:
                estimates = kern.placement_estimates(objective, lengths, anchor_slab)
                if not self._min_content_benefits(benefits, conditions, estimates):
                    break
        return benefits, cost_terms

    def bounds_profile(
        self, lows: np.ndarray, his: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(benefits, cost_terms)`` for arbitrary packed window bounds.

        The mixed-shape sibling of :meth:`placement_profile`, serving
        the frontier refresh: rows of ``(P, d)`` ``lows`` / ``his``
        arrays may have different shapes, so shape benefits are
        vectorized per row and content
        estimates go through ``DataKernels.reduce_bounds`` — perturbed,
        under a noise model, on the rows that are not fully read.  Every
        entry is bitwise identical to the scalar pair.
        """
        kern = self.data.kernels
        unread = kern.unread_bounds(lows, his)
        costs = unread * self._m / self._n
        cost_terms = 1.0 - np.minimum(costs / self._k, 1.0)

        benefits = np.ones(len(lows), dtype=np.float64)
        lengths = his - lows
        for cond, eps in self._shape:
            if cond.objective.kind is ShapeKind.LENGTH:
                values = lengths[:, cond.objective.dim].astype(np.float64)
            else:
                values = np.prod(lengths, axis=1).astype(np.float64)
            satisfied = cond.op.test(values, cond.value)
            if satisfied.all():
                continue  # per-row benefit is 1.0 — min() is a no-op
            vals = np.where(
                satisfied,
                1.0,
                np.maximum(0.0, 1.0 - np.abs(values - cond.value) / eps),
            )
            np.minimum(benefits, vals, out=benefits)
            if not benefits.any():
                break
        if benefits.any():
            noise = self.data.noise
            if noise is not None:
                perturbed = ~kern.fully_read_bounds(lows, his)
            for objective, conditions in self._groups:
                estimates = kern.reduce_bounds(objective, lows, his)
                if noise is not None:
                    estimates = noise.perturb_many(lows, his, estimates, perturbed)
                if not self._min_content_benefits(benefits, conditions, estimates):
                    break
        return benefits, cost_terms

    @staticmethod
    def _min_content_benefits(
        benefits: np.ndarray,
        conditions: list[tuple[ContentCondition, float]],
        estimates: np.ndarray,
    ) -> bool:
        """Lower ``benefits`` in place to each condition's benefit over one
        objective's estimates (:meth:`score`'s rule, vectorized); whether
        any benefit is left above zero."""
        nan_mask = np.isnan(estimates)
        for cond, eps in conditions:
            satisfied = cond.op.test(estimates, cond.value)
            with np.errstate(invalid="ignore"):
                out = np.maximum(0.0, 1.0 - np.abs(estimates - cond.value) / eps)
            out = np.where(satisfied, 1.0, out)
            out[nan_mask] = 0.0
            np.minimum(benefits, out, out=benefits)
        return bool(benefits.any())

    # -- per-condition benefits -------------------------------------------------

    def _shape_benefit(self, window: Window) -> float:
        """Minimum benefit over the shape conditions (exact, no data access)."""
        benefit = 1.0
        for cond, eps in self._shape:
            value = cond.objective.value(window)
            if not cond.op.test(value, cond.value):
                benefit = min(benefit, max(0.0, 1.0 - abs(value - cond.value) / eps))
                if benefit == 0.0:
                    break
        return benefit
