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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..sampling.estimators import default_eps
from .conditions import (
    ConditionSet,
    ContentCondition,
    ShapeKind,
)
from .datamanager import DataManager
from .window import Window

__all__ = ["UtilityModel"]


@dataclass(frozen=True)
class _ContentEntry:
    condition: ContentCondition
    eps: float
    #: Conditions over one objective share this key — and one estimate.
    memo_key: str


class UtilityModel:
    """Computes benefits, costs and utilities against a Data Manager."""

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

        self._content: list[_ContentEntry] = []
        for cond in conditions.content_conditions:
            eps = cond.eps
            if eps is None:
                eps = default_eps(cond, data.objective_grids(cond.objective.key), self._n)
            if eps <= 0:
                raise ValueError(f"eps for condition {cond!r} must be positive, got {eps}")
            self._content.append(_ContentEntry(cond, eps, repr(cond.objective)))
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

    @property
    def k(self) -> float:
        """The cost normalizer (max cardinality or total cell count)."""
        return self._k

    # -- components -----------------------------------------------------------

    def cost(self, window: Window) -> float:
        """``C_w``: unread objects normalized by mean cell density."""
        return self.data.unread_objects(window) * self._m / self._n

    def benefit(self, window: Window) -> float:
        """``B_w``: minimum per-condition benefit, in [0, 1]."""
        benefit = self._shape_benefit(window)
        if benefit == 0.0:
            return 0.0
        # Interval predicates (``avg(v) > a AND avg(v) < b``) share one
        # objective; estimate it once per window, not per condition.
        estimates: dict[str, float] = {}
        for entry in self._content:
            cond = entry.condition
            estimate = estimates.get(entry.memo_key)
            if estimate is None:
                estimate = estimates[entry.memo_key] = self.data.estimate(
                    cond.objective, window
                )
            if math.isnan(estimate):
                return 0.0
            if not cond.op.test(estimate, cond.value):
                benefit = min(
                    benefit, max(0.0, 1.0 - abs(estimate - cond.value) / entry.eps)
                )
                if benefit == 0.0:
                    return 0.0
        return benefit

    def utility(self, window: Window) -> float:
        """``U_w = s*B + (1-s)*(1 - min(C/k, 1))``."""
        return self.utility_with_benefit(window, self.benefit(window))

    def utility_with_benefit(self, window: Window, benefit: float) -> float:
        """Utility using an externally modified benefit (diversification)."""
        cost_term = 1.0 - min(self.cost(window) / self._k, 1.0)
        return self.s * benefit + (1.0 - self.s) * cost_term

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
        shape_benefit = self._shape_benefit(
            Window.unchecked(tuple(0 for _ in lengths), tuple(lengths))
        )
        benefits = np.full(cost_terms.shape, shape_benefit, dtype=np.float64)
        if shape_benefit > 0.0:
            estimates_memo: dict = {}
            for entry in self._content:
                estimates = estimates_memo.get(entry.memo_key)
                if estimates is None:
                    estimates = kern.placement_estimates(
                        entry.condition.objective, lengths, anchor_slab
                    )
                    estimates_memo[entry.memo_key] = estimates
                np.minimum(
                    benefits, self._content_benefits(entry, estimates), out=benefits
                )
                if not benefits.any():
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
            estimates_memo: dict = {}
            for entry in self._content:
                estimates = estimates_memo.get(entry.memo_key)
                if estimates is None:
                    estimates = kern.reduce_bounds(
                        entry.condition.objective, lows, his
                    )
                    if noise is not None:
                        estimates = noise.perturb_many(lows, his, estimates, perturbed)
                    estimates_memo[entry.memo_key] = estimates
                np.minimum(
                    benefits, self._content_benefits(entry, estimates), out=benefits
                )
                if not benefits.any():
                    break
        return benefits, cost_terms

    def _content_benefits(self, entry: _ContentEntry, estimates: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_content_benefit` over an estimate array."""
        cond = entry.condition
        nan_mask = np.isnan(estimates)
        satisfied = cond.op.test(estimates, cond.value)
        with np.errstate(invalid="ignore"):
            out = np.maximum(0.0, 1.0 - np.abs(estimates - cond.value) / entry.eps)
        out = np.where(satisfied, 1.0, out)
        out[nan_mask] = 0.0
        return out

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
