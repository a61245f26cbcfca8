"""Objective functions and query conditions (paper Section 2).

A *condition* ``c`` is an algebraic comparison over an objective function:

* **shape-based** conditions constrain ``len_{d_i}(w)`` or ``card(w)`` and
  are data-independent, so they can be evaluated exactly without I/O and —
  crucially — used to prune the search graph (``StartWindows`` skips
  windows below a minimum length; ``GetNeighbors`` skips extensions above a
  maximum length/cardinality, Section 4.1);
* **content-based** conditions constrain a distributive/algebraic aggregate
  of an attribute expression over the window's tuples, e.g.
  ``avg(brightness) > 0.8``; these must be validated on exact data.

This module defines the objective/condition object model plus the
`ConditionSet` helper that derives the pruning bounds and the utility
normalizer ``k`` (Section 4.2) from a list of conditions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .aggregates import Aggregate, get_aggregate
from .expressions import Expr
from .window import Window

__all__ = [
    "ComparisonOp",
    "ShapeKind",
    "ShapeObjective",
    "ContentObjective",
    "ShapeCondition",
    "ContentCondition",
    "Condition",
    "ConditionSet",
]


def _ne(left, right):
    """``!=`` with SQL-like NaN handling (``nan != x`` is True in Python)."""
    return (left != right) & (left == left) & (right == right)


class ComparisonOp(Enum):
    """Algebraic comparison operators supported in conditions.

    ``op.value`` is the symbol; ``op.test`` is the comparison as a plain
    callable for hot loops, elementwise on numpy arrays (the SQL
    baseline filters every placement of a shape at once).  NaN operands
    never satisfy: the ordered comparisons and ``=`` are False on NaN
    already, ``!=`` guards it.
    """

    LT = "<", operator.lt
    LE = "<=", operator.le
    GT = ">", operator.gt
    GE = ">=", operator.ge
    EQ = "=", operator.eq
    NE = "!=", _ne

    def __new__(cls, symbol: str, test: Callable[[float, float], bool]):
        member = object.__new__(cls)
        member._value_ = symbol
        member.test = test
        return member

    def apply(self, left: float, right: float) -> bool:
        """Evaluate ``left op right``; NaN operands never satisfy."""
        return self.test(left, right)

    @classmethod
    def parse(cls, symbol: str) -> "ComparisonOp":
        """Parse an operator symbol, accepting ``==`` and ``<>`` aliases."""
        aliases = {"==": "=", "<>": "!="}
        symbol = aliases.get(symbol, symbol)
        for op in cls:
            if op.value == symbol:
                return op
        raise ValueError(f"unknown comparison operator {symbol!r}")


class ShapeKind(Enum):
    """Supported shape-based objective functions."""

    LENGTH = "len"
    CARDINALITY = "card"


@dataclass(frozen=True, slots=True)
class ShapeObjective:
    """``len_{d_i}(w)`` or ``card(w)``.

    ``dim`` identifies the dimension for LENGTH and must be ``None`` for
    CARDINALITY.
    """

    kind: ShapeKind
    dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ShapeKind.LENGTH and self.dim is None:
            raise ValueError("len objective requires a dimension")
        if self.kind is ShapeKind.CARDINALITY and self.dim is not None:
            raise ValueError("card objective does not take a dimension")

    def value(self, window: Window) -> float:
        """Exact objective value for a window (no data access needed)."""
        if self.kind is ShapeKind.LENGTH:
            return float(window.length(self.dim))  # type: ignore[arg-type]
        return float(window.cardinality)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is ShapeKind.LENGTH:
            return f"len(d{self.dim})"
        return "card()"


@dataclass(frozen=True, slots=True)
class ContentObjective:
    """An aggregate of an attribute expression over a window's tuples.

    ``avg(brightness)`` is ``ContentObjective(get_aggregate("avg"),
    col("brightness"))``.  ``key`` (the expression's ``repr``, ``"*"``
    without one) indexes the cached per-cell statistics; it is derived
    once at construction.
    """

    aggregate: Aggregate
    expr: Expr | None
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.aggregate.needs_values and self.expr is None:
            raise ValueError(f"{self.aggregate.name}() requires an attribute expression")
        object.__setattr__(self, "key", repr(self.expr) if self.expr is not None else "*")

    @classmethod
    def of(cls, aggregate_name: str, expr: Expr | None = None) -> "ContentObjective":
        """Build from an aggregate name and optional expression."""
        return cls(get_aggregate(aggregate_name), expr)

    def columns(self) -> frozenset[str]:
        """Attributes referenced by the objective."""
        return self.expr.columns() if self.expr is not None else frozenset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = repr(self.expr) if self.expr is not None else "*"
        return f"{self.aggregate.name}({inner})"


@dataclass(frozen=True, slots=True)
class ShapeCondition:
    """A comparison over a shape objective, e.g. ``len(ra) = 3``."""

    objective: ShapeObjective
    op: ComparisonOp
    value: float

    def evaluate(self, window: Window) -> bool:
        """Exact truth value of the condition for ``window``."""
        return self.op.test(self.objective.value(window), self.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.objective!r} {self.op.value} {self.value}"


@dataclass(frozen=True, slots=True)
class ContentCondition:
    """A comparison over a content objective, e.g. ``avg(price) > 50``.

    ``eps`` optionally fixes the benefit-normalization precision from
    Section 4.2; when ``None`` the engine derives one from the sample.
    """

    objective: ContentObjective
    op: ComparisonOp
    value: float
    eps: float | None = None

    def evaluate_value(self, objective_value: float) -> bool:
        """Truth value given the (exact) objective value."""
        return self.op.test(objective_value, self.value)

    @property
    def anti_monotone(self) -> bool:
        """Whether the condition supports anti-monotone pruning.

        ``sum() < v`` / ``count() <= v`` style conditions over aggregates
        that only grow with window size allow pruning every window that
        *contains* a violating window (Section 4.1).  This property only
        states the structural requirement; the engine must additionally
        know the aggregated values are non-negative.
        """
        return self.objective.aggregate.monotone_nonneg and self.op in (
            ComparisonOp.LT,
            ComparisonOp.LE,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.objective!r} {self.op.value} {self.value}"


Condition = ShapeCondition | ContentCondition


@dataclass(frozen=True)
class ConditionSet:
    """An immutable set of conditions with derived pruning bounds.

    The derived quantities implement Section 4.1's pruning and Section
    4.2's cost normalization:

    * ``min_lengths`` / ``max_lengths``: tightest per-dimension window
      length bounds implied by ``len`` conditions (1 / grid size when
      unconstrained);
    * ``max_cardinality``: tightest bound implied by ``card`` and ``len``
      conditions — this is the paper's ``k`` when present.

    ``shape_conditions`` and ``content_conditions`` hold the two kinds in
    declaration order, split once at construction (the search reads one
    of them per explored window).
    """

    conditions: tuple[Condition, ...]
    ndim: int
    shape_conditions: tuple[ShapeCondition, ...] = field(
        init=False, repr=False, compare=False
    )
    content_conditions: tuple[ContentCondition, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        shape = tuple(c for c in self.conditions if isinstance(c, ShapeCondition))
        for cond in shape:
            obj = cond.objective
            if obj.kind is ShapeKind.LENGTH and not (0 <= obj.dim < self.ndim):  # type: ignore[operator]
                raise ValueError(
                    f"len condition references dimension {obj.dim}, "
                    f"but the query has {self.ndim} dimensions"
                )
        object.__setattr__(self, "shape_conditions", shape)
        object.__setattr__(
            self,
            "content_conditions",
            tuple(c for c in self.conditions if isinstance(c, ContentCondition)),
        )

    @classmethod
    def of(cls, conditions: Iterable[Condition], ndim: int) -> "ConditionSet":
        """Build from any iterable of conditions."""
        return cls(tuple(conditions), ndim)

    def __iter__(self) -> Iterator[Condition]:
        return iter(self.conditions)

    def __len__(self) -> int:
        return len(self.conditions)

    def content_objectives(self) -> tuple[ContentObjective, ...]:
        """Distinct content objectives, in first-appearance order."""
        seen: dict[str, ContentObjective] = {}
        for cond in self.content_conditions:
            key = f"{cond.objective.aggregate.name}:{cond.objective.key}"
            seen.setdefault(key, cond.objective)
        return tuple(seen.values())

    # -- pruning bounds (Section 4.1) ---------------------------------------

    def min_lengths(self, grid_shape: Sequence[int]) -> tuple[int, ...]:
        """Per-dimension minimum window lengths implied by len conditions."""
        mins = [1] * self.ndim
        for cond in self.shape_conditions:
            if cond.objective.kind is not ShapeKind.LENGTH:
                continue
            dim = cond.objective.dim
            bound = _int_lower_bound(cond.op, cond.value)
            if bound is not None:
                mins[dim] = max(mins[dim], bound)  # type: ignore[index]
        return tuple(min(m, s) for m, s in zip(mins, grid_shape))

    def max_lengths(self, grid_shape: Sequence[int]) -> tuple[int, ...]:
        """Per-dimension maximum window lengths implied by conditions.

        A cardinality ceiling also bounds every length (a window cannot be
        longer than its cell count).
        """
        maxs = list(grid_shape)
        card_cap = self._cardinality_upper_bound()
        for cond in self.shape_conditions:
            if cond.objective.kind is not ShapeKind.LENGTH:
                continue
            dim = cond.objective.dim
            bound = _int_upper_bound(cond.op, cond.value)
            if bound is not None:
                maxs[dim] = min(maxs[dim], bound)  # type: ignore[index]
        if card_cap is not None:
            maxs = [min(m, card_cap) for m in maxs]
        return tuple(max(1, m) for m in maxs)

    def max_cardinality(self, grid_shape: Sequence[int]) -> int | None:
        """Tightest cardinality ceiling, or ``None`` when unconstrained.

        Used as the paper's ``k`` in the utility formula (Section 4.2).
        """
        card_cap = self._cardinality_upper_bound()
        length_cap = math.prod(self.max_lengths(grid_shape))
        total = math.prod(grid_shape)
        candidates = [c for c in (card_cap, length_cap) if c is not None and c < total]
        if not candidates:
            return None
        return min(candidates)

    def _cardinality_upper_bound(self) -> int | None:
        cap: int | None = None
        for cond in self.shape_conditions:
            if cond.objective.kind is not ShapeKind.CARDINALITY:
                continue
            bound = _int_upper_bound(cond.op, cond.value)
            if bound is not None:
                cap = bound if cap is None else min(cap, bound)
        return cap

    # -- evaluation ----------------------------------------------------------

    def shape_satisfied(self, window: Window) -> bool:
        """Whether all shape conditions hold for ``window`` (exact)."""
        for cond in self.shape_conditions:
            if not cond.evaluate(window):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ConditionSet(" + ", ".join(repr(c) for c in self.conditions) + ")"


def _int_lower_bound(op: ComparisonOp, value: float) -> int | None:
    """Smallest integer ``x`` with ``x op value`` possibly true, as a floor."""
    if op is ComparisonOp.GT:
        return math.floor(value) + 1
    if op is ComparisonOp.GE:
        return math.ceil(value)
    if op is ComparisonOp.EQ:
        return math.ceil(value)
    return None


def _int_upper_bound(op: ComparisonOp, value: float) -> int | None:
    """Largest integer ``x`` with ``x op value`` possibly true, as a ceiling."""
    if op is ComparisonOp.LT:
        return math.ceil(value) - 1
    if op is ComparisonOp.LE:
        return math.floor(value)
    if op is ComparisonOp.EQ:
        return math.floor(value)
    return None
