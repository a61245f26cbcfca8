"""Geometric primitives for the Semantic Windows search space.

The paper (Section 2) models the data set as an ``n``-dimensional search
area ``S`` specified as a cross product of half-open intervals
``[L_i, U_i)``.  This module provides the two primitives everything else is
built on:

* :class:`Interval` — a half-open interval ``[lo, hi)`` on one dimension.
* :class:`Rect` — an axis-aligned ``n``-dimensional rectangle, i.e. a cross
  product of intervals.  Search areas, grid cells, windows (in coordinate
  space) and result-cluster MBRs are all :class:`Rect` instances.

Both types are immutable value objects so they can be used as dictionary
keys and set members throughout the search engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Interval", "Rect"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open interval ``[lo, hi)`` on a single dimension.

    The paper uses half-open intervals so that adjacent grid cells tile the
    search area without overlap; we follow the same convention everywhere.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def length(self) -> float:
        """Extent of the interval (``hi - lo``)."""
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        """True when the interval contains no points (``lo == hi``)."""
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        """Arithmetic centre of the interval."""
        return (self.lo + self.hi) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies in ``[lo, hi)``."""
        return self.lo <= value < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is fully inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two half-open intervals share at least one point."""
        return self.lo < other.hi and other.lo < self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping part of the two intervals, or ``None``."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def distance_to(self, other: "Interval") -> float:
        """Gap between the intervals along the axis; 0 when they overlap."""
        if self.overlaps(other) or self.is_empty or other.is_empty:
            return 0.0
        if self.hi <= other.lo:
            return other.lo - self.hi
        return self.lo - other.hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi})"


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned ``n``-dimensional rectangle (cross product of intervals)."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("a Rect needs at least one dimension")

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[float, float]]) -> "Rect":
        """Build a rectangle from ``(lo, hi)`` pairs, one per dimension."""
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.intervals)

    @property
    def lower(self) -> tuple[float, ...]:
        """Lower corner (the window *anchor* lives at this corner)."""
        return tuple(iv.lo for iv in self.intervals)

    @property
    def upper(self) -> tuple[float, ...]:
        """Upper corner (exclusive)."""
        return tuple(iv.hi for iv in self.intervals)

    @property
    def volume(self) -> float:
        """Product of the per-dimension extents."""
        return math.prod(iv.length for iv in self.intervals)

    @property
    def is_empty(self) -> bool:
        """True when any dimension is degenerate."""
        return any(iv.is_empty for iv in self.intervals)

    @property
    def diameter(self) -> float:
        """Length of the main diagonal (used to normalize distances)."""
        return math.sqrt(sum(iv.length ** 2 for iv in self.intervals))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, dim: int) -> Interval:
        return self.intervals[dim]

    def contains_point(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside the half-open rectangle."""
        if len(point) != self.ndim:
            raise ValueError(f"point has {len(point)} dims, rect has {self.ndim}")
        return all(iv.contains(v) for iv, v in zip(self.intervals, point))

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` is fully inside this rectangle."""
        self._check_ndim(other)
        return all(a.contains_interval(b) for a, b in zip(self.intervals, other.intervals))

    def overlaps(self, other: "Rect") -> bool:
        """Whether the rectangles share interior points in every dimension."""
        self._check_ndim(other)
        return all(a.overlaps(b) for a, b in zip(self.intervals, other.intervals))

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlapping sub-rectangle, or ``None`` when disjoint."""
        self._check_ndim(other)
        parts = []
        for a, b in zip(self.intervals, other.intervals):
            shared = a.intersection(b)
            if shared is None:
                return None
            parts.append(shared)
        return Rect(tuple(parts))

    def hull(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two operands.

        Result clusters in Section 4.4 are MBRs of overlapping result
        windows; they are grown with this method.
        """
        self._check_ndim(other)
        return Rect(tuple(a.hull(b) for a, b in zip(self.intervals, other.intervals)))

    def min_distance(self, other: "Rect") -> float:
        """Minimum Euclidean distance between the two rectangles.

        Zero when they overlap or touch.  This is the ``dist`` used by the
        diversification strategies (Section 4.4).
        """
        self._check_ndim(other)
        gaps = (a.distance_to(b) for a, b in zip(self.intervals, other.intervals))
        return math.sqrt(sum(g * g for g in gaps))

    def _check_ndim(self, other: "Rect") -> None:
        if other.ndim != self.ndim:
            raise ValueError(f"dimension mismatch: {self.ndim} vs {other.ndim}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return " x ".join(repr(iv) for iv in self.intervals)
