"""Windows: axis-aligned boxes of adjacent grid cells (paper Section 2).

A *window* is a union of adjacent cells that constitutes an n-dimensional
rectangle.  We represent it compactly as a half-open box of cell indices:
``lo = (l_1, ..., l_n)`` inclusive and ``hi = (u_1, ..., u_n)`` exclusive.

Section 4.1 structures the search space as a graph over windows:

* an *extension* of ``w`` combines ``w`` with adjacent cells into a bigger
  rectangle (``w`` is contained in the extension);
* a *neighbor* is an extension in a **single dimension and direction**; the
  search graph connects each window to its neighbors, and the best-first
  search (Algorithm 1) expands windows one neighbor step at a time.

Windows also carry the notion of an *anchor* — the leftmost (lower-corner)
cell — used by the distributed layer to assign ownership (Section 5).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from .geometry import Rect
from .grid import Grid

__all__ = ["Direction", "Window"]


class Direction(Enum):
    """Extension direction along one dimension (paper's ``left``/``right``)."""

    LEFT = -1
    RIGHT = 1


@dataclass(frozen=True, slots=True)
class Window:
    """A window as a half-open box of cell indices.

    ``Window(lo=(1, 2), hi=(3, 4))`` spans cells with first index 1..2 and
    second index 2..3 — a 2x2 window of four cells.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("window bounds must have matching dimensionality")
        if not self.lo:
            raise ValueError("a window needs at least one dimension")
        for dim, (l, u) in enumerate(zip(self.lo, self.hi)):
            if l >= u:
                raise ValueError(f"window is empty in dimension {dim}: [{l}, {u})")

    @classmethod
    def single_cell(cls, index: Sequence[int]) -> "Window":
        """Window consisting of exactly one cell."""
        lo = tuple(index)
        return cls(lo, tuple(i + 1 for i in lo))

    @classmethod
    def unchecked(cls, lo: tuple[int, ...], hi: tuple[int, ...]) -> "Window":
        """Construct without bound validation.

        For internal hot paths that build many windows whose bounds are
        valid by construction (e.g. batch placement enumeration) —
        skipping ``__post_init__`` roughly halves construction cost.
        """
        window = object.__new__(cls)
        object.__setattr__(window, "lo", lo)
        object.__setattr__(window, "hi", hi)
        return window

    # -- shape-based objective functions (paper Section 2) -----------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    def length(self, dim: int) -> int:
        """``len_{d_i}(w)``: the window's extent in cells along ``dim``."""
        return self.hi[dim] - self.lo[dim]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Per-dimension lengths in cells."""
        return tuple(map(operator.sub, self.hi, self.lo))

    @property
    def cardinality(self) -> int:
        """``card(w)``: the number of cells in the window."""
        return math.prod(map(operator.sub, self.hi, self.lo))

    @property
    def anchor(self) -> tuple[int, ...]:
        """Leftmost cell index — the window's anchor (Sections 4.4 and 5)."""
        return self.lo

    # -- cell membership ---------------------------------------------------

    def iter_cells(self) -> Iterator[tuple[int, ...]]:
        """All cell index vectors inside the window, row-major."""
        return itertools.product(*(range(l, u) for l, u in zip(self.lo, self.hi)))

    def contains_cell(self, index: Sequence[int]) -> bool:
        """Whether the given cell lies inside the window."""
        return all(l <= i < u for l, i, u in zip(self.lo, index, self.hi))

    def contains_window(self, other: "Window") -> bool:
        """Whether ``other`` is fully inside this window."""
        self._check_ndim(other)
        return all(
            sl <= ol and ou <= su
            for sl, ol, ou, su in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def overlaps(self, other: "Window") -> bool:
        """Whether the two windows share at least one cell."""
        self._check_ndim(other)
        return all(sl < ou and ol < su for sl, su, ol, ou in zip(self.lo, self.hi, other.lo, other.hi))

    def intersection(self, other: "Window") -> "Window | None":
        """Shared sub-window, or ``None`` when disjoint."""
        self._check_ndim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l >= u for l, u in zip(lo, hi)):
            return None
        return Window(lo, hi)

    def hull(self, other: "Window") -> "Window":
        """Minimum bounding window of the two operands."""
        self._check_ndim(other)
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Window(lo, hi)

    # -- search-graph structure (paper Section 4.1) -------------------------

    def is_extension_of(self, other: "Window") -> bool:
        """Whether this window extends ``other`` (contains it, is bigger)."""
        return self != other and self.contains_window(other)

    def extend(self, dim: int, direction: Direction, amount: int = 1) -> "Window":
        """Extension by ``amount`` cells along ``dim`` in ``direction``.

        The result is not clipped to any grid; callers that need bounds
        checking should use :meth:`neighbor`.  It is built with
        :meth:`unchecked`: growing a valid window only lowers a ``lo`` or
        raises a ``hi``, so the result is valid too.
        """
        if amount < 1:
            raise ValueError(f"extension amount must be >= 1, got {amount}")
        lo, hi = self.lo, self.hi
        if direction is Direction.LEFT:
            return Window.unchecked(lo[:dim] + (lo[dim] - amount,) + lo[dim + 1 :], hi)
        return Window.unchecked(lo, hi[:dim] + (hi[dim] + amount,) + hi[dim + 1 :])

    def neighbor(self, grid: Grid, dim: int, direction: Direction) -> "Window | None":
        """The one-step neighbor along ``dim``/``direction`` within ``grid``.

        Returns ``None`` when the window already touches the grid boundary
        in that direction; otherwise it is :meth:`extend` by one cell,
        which skips re-validation (prefetching calls this once per
        candidate slab).
        """
        if direction is Direction.LEFT:
            if self.lo[dim] == 0:
                return None
        else:
            if self.hi[dim] >= grid.shape[dim]:
                return None
        return self.extend(dim, direction)

    def neighbors(self, grid: Grid) -> Iterator["Window"]:
        """All in-grid one-step neighbors (at most ``2 * ndim`` of them)."""
        for dim in range(self.ndim):
            for direction in (Direction.LEFT, Direction.RIGHT):
                nb = self.neighbor(grid, dim, direction)
                if nb is not None:
                    yield nb

    # -- canonical identity --------------------------------------------------

    def key(self, shape: Sequence[int]) -> int:
        """Canonical integer identity of this window within a grid shape.

        A mixed-radix packing of ``(lo, hi)`` against ``shape``: two
        windows of the same grid share a key iff they cover exactly the
        same cells, so the key is the window's *canonical identity* —
        the search's dedup set and the serving layer's cross-session
        result deduplication both key on it.  Python integers are
        unbounded, so the packing never overflows.
        """
        if len(shape) != self.ndim:
            raise ValueError(
                f"shape dimensionality {len(shape)} != window {self.ndim}"
            )
        key = 0
        for d in range(len(shape)):
            key = key * shape[d] + self.lo[d]
        for d in range(len(shape)):
            key = key * (shape[d] + 1) + self.hi[d]
        return key

    @classmethod
    def from_key(cls, key: int, shape: Sequence[int]) -> "Window":
        """Inverse of :meth:`key` under the same grid shape."""
        shape = tuple(shape)
        hi = [0] * len(shape)
        lo = [0] * len(shape)
        for d in range(len(shape) - 1, -1, -1):
            key, hi[d] = divmod(key, shape[d] + 1)
        for d in range(len(shape) - 1, -1, -1):
            key, lo[d] = divmod(key, shape[d])
        if key != 0:
            raise ValueError(f"key does not decode within shape {shape}")
        return cls(tuple(lo), tuple(hi))

    # -- coordinate space ---------------------------------------------------

    def rect(self, grid: Grid) -> Rect:
        """Coordinate-space rectangle of the window under ``grid``."""
        return grid.box_rect(self.lo, self.hi)

    def _check_ndim(self, other: "Window") -> None:
        if other.ndim != self.ndim:
            raise ValueError(f"dimension mismatch: {self.ndim} vs {other.ndim}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = ",".join(f"{l}:{u}" for l, u in zip(self.lo, self.hi))
        return f"W[{spans}]"


def neighbor_bounds(
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    shape: Sequence[int],
    max_lengths: Sequence[int],
    max_card: int | None,
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], int]:
    """Admissible one-step neighbors of the box ``[lo, hi)`` as plain bounds.

    Walks the candidates in :meth:`Window.neighbors` order — dim 0 LEFT,
    dim 0 RIGHT, dim 1 LEFT, ... — and returns ``(bounds, capped)``: the
    ``(lo, hi)`` pairs that stay inside ``shape`` and under the
    ``max_lengths`` / ``max_card`` caps, plus how many in-grid candidates
    a cap rejected.  Both directions of a dimension grow the same length,
    so each cap is one integer comparison per dimension and no
    :class:`Window` is built for a candidate the caller may still drop
    (capped here, deduplicated or owned elsewhere there).
    """
    bounds = []
    capped = 0
    card = math.prod(map(operator.sub, hi, lo)) if max_card is not None else 0
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
        if left:
            bounds.append((lo[:d] + (l - 1,) + lo[d + 1 :], hi))
        if right:
            bounds.append((lo, hi[:d] + (h + 1,) + hi[d + 1 :]))
    return bounds, capped


__all__.append("neighbor_bounds")


def enumerate_windows(grid: Grid, max_lengths: Sequence[int] | None = None) -> Iterator[Window]:
    """Yield every window of ``grid`` (optionally bounded per-dimension).

    This is the naive enumeration from the start of Section 4.1, kept as
    a reference for tests (the SQL baseline enumerates placements per
    shape in ``repro.dbms.executor``).  ``max_lengths``
    bounds the per-dimension window length, mirroring the pruning that
    shape-based conditions allow.
    """
    shape = grid.shape
    limits = tuple(max_lengths) if max_lengths is not None else shape
    if len(limits) != grid.ndim:
        raise ValueError("max_lengths must match grid dimensionality")

    def spans(dim: int) -> Iterator[tuple[int, int]]:
        bound = min(limits[dim], shape[dim])
        for length in range(1, bound + 1):
            for start in range(0, shape[dim] - length + 1):
                yield start, start + length

    for combo in itertools.product(*(spans(d) for d in range(grid.ndim))):
        lo = tuple(c[0] for c in combo)
        hi = tuple(c[1] for c in combo)
        yield Window(lo, hi)


__all__.append("enumerate_windows")
