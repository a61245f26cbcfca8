"""The exploration grid ``G_S`` over a search area ``S`` (paper Section 2).

A grid is a vector of steps ``(s_1, ..., s_n)``.  It divides each dimension
interval ``[L_i, U_i)`` into disjoint sub-intervals of size ``s_i`` starting
at ``L_i``; the last sub-interval may be shorter.  The cross product of the
sub-intervals tiles ``S`` into *cells* — the atoms from which windows are
composed.

Cells are addressed by integer index vectors ``(i_1, ..., i_n)`` with
``0 <= i_k < shape[k]``; a *flat id* (row-major) is also provided because
the storage and sampling layers keep per-cell aggregates in numpy arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .geometry import Interval, Rect

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """A grid ``G_S`` over a search area.

    Parameters
    ----------
    area:
        The search area ``S`` as an n-dimensional :class:`Rect`.
    steps:
        One positive step per dimension (the paper's ``(s_1, ..., s_n)``).

    Cell edges are computed once per dimension, on first use, with
    :meth:`cell_interval`'s own float expressions; every cell interval,
    window rectangle (a result's ``bounds``) and read region
    (:meth:`box_rect`) is a lookup in that table, bit-equal to the
    arithmetic it replaces.
    """

    area: Rect
    steps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.steps) != self.area.ndim:
            raise ValueError(
                f"grid has {len(self.steps)} steps but the area has {self.area.ndim} dimensions"
            )
        for dim, step in enumerate(self.steps):
            if step <= 0:
                raise ValueError(f"grid step for dimension {dim} must be positive, got {step}")
        if self.area.is_empty:
            raise ValueError("search area must have positive extent in every dimension")
        # Cache the shape; object is frozen so bypass __setattr__.
        shape = tuple(
            max(1, math.ceil(iv.length / step - 1e-12))
            for iv, step in zip(self.area.intervals, self.steps)
        )
        object.__setattr__(self, "_shape", shape)
        # ``Window.key`` packs ``lo`` against the radices ``shape``, then
        # ``hi`` against ``shape + 1``: the key is
        # ``sum(lo[d] * m_lo[d]) + sum(hi[d] * m_hi[d])``.
        m_lo: list[int] = []
        m_hi: list[int] = []
        radix = 1
        for size in reversed(shape):
            m_hi.insert(0, radix)
            radix *= size + 1
        for size in reversed(shape):
            m_lo.insert(0, radix)
            radix *= size
        object.__setattr__(self, "_key_multipliers", (tuple(m_lo), tuple(m_hi)))
        object.__setattr__(self, "_edges", None)

    # -- basic shape -------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of grid dimensions."""
        return self.area.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of cells per dimension."""
        return self._shape  # type: ignore[attr-defined]

    @property
    def key(self) -> tuple:
        """``(area.lower, area.upper, steps)``: the geometry as a hashable value.

        Two grids with equal keys address the same cells by the same flat
        ids; stored cell installs and the serve cache's grid signatures
        are built from its ``repr``.
        """
        return (self.area.lower, self.area.upper, self.steps)

    @property
    def key_multipliers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(m_lo, m_hi)``: per-dimension multipliers of ``Window.key``."""
        return self._key_multipliers  # type: ignore[attr-defined]

    @property
    def num_cells(self) -> int:
        """Total number of cells ``m = |G_S|``."""
        return math.prod(self.shape)

    # -- cell addressing ---------------------------------------------------

    @property
    def _cell_edges(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per dimension, ``(lows, highs)``: every cell's interval bounds.

        Cell ``i`` starts at ``L + i * s`` and ends one step later,
        clipped to the area's upper bound ``U``.  Built at first use.
        """
        edges = self._edges  # type: ignore[attr-defined]
        if edges is None:
            edges = []
            for area_iv, step, size in zip(self.area.intervals, self.steps, self.shape):
                lows = tuple(area_iv.lo + index * step for index in range(size))
                highs = tuple(min(lo + step, area_iv.hi) for lo in lows)
                edges.append((lows, highs))
            edges = tuple(edges)
            object.__setattr__(self, "_edges", edges)
        return edges

    def cell_interval(self, dim: int, index: int) -> Interval:
        """The sub-interval covered by cell ``index`` along ``dim``.

        The last cell is clipped to the area's upper bound, mirroring the
        paper's note that the final sub-interval may be shorter than the
        step.
        """
        self._check_index(dim, index)
        lows, highs = self._cell_edges[dim]
        return Interval(lows[index], highs[index])

    def cell_rect(self, index: Sequence[int]) -> Rect:
        """Coordinate-space rectangle of the cell at integer index vector."""
        if len(index) != self.ndim:
            raise ValueError(f"index has {len(index)} dims, grid has {self.ndim}")
        return Rect(tuple(self.cell_interval(d, i) for d, i in enumerate(index)))

    def cell_of_point(self, point: Sequence[float]) -> tuple[int, ...]:
        """Index vector of the cell containing ``point``.

        Raises ``ValueError`` when the point lies outside the search area.
        """
        if not self.area.contains_point(point):
            raise ValueError(f"point {tuple(point)} lies outside the search area")
        index = []
        for dim, value in enumerate(point):
            raw = int((value - self.area[dim].lo) / self.steps[dim])
            # Clamp for points inside the clipped last cell.
            index.append(min(raw, self.shape[dim] - 1))
        return tuple(index)

    def flat_id(self, index: Sequence[int]) -> int:
        """Row-major flat id of an index vector."""
        if len(index) != self.ndim:
            raise ValueError(f"index has {len(index)} dims, grid has {self.ndim}")
        flat = 0
        for dim, i in enumerate(index):
            self._check_index(dim, i)
            flat = flat * self.shape[dim] + i
        return flat

    def index_of_flat(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_id`."""
        if not 0 <= flat < self.num_cells:
            raise ValueError(f"flat id {flat} out of range [0, {self.num_cells})")
        index = [0] * self.ndim
        for dim in range(self.ndim - 1, -1, -1):
            index[dim] = flat % self.shape[dim]
            flat //= self.shape[dim]
        return tuple(index)

    def iter_cells(self) -> Iterator[tuple[int, ...]]:
        """All cell index vectors in row-major order."""
        return itertools.product(*(range(n) for n in self.shape))

    # -- window support ----------------------------------------------------

    def box_rect(self, lo: Sequence[int], hi: Sequence[int]) -> Rect:
        """Coordinate rectangle spanned by cells ``lo`` (incl.) .. ``hi`` (excl.).

        ``lo`` and ``hi`` are cell index vectors; this is how a window's
        coordinate extent (``LB``/``UB`` in the SQL extension) is computed.
        """
        if len(lo) != self.ndim or len(hi) != self.ndim:
            raise ValueError("box bounds must match grid dimensionality")
        intervals = []
        for dim, (l, h, size, (lows, highs)) in enumerate(
            zip(lo, hi, self.shape, self._cell_edges)
        ):
            if not 0 <= l < h <= size:
                raise ValueError(
                    f"box [{l}, {h}) invalid for dimension {dim} of size {size}"
                )
            intervals.append(Interval(lows[l], highs[h - 1]))
        return Rect(tuple(intervals))

    def _check_index(self, dim: int, index: int) -> None:
        if not 0 <= index < self.shape[dim]:
            raise ValueError(
                f"cell index {index} out of range [0, {self.shape[dim]}) for dimension {dim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid(area={self.area!r}, steps={self.steps}, shape={self.shape})"
