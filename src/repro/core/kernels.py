"""Hot-path estimation kernels: summed-area tables + batch reductions.

The search loop evaluates utilities for 10^4-10^6 candidate windows, and
every evaluation used to pay one numpy box reduction per quantity
(``unread_count[box].sum()``, ``true_count[box].sum()``, ...).  This
module replaces those per-window reductions with shared precomputed
structures:

* :class:`SummedAreaTable` — an n-dimensional integral image.  Any box
  sum becomes an O(2^d) corner lookup, and the sums of *all* placements
  of a fixed window shape come out of 2^d shifted-slice differences.
* :class:`DataKernels` — the kernel set bound to one
  :class:`~repro.core.datamanager.DataManager`.  Tables are stamped with
  ``DataManager.version``; a ``read_window`` / ``install_cell`` version
  bump invalidates them, and the next *batch* query rebuilds them (the
  ``true_count`` table is built once — exact counts never change).
  Scalar queries use a fresh table opportunistically and otherwise fall
  back to the identical-value slice reduction (see the rebuild policy on
  :class:`DataKernels`).

**Exactness contract.**  The search must be *behavior-preserving*: the
kernels have to produce bit-identical utilities to the naive per-window
slice reductions — kept as the reference oracle in
``tests/naive_oracle.py`` — or exploration order (and therefore result
emission order) could drift on priority ties.  Two facts make that
possible:

* ``true_count`` / ``unread_count`` / ``read_mask`` are integer-valued,
  and float64 prefix sums over integers are exact below 2^53 — so every
  SAT count query equals the naive slice sum *bitwise*.
* Real-valued grids (the per-objective ``eff_sum``) would lose that
  guarantee through a SAT: corner differences round differently from
  numpy's pairwise slice summation, and cancellation noise on empty
  boxes breaks exact utility ties.  Their *batched* fixed-shape
  reductions therefore use contiguity-preserving sliding-window copies
  instead: numpy applies the same pairwise summation to an n-element
  contiguous row as to an n-element slice copy, which keeps every batch
  value bitwise equal to the scalar path (guarded by
  ``_SLIDING_MAX_CELLS`` for degenerate huge shapes).  ``min``/``max``
  are order-insensitive, so their sliding reductions are trivially
  exact; single-window ``min``/``max``/``sum``/``avg`` queries keep the
  existing slice path behind this same API.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conditions import ContentObjective
from .window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .datamanager import DataManager

__all__ = ["SummedAreaTable", "DataKernels", "placement_bounds"]

# Above this many cells per window the sliding-window batch falls back to
# per-placement slice reductions: numpy's buffered reduction may chunk
# very long rows differently from a contiguous copy, voiding the
# bitwise-parity guarantee (and the copies would be huge anyway).
_SLIDING_MAX_CELLS = 4096

# Cap on the temporary copy made by one sliding-window chunk (floats).
_SLIDING_CHUNK_ELEMS = 1 << 22


class SummedAreaTable:
    """An n-dimensional integral image over one grid-shaped array.

    ``table`` is zero-padded by one plane per dimension, so the sum over
    the half-open cell box ``[lo, hi)`` is the signed sum of the 2^d
    corners ``table[lo/hi combinations]`` (inclusion-exclusion).

    Exact for integer-valued inputs (all partial sums below 2^53); for
    real-valued inputs corner differences are subject to cancellation —
    see the module docstring for why the search only builds SATs over
    integer-valued grids.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self.shape = values.shape
        self.ndim = values.ndim
        table = np.zeros(tuple(s + 1 for s in values.shape), dtype=np.float64)
        table[tuple(slice(1, None) for _ in range(values.ndim))] = values
        for axis in range(values.ndim):
            np.cumsum(table, axis=axis, out=table)
        self.table = table
        # (sign, offset-selector) per corner of the inclusion-exclusion.
        self._corners = [
            ((-1) ** (self.ndim - bin(mask).count("1")), mask)
            for mask in range(1 << self.ndim)
        ]

    def box_sum(self, lo: Sequence[int], hi: Sequence[int]) -> float:
        """Sum over the half-open box ``[lo, hi)`` — O(2^d) lookups."""
        table = self.table
        if self.ndim == 1:
            return float(table[hi[0]] - table[lo[0]])
        if self.ndim == 2:
            l0, l1 = lo
            h0, h1 = hi
            return float(table[h0, h1] - table[l0, h1] - table[h0, l1] + table[l0, l1])
        total = 0.0
        for sign, mask in self._corners:
            idx = tuple(
                hi[d] if mask >> d & 1 else lo[d] for d in range(self.ndim)
            )
            total += sign * float(table[idx])
        return total

    def window_sum(self, window: Window) -> float:
        """Sum over a :class:`Window`'s cells."""
        return self.box_sum(window.lo, window.hi)

    def box_sums(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`box_sum` over ``(P, d)`` bound arrays."""
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        out = np.zeros(len(lo), dtype=np.float64)
        for sign, mask in self._corners:
            idx = tuple(
                (hi if mask >> d & 1 else lo)[:, d] for d in range(self.ndim)
            )
            if sign > 0:
                out += self.table[idx]
            else:
                out -= self.table[idx]
        return out

    def placement_sums(self, lengths: Sequence[int]) -> np.ndarray:
        """Box sums for *every* placement of a fixed window shape.

        Returns an array of shape ``(shape[d] - lengths[d] + 1, ...)``
        whose entry at position ``p`` is the box sum of
        ``[p, p + lengths)`` — 2^d shifted-slice additions, no per-window
        work at all.
        """
        counts = tuple(s - l + 1 for s, l in zip(self.shape, lengths))
        if any(c <= 0 for c in counts):
            raise ValueError(
                f"window shape {tuple(lengths)} does not fit grid {self.shape}"
            )
        out = np.zeros(counts, dtype=np.float64)
        for sign, mask in self._corners:
            view = self.table[
                tuple(
                    slice(lengths[d], lengths[d] + counts[d])
                    if mask >> d & 1
                    else slice(0, counts[d])
                    for d in range(self.ndim)
                )
            ]
            if sign > 0:
                out += view
            else:
                out -= view
        return out


def placement_bounds(
    shape: Sequence[int],
    lengths: Sequence[int],
    anchor_slab: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(lows, his)`` of every placement of a fixed window shape.

    Rows are in row-major placement order — the order of the
    ``placement_*`` arrays flattened; ``anchor_slab=(lo, hi)`` keeps the
    placements whose first-dimension anchor falls in ``[lo, hi)``.
    """
    counts = [size - length + 1 for size, length in zip(shape, lengths)]
    first = 0
    if anchor_slab is not None:
        first, counts[0] = anchor_slab[0], anchor_slab[1] - anchor_slab[0]
    lows = np.indices(counts).reshape(len(counts), -1).T
    lows[:, 0] += first
    return lows, lows + np.asarray(lengths, dtype=lows.dtype)


def _sliding_reduce(values: np.ndarray, lengths: Sequence[int], op: str) -> np.ndarray:
    """Per-placement slice reductions of a fixed window shape, vectorized.

    Bitwise-identical to ``values[box].sum()`` (resp. ``.min()`` /
    ``.max()``) for every placement: each window's cells are copied into
    one contiguous row, which is exactly what numpy reduces when handed a
    small strided box.
    """
    lengths = tuple(lengths)
    counts = tuple(s - l + 1 for s, l in zip(values.shape, lengths))
    n = math.prod(lengths)
    if n == 1:
        result = values[tuple(slice(0, c) for c in counts)].astype(np.float64, copy=True)
        return result
    if n > _SLIDING_MAX_CELLS:
        out = np.empty(counts, dtype=np.float64)
        for pos in np.ndindex(*counts):
            box = tuple(slice(p, p + l) for p, l in zip(pos, lengths))
            out[pos] = getattr(values[box], op)()
        return out
    view = sliding_window_view(values, lengths)
    out = np.empty(counts, dtype=np.float64)
    flat_out = out.reshape(-1, *counts[1:])
    tail = math.prod(counts[1:]) if len(counts) > 1 else 1
    step = max(1, _SLIDING_CHUNK_ELEMS // max(1, tail * n))
    for start in range(0, counts[0], step):
        chunk = np.ascontiguousarray(view[start : start + step])
        rows = chunk.reshape(-1, n)
        flat_out[start : start + step] = getattr(rows, op)(axis=1).reshape(
            chunk.shape[: values.ndim]
        )
    return out


class DataKernels:
    """Version-stamped kernel set over one Data Manager's grid arrays.

    Count-like queries (``window_count``, ``unread_objects``,
    ``read_cells``, ``is_read`` and the ``count`` aggregate) are served
    from summed-area tables; ``sum``/``avg`` single-window queries keep
    the exact slice path, and ``min``/``max`` always use it (prefix sums
    cannot serve extrema).  ``placement_*`` methods evaluate *every*
    start-window placement of a fixed shape at once.

    **Rebuild policy.**  The ``true_count`` table is static and built
    once.  The mutable tables (``unread_count``, ``read_mask``) go stale
    whenever a read bumps ``DataManager.version`` — but a scalar query
    between reads saves only ~1 µs over its slice reduction, far less
    than an O(grid) rebuild costs, so scalar queries *never* trigger a
    rebuild: they use a table opportunistically when it is fresh and
    fall back to the (bitwise-identical) slice reduction otherwise.
    Batch ``placement_*`` calls always refresh — one rebuild amortized
    over every placement of the grid is always a win.
    """

    def __init__(self, data: "DataManager") -> None:
        self._data = data
        # Exact counts never change after construction — one table, ever.
        self._count_sat = SummedAreaTable(data.true_count)
        self._unread_sat: SummedAreaTable | None = None
        self._read_sat: SummedAreaTable | None = None
        self._stamp = -1
        self.rebuilds = 0

    # -- cache maintenance -------------------------------------------------

    def _refresh(self) -> None:
        if self._stamp == self._data.version:
            return
        self._unread_sat = SummedAreaTable(self._data.unread_count)
        self._read_sat = SummedAreaTable(self._data.read_mask)
        self._stamp = self._data.version
        self.rebuilds += 1

    @property
    def count_table(self) -> SummedAreaTable:
        """SAT over the exact per-cell counts (static)."""
        return self._count_sat

    @property
    def unread_table(self) -> SummedAreaTable:
        """SAT over per-cell unread object counts (version-stamped)."""
        self._refresh()
        return self._unread_sat  # type: ignore[return-value]

    @property
    def read_table(self) -> SummedAreaTable:
        """SAT over the cached-cell mask (version-stamped)."""
        self._refresh()
        return self._read_sat  # type: ignore[return-value]

    # -- scalar queries ----------------------------------------------------

    def window_count(self, window: Window) -> float:
        """Exact object count of the window (== naive slice sum)."""
        return self._count_sat.window_sum(window)

    def unread_objects(self, window: Window) -> float:
        """Objects in the window's non-cached cells (== naive slice sum)."""
        if self._stamp == self._data.version:
            return self._unread_sat.window_sum(window)  # type: ignore[union-attr]
        data = self._data
        return float(data.unread_count[data.box(window)].sum())

    def read_cells(self, window: Window) -> int:
        """Number of cached cells inside the window."""
        if self._stamp == self._data.version:
            return int(self._read_sat.window_sum(window))  # type: ignore[union-attr]
        data = self._data
        return int(data.read_mask[data.box(window)].sum())

    def is_read(self, window: Window) -> bool:
        """Whether every cell of the window is cached."""
        if self._stamp == self._data.version:
            read = int(self._read_sat.window_sum(window))  # type: ignore[union-attr]
            return read == window.cardinality
        data = self._data
        return bool(data.read_mask[data.box(window)].all())

    def reduce(self, objective: ContentObjective, window: Window) -> float:
        """Estimated objective value — the Data Manager's ``_reduce``.

        ``count`` is served by the SAT; ``sum``/``avg`` take the slice
        path for the real-valued grid (with the SAT count for ``avg``'s
        denominator); ``min``/``max`` take the slice path entirely.
        """
        data = self._data
        agg = objective.aggregate.name
        if agg == "count":
            return self.window_count(window)
        key = objective.key
        box = data.box(window)
        if agg == "sum":
            return float(data.eff_sum[key][box].sum())
        if agg == "avg":
            count = self.window_count(window)
            if count <= 0:
                return math.nan
            return float(data.eff_sum[key][box].sum() / count)
        if agg == "min":
            value = float(data.eff_min[key][box].min())
            return value if math.isfinite(value) else math.nan
        if agg == "max":
            value = float(data.eff_max[key][box].max())
            return value if math.isfinite(value) else math.nan
        raise ValueError(f"unsupported aggregate {agg!r}")  # pragma: no cover

    # -- batch queries over all placements of a fixed shape ----------------

    def placement_counts(self, lengths: Sequence[int]) -> np.ndarray:
        """Exact object counts of every placement of the shape."""
        return self._count_sat.placement_sums(lengths)

    def placement_unread(self, lengths: Sequence[int]) -> np.ndarray:
        """Unread object counts of every placement of the shape."""
        return self.unread_table.placement_sums(lengths)

    def placement_fully_read(self, lengths: Sequence[int]) -> np.ndarray:
        """Boolean array: which placements are fully cached."""
        cells = self.read_table.placement_sums(lengths)
        return cells >= math.prod(lengths)

    def placement_reduce(
        self, objective: ContentObjective, lengths: Sequence[int]
    ) -> np.ndarray:
        """Objective values of every placement — batch ``reduce``.

        Every entry is bitwise-identical to :meth:`reduce` on the window
        at that placement.
        """
        data = self._data
        agg = objective.aggregate.name
        if agg == "count":
            return self.placement_counts(lengths)
        key = objective.key
        if agg == "sum":
            return _sliding_reduce(data.eff_sum[key], lengths, "sum")
        if agg == "avg":
            counts = self.placement_counts(lengths)
            sums = _sliding_reduce(data.eff_sum[key], lengths, "sum")
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(counts > 0, sums / counts, math.nan)
        if agg == "min":
            values = _sliding_reduce(data.eff_min[key], lengths, "min")
            return np.where(np.isfinite(values), values, math.nan)
        if agg == "max":
            values = _sliding_reduce(data.eff_max[key], lengths, "max")
            return np.where(np.isfinite(values), values, math.nan)
        raise ValueError(f"unsupported aggregate {agg!r}")  # pragma: no cover

    def placement_estimates(
        self,
        objective: ContentObjective,
        lengths: Sequence[int],
        anchor_slab: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Batch form of ``DataManager.estimate`` (noise included).

        Entries follow :func:`placement_bounds` order; ``anchor_slab=(lo,
        hi)`` restricts the placements to first-dimension anchors in
        ``[lo, hi)`` — the distributed workers' per-slab seeding path.
        """
        lo, hi = anchor_slab if anchor_slab is not None else (0, None)
        values = self.placement_reduce(objective, lengths)[lo:hi].reshape(-1)
        noise = self._data.noise
        if noise is None:
            return values
        unread = ~self.placement_fully_read(lengths)[lo:hi].reshape(-1)
        lows, his = placement_bounds(self._data.grid.shape, lengths, anchor_slab)
        return noise.perturb_many(lows, his, values, unread)

    # -- batch queries over arbitrary (mixed-shape) bound arrays -----------

    def _boxes(self, lows: np.ndarray, his: np.ndarray):
        for lo, hi in zip(lows.tolist(), his.tolist()):
            yield tuple(slice(l, h) for l, h in zip(lo, hi))

    def unread_bounds(self, lows: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch :meth:`unread_objects` over ``(P, d)`` bound arrays.

        Same rebuild policy as the scalar query: use the unread SAT when
        it is fresh, otherwise per-row slice sums — both exact for the
        integer-valued grid, so every row is bitwise-identical either way.
        """
        if self._stamp == self._data.version:
            return self._unread_sat.box_sums(lows, his)  # type: ignore[union-attr]
        arr = self._data.unread_count
        return np.array([float(arr[box].sum()) for box in self._boxes(lows, his)])

    def fully_read_bounds(self, lows: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch :meth:`is_read` over ``(P, d)`` bound arrays — which rows a
        noise model perturbs in ``UtilityModel.bounds_profile``."""
        if self._stamp == self._data.version:
            card = np.prod(his - lows, axis=1)
            return self._read_sat.box_sums(lows, his) >= card  # type: ignore[union-attr]
        mask = self._data.read_mask
        return np.array(
            [bool(mask[box].all()) for box in self._boxes(lows, his)], dtype=bool
        )

    def reduce_bounds(
        self, objective: ContentObjective, lows: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`reduce` over ``(P, d)`` bound arrays.

        Unlike ``placement_reduce`` the rows may have *different* shapes
        (a popped window's 2d neighbors, a frontier slice), so the
        real-valued grids use per-row slice reductions — the literal
        scalar computation, hence bitwise-identical — while count-like
        quantities come out of the SAT in one shot.
        """
        data = self._data
        agg = objective.aggregate.name
        if agg == "count":
            return self._count_sat.box_sums(lows, his)
        key = objective.key
        if agg == "sum":
            arr = data.eff_sum[key]
            return np.array([float(arr[box].sum()) for box in self._boxes(lows, his)])
        if agg == "avg":
            counts = self._count_sat.box_sums(lows, his)
            arr = data.eff_sum[key]
            sums = np.array(
                [float(arr[box].sum()) for box in self._boxes(lows, his)]
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(counts > 0, sums / counts, math.nan)
        if agg == "min":
            arr = data.eff_min[key]
            values = np.array(
                [float(arr[box].min()) for box in self._boxes(lows, his)]
            )
            return np.where(np.isfinite(values), values, math.nan)
        if agg == "max":
            arr = data.eff_max[key]
            values = np.array(
                [float(arr[box].max()) for box in self._boxes(lows, his)]
            )
            return np.where(np.isfinite(values), values, math.nan)
        raise ValueError(f"unsupported aggregate {agg!r}")  # pragma: no cover
