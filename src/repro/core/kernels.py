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
  bump invalidates them, and the next query that needs one refills both
  in place (the refill policy on :class:`DataKernels`).  The
  ``true_count`` table is built once — exact counts never change.

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
  boxes breaks exact utility ties.  A real-valued window sum is instead
  *numpy's pairwise sum of the box's cells in row-major order*, which
  is what ``eff_sum[key][box].sum()`` computes for a box of up to
  ``_SLIDING_MAX_CELLS`` cells.  The scalar path
  (:meth:`DataKernels.window_sum`) reproduces it in Python over a flat
  memoryview of the grid: :func:`box_offsets` lists the cells in
  row-major order and :func:`pairwise_sum` adds them in numpy's order,
  so no numpy call is made per window.  The batch path
  (:func:`sliding_reduce`) copies each placement's cells into one
  contiguous row, which numpy sums in the same order.  Both hand a box
  over ``_SLIDING_MAX_CELLS`` cells to numpy's slice sum, and the scalar
  path does so above ``_SCALAR_SUM_MAX_CELLS`` cells, where numpy's C
  loop is the faster of two equal answers.  ``min``/``max`` are
  order-insensitive, so their sliding reductions are trivially exact;
  single-window ``min``/``max`` keep numpy's slice reduction, which
  propagates NaN.

The one real-valued SAT user is the SQL baseline
(``repro.dbms.executor``), whose reference is a per-window
inclusion-exclusion sum over zero-padded prefix sums, not a slice
reduction.  ``placement_sums`` / ``box_sums`` (and the n-d ``box_sum``)
add the 2^d corners in that reference's order — ``itertools.product((0,
1), repeat=d)``, dim 0 most significant, starting from zero — and
subtracting a corner rounds exactly as adding its negation, so every
value is the reference's bit for bit.  The 1-d/2-d scalar fast paths
serve only the integer-valued search tables, where any order is exact.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from operator import add, itemgetter, mul, sub
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conditions import ContentObjective
from .window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .datamanager import DataManager

__all__ = [
    "SummedAreaTable",
    "DataKernels",
    "box_offsets",
    "pairwise_sum",
    "placement_bounds",
    "sliding_reduce",
]

# Above this many cells per window the sliding-window batch falls back to
# per-placement slice reductions: numpy's buffered reduction may chunk
# very long rows differently from a contiguous copy, voiding the
# bitwise-parity guarantee (and the copies would be huge anyway).
_SLIDING_MAX_CELLS = 4096

# Cap on the temporary copy made by one sliding-window chunk (floats).
_SLIDING_CHUNK_ELEMS = 1 << 22

# Above this many cells a scalar window sum goes to numpy: past it one C
# reduction beats the Python accumulators (both give the same bits).
_SCALAR_SUM_MAX_CELLS = 16

#: A compiled per-window reader: the value of the box ``[lo, hi)``.
Reader = Callable[[Sequence[int], Sequence[int]], float]


def pairwise_sum(cells: Sequence[float]) -> float:
    """numpy's float64 sum of at most 128 ``cells``, bit for bit.

    numpy's ``pairwise_sum`` adds fewer than 8 values one after the
    other; from 8 up to 128 it keeps eight accumulators over cells ``j,
    j + 8, ...`` (the whole multiples of 8), combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    remainder in order.  The reduction then adds that to ``add``'s
    identity ``+0.0``.  Starting the short sum from ``-0.0`` is exact for
    every first value, so only the final ``0.0 +`` turns an all-``-0.0``
    sum into ``+0.0``, as numpy's does.
    """
    n = len(cells)
    if n < 8:
        return 0.0 + reduce(add, cells, -0.0)
    r0, r1, r2, r3, r4, r5, r6, r7 = cells[:8]
    m = n - n % 8
    if m > 8:
        for i in range(8, m, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = cells[i : i + 8]
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
    return 0.0 + reduce(add, cells[m:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))


def box_offsets(lengths: Sequence[int], strides: Sequence[int]) -> list[int]:
    """Flat offsets of a box's cells from its first cell, row-major.

    The one row walk of 1-, 2- and n-d boxes: ``strides`` are the grid's
    C-order element strides, so the offsets list the cells in the order
    numpy's slice sum visits them.
    """
    offsets = [0]
    for length, stride in zip(lengths, strides):
        offsets = [o + k for o in offsets for k in range(0, length * stride, stride)]
    return offsets


@lru_cache(maxsize=1024)
def _cell_getter(lengths: tuple[int, ...], strides: tuple[int, ...]) -> itemgetter | None:
    """An itemgetter of a box's cells from its first cell, or ``None``
    above ``_SCALAR_SUM_MAX_CELLS``.

    A pure function of the box shape and the grid's strides, so every
    kernel set over one grid shape shares it — each served session builds
    its own kernel set over the same grid.
    """
    cells = math.prod(lengths)
    if cells > _SCALAR_SUM_MAX_CELLS:
        return None
    if cells == 1:  # a sequence, like every other box's cells
        return itemgetter(slice(0, 1))
    return itemgetter(*box_offsets(lengths, strides))


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
        self.table = np.zeros(tuple(s + 1 for s in values.shape), dtype=np.float64)
        # (sign, hi-selector) per corner of the inclusion-exclusion, dim 0
        # most significant: real-valued sums depend on this order.
        self._corners = [
            ((-1) ** (self.ndim - sum(corner)), corner)
            for corner in itertools.product((0, 1), repeat=self.ndim)
        ]
        #: The compiled box sum ``(lo, hi) -> float`` that :meth:`box_sum`
        #: and every kernel reader call.
        self.reader = self._compile_reader()
        self.refill(values)

    def refill(self, values: np.ndarray) -> None:
        """Recompute the table from same-shape ``values``, in place.

        One ``cumsum`` per axis into the array already allocated: no new
        array, corner list or object, and the zero planes stay zero, so
        the result is byte-equal to a table freshly built over ``values``.
        """
        table = self.table
        table[(slice(1, None),) * self.ndim] = values
        for axis in range(self.ndim):
            np.cumsum(table, axis=axis, out=table)

    def _compile_reader(self) -> Reader:
        """The box sum of this table's rank, as one closure.

        Corner reads return Python floats: 1-d and 2-d ones index a flat
        memoryview of the table (no numpy call per corner) with the 2-d
        corner arithmetic inline, higher ranks call ``item`` per corner.
        The table is only ever refilled in place, so both stay valid.
        """
        flat = memoryview(self.table.reshape(-1))
        if self.ndim == 2:
            width = self.table.shape[1]

            def box_sum_2d(lo: Sequence[int], hi: Sequence[int]) -> float:
                l0, l1 = lo
                h0, h1 = hi
                top = h0 * width
                bottom = l0 * width
                return flat[top + h1] - flat[bottom + h1] - flat[top + l1] + flat[bottom + l1]

            return box_sum_2d
        if self.ndim == 1:
            return lambda lo, hi: flat[hi[0]] - flat[lo[0]]
        item = self.table.item
        corners = self._corners

        def box_sum_nd(lo: Sequence[int], hi: Sequence[int]) -> float:
            total = 0.0
            for sign, corner in corners:
                total += sign * item(tuple(h if c else l for l, h, c in zip(lo, hi, corner)))
            return total

        return box_sum_nd

    def box_sum(self, lo: Sequence[int], hi: Sequence[int]) -> float:
        """Sum over the half-open box ``[lo, hi)`` — O(2^d) lookups."""
        return self.reader(lo, hi)

    def box_sums(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`box_sum` over ``(P, d)`` bound arrays."""
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        out = np.zeros(len(lo), dtype=np.float64)
        for sign, corner in self._corners:
            idx = tuple((hi if c else lo)[:, d] for d, c in enumerate(corner))
            (np.add if sign > 0 else np.subtract)(out, self.table[idx], out=out)
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
        for sign, corner in self._corners:
            box = (slice(l * c, l * c + n) for l, c, n in zip(lengths, corner, counts))
            (np.add if sign > 0 else np.subtract)(out, self.table[tuple(box)], out=out)
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


def sliding_reduce(values: np.ndarray, lengths: Sequence[int], op: str) -> np.ndarray:
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
    from summed-area tables; ``sum``/``avg`` single-window queries by
    :meth:`window_sum`, and ``min``/``max`` by numpy slice reductions
    (prefix sums cannot serve extrema).  ``placement_*`` methods
    evaluate *every* start-window placement of a fixed shape at once.

    **Compiled readers.**  What a query fixes — the aggregate of each
    objective, its grids and flat views, the grid's rank — is resolved
    once per kernel set, into closures ``(lo, hi) -> value``:
    :attr:`unread` and :attr:`fully_read` (the count queries that read
    the mutable tables, each refilling them first if stale),
    :meth:`reader` per objective and :meth:`validator` per list of
    conditions.  :meth:`reduce`, :meth:`is_read`, :meth:`window_sum`
    and ``UtilityModel.score`` are views over them.

    **Exactness.**  A real-valued window sum is numpy's pairwise sum of
    the box's cells in row-major order, bit for bit: the scalar path
    computes it in Python over a flat view of the C-contiguous float64
    grid, the batch path through contiguous copies, and both hand boxes
    over ``_SLIDING_MAX_CELLS`` cells to numpy (the scalar path those
    over ``_SCALAR_SUM_MAX_CELLS``).  The module docstring has the
    argument.

    **Refill policy.**  The ``true_count`` table is static and built
    once.  The mutable tables (``unread_count``, ``read_mask``) go stale
    whenever a read or an install bumps ``DataManager.version``; the next
    query that reads one — a count query or a ``placement_*`` batch —
    refills both in place first (:meth:`SummedAreaTable.refill`), and
    every later query reads them until the next bump.  A table lookup
    saves ~1.9 µs over a slice reduction and a refill costs ~21 µs at
    20x20 and ~170 µs at 100x100, so this pays when a search asks more
    count queries per bump than the grid's break-even, about 11 and 89
    (DESIGN.md §8 has the figures, and the fine-grid cost).
    ``rebuilds`` counts the refills.

    **Lifetime.**  A kernel set lives as long as its Data Manager, which
    writes every grid in place: its tables, flat views and compiled
    readers stay valid through any read, install or checkpoint restore.
    A restore rewinds ``DataManager.version`` to the capture's, which the
    tables may already carry, so it calls :meth:`invalidate` instead.
    """

    def __init__(self, data: "DataManager") -> None:
        self._data = data
        # Exact counts never change after construction — one table, ever.
        self._count_sat = SummedAreaTable(data.true_count)
        self._unread_sat = SummedAreaTable(data.unread_count)
        self._read_sat = SummedAreaTable(data.read_mask)
        self._stamp = data.version
        self.rebuilds = 0
        shape = data.true_count.shape
        self._strides = tuple(math.prod(shape[d + 1 :]) for d in range(len(shape)))
        # Per box shape: its cells' itemgetter (module-level cache), or None
        # above _SCALAR_SUM_MAX_CELLS.  Keyed by the shape alone, before the
        # shared cache's (shape, strides) key.
        self._box_cells: dict[tuple[int, ...], itemgetter | None] = {}
        # Compiled readers per (aggregate, key), and the last validation
        # pass with the condition list it was built for.
        self._readers: dict[tuple[str, str], Reader] = {}
        self._validation: tuple = (None, None)
        self.unread, self.fully_read = self._compile_count_reads()

    # -- cache maintenance -------------------------------------------------

    def _refresh(self) -> None:
        data = self._data
        if self._stamp == data.version:
            return
        self._unread_sat.refill(data.unread_count)
        self._read_sat.refill(data.read_mask)
        self._stamp = data.version
        self.rebuilds += 1

    def invalidate(self) -> None:
        """Mark the mutable tables stale whatever the version; the next
        query refills them in place (a checkpoint restore calls this)."""
        self._stamp = None

    @property
    def count_table(self) -> SummedAreaTable:
        """SAT over the exact per-cell counts (static)."""
        return self._count_sat

    @property
    def unread_table(self) -> SummedAreaTable:
        """SAT over per-cell unread object counts (version-stamped)."""
        self._refresh()
        return self._unread_sat

    @property
    def read_table(self) -> SummedAreaTable:
        """SAT over the cached-cell mask (version-stamped)."""
        self._refresh()
        return self._read_sat

    # -- compiled readers --------------------------------------------------

    def _compile_count_reads(self) -> tuple[Reader, Callable[..., bool]]:
        """``(unread, fully_read)``: the window's unread objects and whether
        every cell of it is cached, each refilling stale tables first."""
        data = self._data
        refresh = self._refresh
        if self._read_sat.ndim == 2:  # the corner arithmetic inline
            unread_flat = memoryview(self._unread_sat.table.reshape(-1))
            read_flat = memoryview(self._read_sat.table.reshape(-1))
            width = self._read_sat.table.shape[1]

            def unread(lo: Sequence[int], hi: Sequence[int]) -> float:
                if self._stamp != data.version:
                    refresh()
                l0, l1 = lo
                h0, h1 = hi
                top = h0 * width
                bottom = l0 * width
                return (
                    unread_flat[top + h1] - unread_flat[bottom + h1]
                    - unread_flat[top + l1] + unread_flat[bottom + l1]
                )

            def fully_read(lo: Sequence[int], hi: Sequence[int]) -> bool:
                if self._stamp != data.version:
                    refresh()
                l0, l1 = lo
                h0, h1 = hi
                top = h0 * width
                bottom = l0 * width
                return (
                    read_flat[top + h1] - read_flat[bottom + h1]
                    - read_flat[top + l1] + read_flat[bottom + l1]
                ) == (h0 - l0) * (h1 - l1)

            return unread, fully_read
        unread_box = self._unread_sat.reader
        read_box = self._read_sat.reader

        def unread(lo: Sequence[int], hi: Sequence[int]) -> float:
            if self._stamp != data.version:
                refresh()
            return unread_box(lo, hi)

        def fully_read(lo: Sequence[int], hi: Sequence[int]) -> bool:
            if self._stamp != data.version:
                refresh()
            return read_box(lo, hi) == math.prod(map(sub, hi, lo))

        return unread, fully_read

    def reader(self, objective: ContentObjective) -> Reader:
        """The compiled window reader of ``objective``: ``(lo, hi) ->`` the
        Data Manager's estimate before noise, built once per kernel set.

        ``count`` is served by the SAT; ``sum``/``avg`` by numpy's pairwise
        sum over the real-valued grid (with the SAT count for ``avg``'s
        denominator); ``min``/``max`` take the slice path, which
        propagates NaN.
        """
        return self._reader(objective.aggregate.name, objective.key)

    def _reader(self, agg: str, key: str) -> Reader:
        read = self._readers.get((agg, key))
        if read is None:
            read = self._readers[agg, key] = self._compile_reader(agg, key)
        return read

    def _compile_reader(self, agg: str, key: str) -> Reader:
        if agg == "count":
            return self._count_sat.reader
        if agg in ("sum", "avg"):
            return self._compile_window_sum(key, average=agg == "avg")
        if agg not in ("min", "max"):
            raise ValueError(f"unsupported aggregate {agg!r}")  # pragma: no cover
        data = self._data
        grid = (data.eff_min if agg == "min" else data.eff_max)[key]
        extremum = np.ndarray.min if agg == "min" else np.ndarray.max
        isfinite = math.isfinite

        def read_extremum(lo: Sequence[int], hi: Sequence[int]) -> float:
            value = float(extremum(grid[tuple(map(slice, lo, hi))]))
            return value if isfinite(value) else math.nan

        return read_extremum

    def _compile_window_sum(self, key: str, average: bool) -> Reader:
        """``eff_sum[key]``'s window sum — over the SAT count if ``average``.

        The Data Manager only ever writes its grids in place, so a flat
        view of the grid stays current; a grid that is not C-contiguous
        float64 gets no view and keeps numpy's slice sum.  A 2-d box's
        shape and first-cell offset are plain arithmetic on its bounds.
        """
        grid = self._data.eff_sum[key]
        count = self._count_sat.reader
        nan = math.nan

        def slice_sum(lo: Sequence[int], hi: Sequence[int]) -> float:
            return float(grid[tuple(map(slice, lo, hi))].sum())

        flat = None
        if grid.dtype == np.float64 and grid.flags.c_contiguous:
            flat = memoryview(grid.reshape(-1))
        strides = self._strides
        two_d = len(strides) == 2
        row = strides[0]
        box_cells = self._box_cells

        def window_sum(lo: Sequence[int], hi: Sequence[int]) -> float:
            if average:
                n = count(lo, hi)
                if n <= 0:
                    return nan
            if two_d:
                l0, l1 = lo
                h0, h1 = hi
                lengths = (h0 - l0, h1 - l1)
            else:
                lengths = tuple(map(sub, hi, lo))
            try:
                cells = box_cells[lengths]
            except KeyError:
                cells = box_cells[lengths] = _cell_getter(lengths, strides)
            if cells is None or flat is None:
                total = slice_sum(lo, hi)
            else:
                start = l0 * row + l1 if two_d else sum(map(mul, lo, strides))
                total = pairwise_sum(cells(flat[start:]))
            return total / n if average else total

        return window_sum

    def validator(self, conditions) -> Callable[[Window], dict[str, float] | None]:
        """The compiled validation pass of ``conditions`` — the Data
        Manager's ``exact_values``, as ``window -> {label: value} | None``.

        ``conditions`` are ``(condition, label)`` pairs; the pass is
        rebuilt only when a different list arrives, as a search validates
        every window against its one list.  A list must not change after
        it was first validated.
        """
        built, validate = self._validation
        if built is not conditions:
            validate = self._compile_validation(conditions)
            self._validation = (conditions, validate)
        return validate

    def _compile_validation(self, conditions) -> Callable:
        fully_read = self.fully_read
        steps = [
            (label, self.reader(cond.objective), cond.op.test, cond.value)
            for cond, label in conditions
        ]

        def validate(window: Window) -> dict[str, float] | None:
            lo = window.lo
            hi = window.hi
            if not fully_read(lo, hi):
                raise ValueError(f"window {window!r} has unread cells; read it first")
            values: dict[str, float] = {}
            for label, read, test, threshold in steps:
                value = values.get(label)
                if value is None:
                    value = values[label] = read(lo, hi)
                if not test(value, threshold):
                    return None
            return values

        return validate

    # -- scalar queries ----------------------------------------------------

    def window_count(self, window: Window) -> float:
        """Exact object count of the window (== naive slice sum)."""
        return self._count_sat.reader(window.lo, window.hi)

    def unread_objects(self, window: Window) -> float:
        """Objects in the window's non-cached cells (== naive slice sum)."""
        return self.unread(window.lo, window.hi)

    def read_cells(self, window: Window) -> int:
        """Number of cached cells inside the window."""
        self._refresh()
        return int(self._read_sat.reader(window.lo, window.hi))

    def is_read(self, window: Window) -> bool:
        """Whether every cell of the window is cached."""
        return self.fully_read(window.lo, window.hi)

    def reduce(self, objective: ContentObjective, window: Window) -> float:
        """Estimated objective value — the Data Manager's ``_reduce``,
        through the objective's compiled :meth:`reader`."""
        return self.reader(objective)(window.lo, window.hi)

    def window_sum(self, key: str, lo: Sequence[int], hi: Sequence[int]) -> float:
        """``float(eff_sum[key][box].sum())`` for the box ``[lo, hi)``, bit
        for bit, without a numpy call up to ``_SCALAR_SUM_MAX_CELLS``.

        The box's cells are read from the grid's flat view in row-major
        order (:func:`box_offsets`, one itemgetter per box shape) and
        added in numpy's order (:func:`pairwise_sum`).
        """
        return self._reader("sum", key)(lo, hi)

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
            return sliding_reduce(data.eff_sum[key], lengths, "sum")
        if agg == "avg":
            counts = self.placement_counts(lengths)
            sums = sliding_reduce(data.eff_sum[key], lengths, "sum")
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(counts > 0, sums / counts, math.nan)
        if agg == "min":
            values = sliding_reduce(data.eff_min[key], lengths, "min")
            return np.where(np.isfinite(values), values, math.nan)
        if agg == "max":
            values = sliding_reduce(data.eff_max[key], lengths, "max")
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

    def unread_bounds(self, lows: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch :meth:`unread_objects` over ``(P, d)`` bound arrays."""
        self._refresh()
        return self._unread_sat.box_sums(lows, his)

    def fully_read_bounds(self, lows: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Batch :meth:`is_read` over ``(P, d)`` bound arrays — which rows a
        noise model perturbs in ``UtilityModel.bounds_profile``."""
        self._refresh()
        return self._read_sat.box_sums(lows, his) >= np.prod(his - lows, axis=1)

    def reduce_bounds(
        self, objective: ContentObjective, lows: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`reduce` over ``(P, d)`` bound arrays.

        Unlike ``placement_reduce`` the rows may have *different* shapes
        (a popped window's 2d neighbors, a frontier slice), so the
        real-valued aggregates call the objective's compiled
        :meth:`reader` per row — hence bitwise-identical — while counts
        come out of the SAT in one shot.
        """
        if objective.aggregate.name == "count":
            return self._count_sat.box_sums(lows, his)
        read = self.reader(objective)
        return np.array(
            [read(lo, hi) for lo, hi in zip(lows.tolist(), his.tolist())], dtype=np.float64
        )
