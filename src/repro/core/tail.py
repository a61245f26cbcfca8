"""The no-result tail of an exhaustive search (DESIGN.md §13, "The no-result tail").

Algorithm 1 reports completion only after exploring its whole
shape-bounded search space.  Once every cell has been read, every
estimate is exact and every cost term is 1, so no window's priority can
change again — and once the exact cells show that every qualifying window
has already been reported, the rest of the run finds nothing.  From that
point :func:`replay_tail` finishes the run without stepping:

* every window's final ``(utility, benefit)`` comes from one
  ``UtilityModel.placement_profile`` pass per shape, bitwise equal to the
  per-window scorer;
* a ``heapq`` of ``(neg_u, neg_b, seq, ...)`` entries replays the
  frontier's pop order (``seq`` stamps are unique, so the order is the
  queue's), with the lazy check against the next head and the neighbour
  walk's caps and dedup order of ``SteppingCore._generate_neighbors``;
* each explored window advances the clock by ``sw_window_s``, one
  addition per window as stepping does.

The counters come out as stepping leaves them: the run's
``lazy_reinserts`` depend on the pop order, which is why this replays the
order rather than summing a closure.  The queue is left consumed, its
insertion stamp advanced past every push the tail made.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import add, mul, sub
from typing import TYPE_CHECKING

import numpy as np

from ..dbms.executor import CellGrids, _shapes, qualifying_masks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .search import HeuristicSearch

__all__ = ["QUIET_EXPLORATIONS", "nothing_left", "replay_tail"]

#: Explorations without a result, once every cell is read, before a run
#: asks :func:`nothing_left`.  A run still finding results would fail the
#: proof: the ten-result peeks of the SDSS queries read every cell within
#: their first 4-22 explorations, then find results at most 190 apart.
#: A failed proof costs what stepping about 80 tail windows does on the
#: synthetic 20x20 grid (1.2 ms against 14.7 us a window) and about 420
#: on the 100x100 one (6.6 ms against 15.9 us; a shared 2-vCPU Xeon,
#: Python 3.11), so a run that waits this stretch out and then fails the
#: proof loses at most about 1.6 times the wait.  Chosen on these two
#: grids and the ledger's workloads; how well it suits other grids and
#: queries is not measured.
QUIET_EXPLORATIONS = 256


def nothing_left(search: "HeuristicSearch") -> bool:
    """Whether the exact cells prove the search has found every result.

    Every cell must be read.  The SQL baseline's per-shape filter
    (:func:`~repro.dbms.executor.qualifying_masks`, the core of
    ``enumerate_windows_filtered``) then runs over the Data Manager's
    exact grids — the values the search validates against — and must
    qualify exactly the windows already reported.  It stops at the first
    qualifying window that is not, so a query with results still to find
    pays only for the shapes up to that window.
    The minimal shape, which every seed has, must lie in that space, and
    the frontier must have room for every window not yet generated, so
    that the tail would never spill.
    """
    data = search.data
    if not data.read_mask.all():
        return False
    # Seeds have the minimal shape; the enumerator's space must hold it.
    grid_shape = search.grid.shape
    mins, maxs, max_card = search._min_lengths, search._max_lengths, search._max_card
    if any(m > min(cap, size) for m, cap, size in zip(mins, maxs, grid_shape)) or (
        max_card is not None and math.prod(mins) > max_card
    ):
        return False
    cells = CellGrids(data.true_count, data.eff_sum, data.eff_min, data.eff_max)
    found = {(r.window.lo, r.window.hi) for r in search._results}
    unmatched = len(found)
    space = 0
    for shape, placements, mask, _ in qualifying_masks(search.query, cells):
        space += placements
        if mask is None:
            continue
        for lo in zip(*(axis.tolist() for axis in np.nonzero(mask))):
            if (lo, tuple(map(add, lo, shape))) not in found:
                return False
            unmatched -= 1
    if unmatched:
        return False
    room = search.config.head_capacity - len(search.queue)
    return space - search.stats.generated <= room


class _Shape:
    """One window shape of the search space: its placements' final
    priorities, negated, and how its windows extend."""

    __slots__ = ("neg_u", "neg_b", "strides", "grow")

    def __init__(self, neg_u, neg_b, strides) -> None:
        self.neg_u = neg_u  # flat, in placement order
        self.neg_b = neg_b
        self.strides = strides  # a placement's flat index is sum(lo * strides)
        # Per dimension the shape does not fill, in order: (d, the shape
        # one longer in d or None when capped, m_lo[d], m_hi[d], grid size).
        self.grow: list[tuple] = []


def _shape_table(search: "HeuristicSearch") -> dict[tuple[int, ...], _Shape]:
    """Every shape of the search space, scored and linked to its extensions."""
    grid_shape = search.grid.shape
    model = search.utility_model
    max_lengths = search._max_lengths
    max_card = search._max_card
    table: dict[tuple[int, ...], _Shape] = {}
    for lengths in _shapes(grid_shape, search._min_lengths, max_lengths, max_card):
        benefits, cost_terms = model.placement_profile(lengths)
        counts = [size - length + 1 for size, length in zip(grid_shape, lengths)]
        strides = tuple(math.prod(counts[d + 1 :]) for d in range(len(counts)))
        table[lengths] = _Shape(
            memoryview(-model.combine(benefits, cost_terms)),
            memoryview(-benefits),
            strides,
        )
    m_lo, m_hi = search.grid.key_multipliers
    for lengths, shape in table.items():
        for d, (length, size) in enumerate(zip(lengths, grid_shape)):
            if length == size:
                continue  # neither side can grow: the walk skips d
            # The walk's caps (``max_lengths``, ``max_card``) are the
            # space's bounds: a neighbour is capped iff its shape is not
            # in the table.
            child = table.get(lengths[:d] + (length + 1,) + lengths[d + 1 :])
            shape.grow.append((d, child, m_lo[d], m_hi[d], size))
    return table


def replay_tail(search: "HeuristicSearch") -> None:
    """Finish ``search``'s frontier as stepping would, without stepping.

    Call only once :func:`nothing_left` holds on a serial search with no
    trace, registry, lifecycle limit, diversification, noise, pruning or
    scrubber, on the serial tier's whole-grid data and anchor range
    (``HeuristicSearch._tail_is_replayable``).  Leaves the clock,
    ``SearchStats``, dedup set and queue as stepping to the empty
    frontier leaves them; the step that called it then ends the run.
    """
    table = _shape_table(search)
    queue = search.queue
    version = search.data.version
    lazy = search.config.lazy_updates
    m_lo, m_hi = search.grid.key_multipliers

    heap = []
    for nu, nb, seq, lo, hi, ver in queue.take_head():
        key = sum(map(mul, lo, m_lo)) + sum(map(mul, hi, m_hi))
        shape = table[tuple(map(sub, hi, lo))]
        heap.append((nu, nb, seq, key, lo, hi, shape, lazy and ver < version))
    heapify(heap)

    generated = search._generated
    advance = search.data.clock.advance
    dt = search.cost_model.sw_window_s()
    seq0 = seq = queue.next_seq
    explored = rescored = reinserted = capped = 0
    while heap:
        _, _, _, key, lo, hi, shape, stale = heappop(heap)
        if stale:
            # The lazy update: re-scored, the entry goes back behind a
            # better head.
            rescored += 1
            p = sum(map(mul, lo, shape.strides))
            nu = shape.neg_u[p]
            nb = shape.neg_b[p]
            if heap:
                top = heap[0]
                if (-nu, -nb) < (-top[0], -top[1]):
                    heappush(heap, (nu, nb, seq, key, lo, hi, shape, False))
                    seq += 1
                    reinserted += 1
                    continue
        advance(dt)
        explored += 1
        for d, child, mlo, mhi, size in shape.grow:
            start = lo[d]
            end = hi[d]
            if child is None:
                capped += (start > 0) + (end < size)
                continue
            if start > 0:
                k = key - mlo
                if k not in generated:
                    generated.add(k)
                    p = sum(map(mul, lo, child.strides)) - child.strides[d]
                    nlo = lo[:d] + (start - 1,) + lo[d + 1 :]
                    heappush(heap, (child.neg_u[p], child.neg_b[p], seq, k, nlo, hi, child, False))
                    seq += 1
            if end < size:
                k = key + mhi
                if k not in generated:
                    generated.add(k)
                    p = sum(map(mul, lo, child.strides))
                    nhi = hi[:d] + (end + 1,) + hi[d + 1 :]
                    heappush(heap, (child.neg_u[p], child.neg_b[p], seq, k, lo, nhi, child, False))
                    seq += 1

    pushed = seq - seq0 - reinserted
    queue.skip_seqs(seq - seq0)
    stats = search.stats
    stats.explored += explored
    stats.generated += pushed
    stats.estimates += rescored + pushed
    stats.lazy_reinserts += reinserted
    stats.capped_extensions += capped
