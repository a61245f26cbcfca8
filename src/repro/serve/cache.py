"""The cross-query semantic cache: exact cell summaries shared by sessions.

The paper's Data Manager caches objective values *per query*; everything
it learned dies with the query.  Interactive serving inverts that: many
users explore the same tables, and the second user asking about a region
should pay near-zero read cost.  :class:`SemanticCache` is the shared
substrate — exact per-cell summaries and stratified samples, keyed by
``(table signature, grid signature, cell id)``, promoted out of each
session's Data Manager as reads happen and consulted by every other
session over the same table and grid before DBMS I/O is charged.

Two signatures with different invariances keep the sharing sound:

* :func:`table_signature` is **content-based** (placement-independent):
  per-cell aggregates are aggregates of cell *content*, so a summary
  computed against a clustered layout is exact for a shuffled one.
* :func:`physical_signature` hashes the physical row order too: sample
  row ids index into the heap file, so samples are only shareable
  between sessions seeing the same placement.

Entries are exact — promotion happens only after a real read — and
keyed by content, so there is no coherence protocol and no invalidation.
(The one table *rebind*, distributed anchor adoption, happens on worker
Data Managers, which never attach a cache.)  Eviction is LRU over cell
entries under a cell budget, skipping pinned ``(table, grid)`` bindings.

Cells cross the cache as arrays.  Each binding is one dense record over
its grid's flat cell ids (:class:`_Binding`): a recency stamp per cell
(``0`` = absent), the cell's object count, and per objective key a
presence mask plus the sum, min and max.  One tick, shared by every
binding, issues the stamps, so LRU order across bindings is stamp order
(DESIGN.md §12; ``tests/test_serve_cache_oracle.py`` checks the record
against a cache of one payload dict per cell).
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Mapping, Sequence

import numpy as np

from ..core.aggregates import CellStats
from ..core.grid import Grid
from ..core.trace import EventKind
from ..core.window import Window

__all__ = [
    "SemanticCache",
    "table_signature",
    "physical_signature",
    "grid_signature",
]


def table_signature(table) -> str:
    """Content-based signature: equal for any placement of the same rows.

    Hashes each column's values in *sorted* order (sorting erases the
    physical permutation), plus the schema.  Cell summaries keyed by this
    signature are shareable across sessions regardless of layout.
    """
    h = hashlib.sha1()
    h.update(repr(tuple(table.schema.columns)).encode())
    for name in table.schema.columns:
        column = table.column(name)
        h.update(name.encode())
        h.update(memoryview(_sorted_bytes(column)))
    return "t:" + h.hexdigest()


def physical_signature(table) -> str:
    """Placement-dependent signature: equal only for identical heap files.

    Hashes the raw column bytes in physical order and the block size —
    everything a sample's row ids depend on.
    """
    h = hashlib.sha1()
    h.update(repr(tuple(table.schema.columns)).encode())
    h.update(str(table.tuples_per_block).encode())
    for name in table.schema.columns:
        h.update(name.encode())
        h.update(memoryview(table.column(name)))
    return "p:" + h.hexdigest()


def _sorted_bytes(column):
    return np.ascontiguousarray(np.sort(column))


def grid_signature(grid: Grid) -> str:
    """Signature of a grid geometry (area bounds and step vector)."""
    h = hashlib.sha1()
    h.update(repr(grid.key).encode())
    return "g:" + h.hexdigest()


class _Binding:
    """The dense cell record of one ``(table_sig, grid_sig)`` binding.

    Arrays are indexed by flat cell id and hold one spare slot past the
    largest id published so far; that slot is never written, so clipped
    reads of ids beyond the record see an absent cell.
    """

    __slots__ = ("stamps", "counts", "keys", "resident")

    def __init__(self, cells: int) -> None:
        self.stamps = np.zeros(cells + 1, dtype=np.int64)
        self.counts = np.zeros(cells + 1)
        # key -> (present, sums, mins, maxs)
        self.keys: dict[str, tuple[np.ndarray, ...]] = {}
        self.resident = 0

    def fit(self, top: int) -> None:
        """Grow the arrays so flat id ``top`` has a slot (the spare one stays last)."""
        if top < self.stamps.size - 1:
            return

        def grown(arr):
            out = np.zeros(top + 2, dtype=arr.dtype)
            out[: arr.size - 1] = arr[:-1]
            return out

        self.stamps = grown(self.stamps)
        self.counts = grown(self.counts)
        self.keys = {k: tuple(grown(a) for a in v) for k, v in self.keys.items()}

    def key_arrays(self, key: str) -> tuple[np.ndarray, ...]:
        """``(present, sums, mins, maxs)`` for ``key``, made on first use."""
        arrays = self.keys.get(key)
        if arrays is None:
            size = self.stamps.size
            arrays = self.keys[key] = (np.zeros(size, dtype=bool),) + tuple(
                np.zeros(size) for _ in range(3)
            )
        return arrays

    def drop(self, ids: np.ndarray) -> None:
        """Forget the cells ``ids`` (stamp and every key's presence)."""
        self.stamps[ids] = 0
        for present, *_values in self.keys.values():
            present[ids] = False
        self.resident -= ids.size


class SemanticCache:
    """Shared store of exact cell summaries and stratified samples.

    Parameters
    ----------
    budget_cells:
        Maximum resident cell entries; inserting past the budget evicts
        LRU entries of unpinned bindings.  Pinned bindings may hold the
        cache over budget (mirroring the buffer pool's protected blocks).
    metrics / trace:
        Optional serving-side observability.  Counters land under
        ``serve.cache.*`` on the *cache's* registry, never a session's —
        a session's metrics must not depend on who else is running.
        Cross-session hits are recorded as CACHE_SHARE trace events.
    """

    def __init__(self, budget_cells: int = 1 << 20, metrics=None, trace=None) -> None:
        if budget_cells < 1:
            raise ValueError(f"budget_cells must be positive, got {budget_cells}")
        self.budget_cells = budget_cells
        self.metrics = metrics
        self.trace = trace
        # (table_sig, grid_sig) -> dense cell record.
        self._bindings: dict[tuple[str, str], _Binding] = {}
        self._tick = 0
        self._resident = 0
        self._pinned: set[tuple[str, str]] = set()
        # (physical_sig, key tuple) -> CellSample.
        self._samples: dict[tuple, object] = {}
        # A table's source (else the table) -> {signature function:
        # signature}; weak, so the memo keeps no table or source alive.
        self._signatures: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._events = 0

    def attach_observability(self, metrics=None, trace=None) -> None:
        """Late-bind the serving registry/trace (``None`` leaves as-is)."""
        if metrics is not None:
            self.metrics = metrics
        if trace is not None:
            self.trace = trace

    def __len__(self) -> int:
        return self._resident

    # -- signatures --------------------------------------------------------------

    def binding(self, table, grid: Grid) -> tuple[str, str]:
        """The ``(table_signature, grid_signature)`` pair for a query.

        Equal-content tables from different sessions collapse to the same
        signature because it is content-derived.
        """
        return self._signature(table_signature, table), grid_signature(grid)

    def _signature(self, kind, table) -> str:
        """``kind(table)``, hashed once per source.

        Every table placed from one dataset object by one placement and
        block size carries the same ``source`` and holds the same rows in
        the same order, so a served session's fresh table costs no
        re-hash of a dataset an earlier session already hashed.  A table
        without a source is hashed once per table *object* (heap tables
        are immutable).
        """
        owner = table.source if table.source is not None else table
        memo = self._signatures.get(owner)
        if memo is None:
            memo = self._signatures[owner] = {}
        signature = memo.get(kind)
        if signature is None:
            signature = memo[kind] = kind(table)
        return signature

    # -- cell entries ------------------------------------------------------------

    def _stamp(self, n: int) -> np.ndarray:
        """``n`` fresh recency stamps, oldest first."""
        tick = self._tick
        self._tick = tick + n
        return np.arange(tick + 1, tick + 1 + n)

    def consult(
        self,
        table_sig: str,
        grid_sig: str,
        flat_ids: np.ndarray,
        require: Sequence[str] = (),
        window: Window | None = None,
    ) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Exact summaries for the requested (distinct) cells, where known.

        Returns ``(hit_ids, {key: (sums, mins, maxs)})`` for every key in
        ``require``, aligned with ``hit_ids`` in request order.  Only
        entries carrying *every* objective in ``require`` count as hits
        — a payload published by a query with different objectives must
        not be installed as if the missing objectives were empty.  Hits
        refresh LRU recency in request order; a consult with at least
        one hit is one CACHE_SHARE trace event.
        """
        ids = np.asarray(flat_ids, dtype=np.int64)
        requested = ids.size
        hit_ids = ids[:0]
        values: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        record = self._bindings.get((table_sig, grid_sig))
        if record is not None and requested:
            hit = record.stamps.take(ids, mode="clip") != 0
            for key in require:
                arrays = record.keys.get(key)
                if arrays is None:
                    hit[:] = False
                    break
                hit &= arrays[0].take(ids, mode="clip")
            hits = int(np.count_nonzero(hit))
            if hits:
                hit_ids = ids if hits == requested else ids[hit]
                record.stamps[hit_ids] = self._stamp(hits)
                for key in require:
                    _present, sums, mins, maxs = record.keys[key]
                    values[key] = (sums[hit_ids], mins[hit_ids], maxs[hit_ids])
        found = hit_ids.size
        m = self.metrics
        if m is not None:
            m.inc("serve.cache.lookup_cells", float(requested))
            m.inc("serve.cache.hit_cells", float(found))
            m.inc("serve.cache.miss_cells", float(requested - found))
        if found and self.trace is not None:
            self._events += 1
            self.trace.record(
                EventKind.CACHE_SHARE,
                float(self._events),
                window,
                cells=found,
                requested=requested,
                table=table_sig[:10],
            )
        return hit_ids, values

    def publish(
        self,
        table_sig: str,
        grid_sig: str,
        ids: np.ndarray,
        counts: np.ndarray,
        per_key: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Promote freshly read cells into the shared store.

        ``ids`` are distinct flat cell ids; ``counts`` their object
        counts and ``per_key`` maps objective keys to aligned
        ``(sums, mins, maxs)``.  Re-publishing a known cell refreshes
        its recency and merges its objectives (values are exact, so any
        publisher's summary for the same cell and objective agrees); new
        cells may trigger LRU eviction.  Recency follows ``ids`` order.
        """
        ids = np.asarray(ids, dtype=np.int64)
        inserted = 0
        if ids.size:
            record = self._bindings.get((table_sig, grid_sig))
            if record is None:
                record = self._bindings[(table_sig, grid_sig)] = _Binding(int(ids.max()) + 1)
            else:
                record.fit(int(ids.max()))
            inserted = int(np.count_nonzero(record.stamps[ids] == 0))
            record.stamps[ids] = self._stamp(ids.size)
            record.counts[ids] = counts
            for key, (sums, mins, maxs) in per_key.items():
                present, key_sums, key_mins, key_maxs = record.key_arrays(key)
                present[ids] = True
                key_sums[ids] = sums
                key_mins[ids] = mins
                key_maxs[ids] = maxs
            record.resident += inserted
            self._resident += inserted
        evicted = self._evict_to_budget()
        m = self.metrics
        if m is not None:
            m.inc("serve.cache.promoted_cells", float(ids.size))
            m.inc("serve.cache.inserted_cells", float(inserted))
            m.inc("serve.cache.refreshed_cells", float(ids.size - inserted))
            if evicted:
                m.inc("serve.cache.evicted_cells", float(evicted))
            m.gauge("serve.cache.resident_cells").set(float(self._resident))

    def _evict_to_budget(self) -> int:
        """Drop the oldest unpinned cells until the budget holds (or none are left)."""
        excess = self._resident - self.budget_cells
        if excess <= 0:
            return 0
        candidates = []
        for key, record in self._bindings.items():
            if key not in self._pinned:
                cells = np.flatnonzero(record.stamps)
                candidates.append((key, record, cells, record.stamps[cells]))
        ages = np.concatenate([c[3] for c in candidates]) if candidates else ()
        if not len(ages):
            return 0
        # Stamps are unique, so the excess oldest are those at or below
        # the excess-th smallest stamp.
        cutoff = np.partition(ages, excess - 1)[excess - 1] if excess < len(ages) else ages.max()
        evicted = 0
        for key, record, cells, stamps in candidates:
            victims = cells[stamps <= cutoff]
            if victims.size:
                record.drop(victims)
                evicted += victims.size
                if not record.resident:
                    del self._bindings[key]
        self._resident -= evicted
        return evicted

    def entry(self, table_sig: str, grid_sig: str, flat_id: int) -> dict[str, CellStats] | None:
        """One resident cell as ``{key: CellStats}``, or ``None`` (introspection).

        Does not touch recency.  ``count`` of every summary is the cell's
        object count, as the Data Manager's per-cell payloads carry it.
        """
        record = self._bindings.get((table_sig, grid_sig))
        if record is None or flat_id >= record.stamps.size - 1 or not record.stamps[flat_id]:
            return None
        count = int(record.counts[flat_id])
        return {
            key: CellStats(count, float(sums[flat_id]), float(mins[flat_id]), float(maxs[flat_id]))
            for key, (present, sums, mins, maxs) in sorted(record.keys.items())
            if present[flat_id]
        }

    # -- pinning -----------------------------------------------------------------

    def pin(self, table_sig: str, grid_sig: str) -> None:
        """Exempt a binding's entries from eviction (live hot session)."""
        self._pinned.add((table_sig, grid_sig))

    def unpin(self, table_sig: str, grid_sig: str) -> None:
        """Release a :meth:`pin`; over-budget entries become evictable."""
        self._pinned.discard((table_sig, grid_sig))
        evicted = self._evict_to_budget()
        if evicted and self.metrics is not None:
            self.metrics.inc("serve.cache.evicted_cells", float(evicted))
            self.metrics.gauge("serve.cache.resident_cells").set(float(self._resident))

    # -- sample store ---------------------------------------------------------------

    def sample_lookup(self, table, key: tuple):
        """A stored stratified sample for this physical table, or ``None``.

        Samples are keyed by :func:`physical_signature` — their row ids
        are positions in the heap file, so only sessions over an
        identical placement may share them.
        """
        sample = self._samples.get((self._signature(physical_signature, table), key))
        if self.metrics is not None:
            self.metrics.inc("serve.cache.sample_lookups")
            if sample is not None:
                self.metrics.inc("serve.cache.sample_hits")
        return sample

    def sample_publish(self, table, key: tuple, sample) -> None:
        """Store a freshly built sample for other sessions."""
        self._samples[(self._signature(physical_signature, table), key)] = sample
        if self.metrics is not None:
            self.metrics.inc("serve.cache.sample_stores")

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Resident entry counts and budget, for reports."""
        return {
            "resident_cells": self._resident,
            "budget_cells": self.budget_cells,
            "pinned_bindings": len(self._pinned),
            "samples": len(self._samples),
        }
