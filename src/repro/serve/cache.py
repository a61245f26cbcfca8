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
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Mapping, Sequence

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
    import numpy as np

    return np.ascontiguousarray(np.sort(column))


def grid_signature(grid: Grid) -> str:
    """Signature of a grid geometry (area bounds and step vector)."""
    h = hashlib.sha1()
    h.update(repr(grid.key).encode())
    return "g:" + h.hexdigest()


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
        # (table_sig, grid_sig, flat_id) -> payload, in LRU order.
        self._cells: OrderedDict[tuple, Mapping[str, CellStats]] = OrderedDict()
        self._pinned: set[tuple[str, str]] = set()
        # (physical_sig, key tuple) -> CellSample.
        self._samples: dict[tuple, object] = {}
        # (signature function, id(table)) -> (signature, table); holding
        # the table keeps its id from being reused while the memo lives.
        self._signatures: dict[tuple, tuple[str, object]] = {}
        self._events = 0

    def attach_observability(self, metrics=None, trace=None) -> None:
        """Late-bind the serving registry/trace (``None`` leaves as-is)."""
        if metrics is not None:
            self.metrics = metrics
        if trace is not None:
            self.trace = trace

    def __len__(self) -> int:
        return len(self._cells)

    # -- signatures --------------------------------------------------------------

    def binding(self, table, grid: Grid) -> tuple[str, str]:
        """The ``(table_signature, grid_signature)`` pair for a query.

        Equal-content tables from different sessions collapse to the same
        signature because it is content-derived.
        """
        return self._signature(table_signature, table), grid_signature(grid)

    def _signature(self, kind, table) -> str:
        """``kind(table)``, hashed once per table *object* (heap tables are immutable)."""
        memo = self._signatures.get((kind, id(table)))
        if memo is None:
            memo = self._signatures[(kind, id(table))] = (kind(table), table)
        return memo[0]

    # -- cell entries ------------------------------------------------------------

    def consult(
        self,
        table_sig: str,
        grid_sig: str,
        flat_ids: Sequence[int],
        require: Sequence[str] = (),
        window: Window | None = None,
    ) -> dict[int, Mapping[str, CellStats]]:
        """Exact summaries for the requested cells, where known.

        Only entries carrying *every* objective in ``require`` count as
        hits — a payload published by a query with different objectives
        must not be installed as if the missing objectives were empty.
        Hits refresh LRU recency; a consult with at least one hit is one
        CACHE_SHARE trace event.
        """
        found: dict[int, Mapping[str, CellStats]] = {}
        cells = self._cells
        for flat_id in flat_ids:
            key = (table_sig, grid_sig, flat_id)
            payload = cells.get(key)
            if payload is not None and all(k in payload for k in require):
                cells.move_to_end(key)
                found[flat_id] = payload
        m = self.metrics
        if m is not None:
            m.inc("serve.cache.lookup_cells", float(len(flat_ids)))
            m.inc("serve.cache.hit_cells", float(len(found)))
            m.inc("serve.cache.miss_cells", float(len(flat_ids) - len(found)))
        if found and self.trace is not None:
            self._events += 1
            self.trace.record(
                EventKind.CACHE_SHARE,
                float(self._events),
                window,
                cells=len(found),
                requested=len(flat_ids),
                table=table_sig[:10],
            )
        return found

    def publish(
        self,
        table_sig: str,
        grid_sig: str,
        items: Sequence[tuple[int, Mapping[str, CellStats]]],
    ) -> None:
        """Promote freshly read cells into the shared store.

        Re-publishing a known cell refreshes its recency and payload
        (values are exact, so any publisher's payload for the same cell
        and objectives agrees); new cells may trigger LRU eviction.
        """
        cells = self._cells
        inserted = refreshed = 0
        for flat_id, payload in items:
            key = (table_sig, grid_sig, flat_id)
            if key in cells:
                existing = dict(cells[key])
                existing.update(payload)
                cells[key] = existing
                cells.move_to_end(key)
                refreshed += 1
            else:
                cells[key] = dict(payload)
                inserted += 1
        evicted = self._evict_to_budget()
        m = self.metrics
        if m is not None:
            m.inc("serve.cache.promoted_cells", float(inserted + refreshed))
            m.inc("serve.cache.inserted_cells", float(inserted))
            m.inc("serve.cache.refreshed_cells", float(refreshed))
            if evicted:
                m.inc("serve.cache.evicted_cells", float(evicted))
            m.gauge("serve.cache.resident_cells").set(float(len(cells)))

    def _evict_to_budget(self) -> int:
        evicted = 0
        cells = self._cells
        if len(cells) <= self.budget_cells:
            return 0
        if not self._pinned:
            while len(cells) > self.budget_cells:
                cells.popitem(last=False)
                evicted += 1
            return evicted
        for key in list(cells):
            if len(cells) <= self.budget_cells:
                break
            if (key[0], key[1]) in self._pinned:
                continue
            del cells[key]
            evicted += 1
        return evicted

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
            self.metrics.gauge("serve.cache.resident_cells").set(
                float(len(self._cells))
            )

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
            "resident_cells": len(self._cells),
            "budget_cells": self.budget_cells,
            "pinned_bindings": len(self._pinned),
            "samples": len(self._samples),
        }
