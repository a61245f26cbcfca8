"""The array semantic cache against the payload-dict cache it replaced.

:class:`DictCache` keeps one ``{key: CellStats}`` payload per
``(table_sig, grid_sig, flat_id)`` in one ``OrderedDict`` — LRU order is
dict order.  :class:`~repro.serve.SemanticCache` keeps one dense record
per binding with recency stamps from one shared tick.  Hypothesis drives
both through consults, publishes, pins and unpins across several
bindings and objective sets under a small budget, and compares the hits
and their values, every resident entry, the LRU order across bindings,
every ``serve.cache.*`` counter and gauge, and the CACHE_SHARE events.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import CellStats
from repro.core.trace import EventKind, SearchTrace
from repro.core.window import Window
from repro.obs import MetricsRegistry
from repro.serve import SemanticCache

BINDINGS = (("t:a", "g:1"), ("t:b", "g:1"), ("t:a", "g:2"))
KEYS = ("avg(a)", "sum(b)", "*")
CELLS = 12


class DictCache:
    """The cell part of the semantic cache as one payload dict per cell."""

    def __init__(self, budget_cells: int, metrics=None, trace=None) -> None:
        self.budget_cells = budget_cells
        self.metrics = metrics
        self.trace = trace
        self._cells: OrderedDict[tuple, Mapping[str, CellStats]] = OrderedDict()
        self._pinned: set[tuple[str, str]] = set()
        self._events = 0

    def __len__(self) -> int:
        return len(self._cells)

    def consult(self, table_sig, grid_sig, flat_ids, require=(), window=None):
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

    def publish(self, table_sig, grid_sig, items: Sequence[tuple[int, Mapping]]):
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
        for key in list(cells):
            if len(cells) <= self.budget_cells:
                break
            if (key[0], key[1]) in self._pinned:
                continue
            del cells[key]
            evicted += 1
        return evicted

    def pin(self, table_sig, grid_sig) -> None:
        self._pinned.add((table_sig, grid_sig))

    def unpin(self, table_sig, grid_sig) -> None:
        self._pinned.discard((table_sig, grid_sig))
        evicted = self._evict_to_budget()
        if evicted and self.metrics is not None:
            self.metrics.inc("serve.cache.evicted_cells", float(evicted))
            self.metrics.gauge("serve.cache.resident_cells").set(float(len(self._cells)))


def _lru_order(cache: SemanticCache) -> list[tuple]:
    """Resident ``(table_sig, grid_sig, flat_id)`` of the array cache, oldest first."""
    stamped = []
    for (table_sig, grid_sig), record in cache._bindings.items():
        for flat_id in np.flatnonzero(record.stamps).tolist():
            stamped.append((int(record.stamps[flat_id]), (table_sig, grid_sig, flat_id)))
    return [entry for _stamp, entry in sorted(stamped)]


def _observe(cache, trace, registry) -> dict:
    snapshot = registry.snapshot()
    return {
        "len": len(cache),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "trace": [
            (e.kind, e.time, repr(e.window), sorted(e.detail.items())) for e in trace
        ],
    }


def _apply(array_cache, oracle, op):
    kind = op[0]
    if kind == "publish":
        _kind, b, ids, keys, value_seed = op
        table_sig, grid_sig = BINDINGS[b]
        ids = np.asarray(ids, dtype=np.int64)
        # A cell's count is a property of its content, so every publisher
        # agrees on it; values may differ to show which publish won.
        counts = (ids * 7 + b) % 5
        per_key = {}
        for k, key in enumerate(keys):
            base = ids * 0.5 + k + value_seed * 0.25
            per_key[key] = (base, base - 1.0, base + 1.0)
        array_cache.publish(table_sig, grid_sig, ids, counts.astype(float), per_key)
        oracle.publish(
            table_sig,
            grid_sig,
            [
                (
                    int(flat_id),
                    {
                        key: CellStats(int(counts[i]), float(s[i]), float(lo[i]), float(hi[i]))
                        for key, (s, lo, hi) in per_key.items()
                    },
                )
                for i, flat_id in enumerate(ids.tolist())
            ],
        )
    elif kind == "consult":
        _kind, b, ids, require = op
        table_sig, grid_sig = BINDINGS[b]
        window = Window((b,), (b + 1,))
        hit_ids, values = array_cache.consult(
            table_sig, grid_sig, np.asarray(ids, dtype=np.int64), require=require,
            window=window,
        )
        found = oracle.consult(table_sig, grid_sig, ids, require=require, window=window)
        assert hit_ids.tolist() == list(found)
        assert sorted(values) == sorted(require if hit_ids.size else ())
        for key, (sums, mins, maxs) in values.items():
            expected = [found[i][key] for i in hit_ids.tolist()]
            assert sums.tolist() == [s.total for s in expected]
            assert mins.tolist() == [s.minimum for s in expected]
            assert maxs.tolist() == [s.maximum for s in expected]
    else:
        _kind, b = op
        getattr(array_cache, kind)(*BINDINGS[b])
        getattr(oracle, kind)(*BINDINGS[b])


binding = st.integers(0, len(BINDINGS) - 1)
cell_ids = st.lists(st.integers(0, CELLS - 1), unique=True, max_size=8)
key_sets = st.lists(st.sampled_from(KEYS), unique=True, max_size=3)
operations = st.one_of(
    st.tuples(st.just("publish"), binding, cell_ids, key_sets, st.integers(0, 3)),
    st.tuples(st.just("consult"), binding, cell_ids, key_sets.map(tuple)),
    st.tuples(st.sampled_from(["pin", "unpin"]), binding),
)


@settings(max_examples=300, deadline=None)
@given(budget=st.integers(1, 20), ops=st.lists(operations, max_size=30))
def test_array_cache_matches_dict_cache(budget, ops):
    sides = []
    for cls in (SemanticCache, DictCache):
        registry, trace = MetricsRegistry(), SearchTrace()
        sides.append((cls(budget, metrics=registry, trace=trace), trace, registry))
    (array_cache, *array_obs), (oracle, *oracle_obs) = sides
    for op in ops:
        _apply(array_cache, oracle, op)
        assert _observe(array_cache, *array_obs) == _observe(oracle, *oracle_obs), op
        assert _lru_order(array_cache) == list(oracle._cells), op
        for table_sig, grid_sig in BINDINGS:
            for flat_id in range(CELLS):
                assert array_cache.entry(table_sig, grid_sig, flat_id) == oracle._cells.get(
                    (table_sig, grid_sig, flat_id)
                ), (op, table_sig, grid_sig, flat_id)


def test_growth_keeps_entries_and_clips_unknown_ids():
    cache = SemanticCache()
    cache.publish("t", "g", np.array([2]), np.ones(1), {"k": (np.ones(1),) * 3})
    cache.publish("t", "g", np.array([40]), np.ones(1), {"k": (np.full(1, 4.0),) * 3})
    hit_ids, values = cache.consult("t", "g", np.array([1000, 40, 2, 3]), require=("k",))
    assert hit_ids.tolist() == [40, 2]
    assert values["k"][0].tolist() == [4.0, 1.0]
