"""Semantic-cache semantics: signatures, sharing rules, eviction, invalidation.

The soundness rules under test (DESIGN.md §12): cell summaries share
across placements of the same rows (content signature) but samples share
only between identical heap files (physical signature); a payload is
only a hit for a query that needs no objective the payload lacks; LRU
eviction never touches pinned bindings; and a table rebind drops every
entry under the old signature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SearchConfig, SWEngine
from repro.obs import MetricsRegistry
from repro.serve import (
    SemanticCache,
    grid_signature,
    physical_signature,
    table_signature,
)
from repro.workloads import (
    make_database,
    make_table,
    synthetic_dataset,
    synthetic_query,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset("medium", scale=0.15, seed=5)


class TestSignatures:
    def test_table_signature_is_placement_invariant(self, dataset):
        clustered = make_table(dataset, "cluster")
        shuffled = make_table(dataset, "random")
        assert table_signature(clustered) == table_signature(shuffled)
        assert physical_signature(clustered) != physical_signature(shuffled)

    def test_table_signature_separates_content(self, dataset):
        other = synthetic_dataset("medium", scale=0.15, seed=6)
        assert table_signature(make_table(dataset, "cluster")) != table_signature(
            make_table(other, "cluster")
        )

    def test_physical_signature_tracks_block_size(self, dataset):
        a = make_table(dataset, "cluster", tuples_per_block=8)
        b = make_table(dataset, "cluster", tuples_per_block=16)
        assert physical_signature(a) != physical_signature(b)
        assert table_signature(a) == table_signature(b)

    def test_grid_signature_tracks_geometry(self, dataset):
        other = synthetic_dataset("medium", scale=0.3, seed=5)
        assert grid_signature(dataset.grid) == grid_signature(dataset.grid)
        assert grid_signature(dataset.grid) != grid_signature(other.grid)

    def test_binding_memoizes_per_table(self, dataset):
        cache = SemanticCache()
        table = make_table(dataset, "cluster")
        first = cache.binding(table, dataset.grid)
        assert cache.binding(table, dataset.grid) == first
        assert first == (table_signature(table), grid_signature(dataset.grid))

    def test_one_table_object_is_hashed_once_per_signature_kind(self, dataset, monkeypatch):
        import hashlib

        hashed = []
        real_sha1 = hashlib.sha1

        def counting_sha1(*args, **kwargs):
            hashed.append(1)
            return real_sha1(*args, **kwargs)

        cache = SemanticCache()
        table = make_table(dataset, "cluster")
        twin = make_table(dataset, "cluster")
        key = ("stratified", 0.1, 17)
        grid_hashes = 0
        monkeypatch.setattr(hashlib, "sha1", counting_sha1)
        for _ in range(3):
            assert cache.sample_lookup(table, key) in (None, "sample")
            cache.sample_publish(table, key, "sample")
            cache.binding(table, dataset.grid)
            grid_hashes += 1
        # One content hash, one physical hash; the grid's is not memoised.
        assert len(hashed) - grid_hashes == 2
        # An equal heap file in another object is hashed for itself and shares.
        assert cache.sample_lookup(twin, key) == "sample"
        assert len(hashed) - grid_hashes == 3


class TestConsultAndPublish:
    def test_require_filters_incomplete_payloads(self):
        cache = SemanticCache()
        cache.publish("t:x", "g:y", [(0, {"avg(a)": "s0"}), (1, {"avg(a)": "s1", "avg(b)": "s2"})])
        hits = cache.consult("t:x", "g:y", [0, 1, 2], require=("avg(a)", "avg(b)"))
        assert set(hits) == {1}
        assert cache.consult("t:x", "g:y", [0, 1], require=("avg(a)",)).keys() == {0, 1}

    def test_refresh_merges_objectives(self):
        cache = SemanticCache()
        cache.publish("t:x", "g:y", [(0, {"avg(a)": "s0"})])
        cache.publish("t:x", "g:y", [(0, {"avg(b)": "s1"})])
        hits = cache.consult("t:x", "g:y", [0], require=("avg(a)", "avg(b)"))
        assert hits[0] == {"avg(a)": "s0", "avg(b)": "s1"}

    def test_counters(self):
        registry = MetricsRegistry()
        cache = SemanticCache(metrics=registry)
        cache.publish("t:x", "g:y", [(i, {"k": i}) for i in range(3)])
        cache.consult("t:x", "g:y", [0, 1, 5], require=("k",))
        counters = registry.snapshot()["counters"]
        assert counters["serve.cache.inserted_cells"] == 3
        assert counters["serve.cache.lookup_cells"] == 3
        assert counters["serve.cache.hit_cells"] == 2
        assert counters["serve.cache.miss_cells"] == 1


class TestEviction:
    def test_lru_eviction_under_budget(self):
        cache = SemanticCache(budget_cells=3)
        cache.publish("t:x", "g:y", [(i, {"k": i}) for i in range(3)])
        cache.consult("t:x", "g:y", [0], require=("k",))  # 0 becomes MRU
        cache.publish("t:x", "g:y", [(9, {"k": 9})])
        assert len(cache) == 3
        assert set(cache.consult("t:x", "g:y", [0, 1, 2, 9])) == {0, 2, 9}

    def test_pin_blocks_eviction_until_unpin(self):
        cache = SemanticCache(budget_cells=2)
        cache.pin("t:x", "g:y")
        cache.publish("t:x", "g:y", [(i, {"k": i}) for i in range(4)])
        assert len(cache) == 4  # pinned bindings may exceed the budget
        cache.publish("t:z", "g:y", [(0, {"k": 0})])
        assert set(cache.consult("t:x", "g:y", [0, 1, 2, 3])) == {0, 1, 2, 3}
        assert cache.consult("t:z", "g:y", [0]) == {}  # unpinned entry evicted
        cache.unpin("t:x", "g:y")
        assert len(cache) == 2

    def test_multiple_pinned_bindings_under_pressure(self):
        """Several live sessions pin at once; only unpinned cells pay."""
        cache = SemanticCache(budget_cells=4)
        cache.pin("t:a", "g:1")
        cache.pin("t:b", "g:1")
        cache.publish("t:a", "g:1", [(i, {"k": i}) for i in range(3)])
        cache.publish("t:b", "g:1", [(i, {"k": i}) for i in range(3)])
        cache.publish("t:c", "g:1", [(i, {"k": i}) for i in range(2)])
        # Both pinned bindings survive intact; the unpinned one is the
        # only eviction candidate and the pins already exceed the budget.
        assert set(cache.consult("t:a", "g:1", [0, 1, 2])) == {0, 1, 2}
        assert set(cache.consult("t:b", "g:1", [0, 1, 2])) == {0, 1, 2}
        assert cache.consult("t:c", "g:1", [0, 1]) == {}

    def test_partial_unpin_evicts_only_released_binding(self):
        cache = SemanticCache(budget_cells=3)
        cache.pin("t:a", "g:1")
        cache.pin("t:b", "g:1")
        cache.publish("t:a", "g:1", [(i, {"k": i}) for i in range(3)])
        cache.publish("t:b", "g:1", [(i, {"k": i}) for i in range(3)])
        assert len(cache) == 6
        cache.unpin("t:a", "g:1")
        # Back to budget by shedding t:a cells only; t:b stays pinned.
        assert len(cache) == 3
        assert set(cache.consult("t:b", "g:1", [0, 1, 2])) == {0, 1, 2}
        cache.unpin("t:b", "g:1")
        assert len(cache) == 3  # already within budget: unpin is a no-op

    def test_evicted_cells_counter_on_publish_and_unpin(self):
        registry = MetricsRegistry()
        cache = SemanticCache(budget_cells=2, metrics=registry)
        cache.publish("t:x", "g:y", [(i, {"k": i}) for i in range(5)])
        counters = registry.snapshot()["counters"]
        assert counters["serve.cache.evicted_cells"] == 3
        cache.pin("t:x", "g:z")
        cache.publish("t:x", "g:z", [(i, {"k": i}) for i in range(4)])
        # The publish sheds the two unpinned g:y survivors; the four
        # pinned g:z cells ride over budget until the unpin releases them.
        counters = registry.snapshot()["counters"]
        assert counters["serve.cache.evicted_cells"] == 3 + 2
        cache.unpin("t:x", "g:z")
        counters = registry.snapshot()["counters"]
        assert counters["serve.cache.evicted_cells"] == 3 + 2 + 2
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.cache.resident_cells"] == float(len(cache)) == 2.0

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget_cells"):
            SemanticCache(budget_cells=0)


class TestInvalidation:
    def test_invalidate_table_drops_all_grids(self):
        cache = SemanticCache()
        cache.publish("t:x", "g:1", [(0, {"k": 0})])
        cache.publish("t:x", "g:2", [(0, {"k": 0})])
        cache.publish("t:z", "g:1", [(0, {"k": 0})])
        cache.pin("t:x", "g:1")
        assert cache.invalidate_table("t:x") == 2
        assert len(cache) == 1
        assert cache.stats()["pinned_bindings"] == 0
        assert cache.consult("t:z", "g:1", [0]).keys() == {0}

    def test_rebind_detaches_and_invalidates(self, dataset):
        """DataManager.rebind_table must drop the old signature's entries."""
        query = synthetic_query(dataset)
        cache = SemanticCache()
        engine = SWEngine(make_database(dataset, "cluster"), dataset.name)
        engine.attach_semantic_cache(cache)
        search = engine.prepare(query, SearchConfig(alpha=1.0))
        search.run()
        tsig = table_signature(engine.database.table(dataset.name))
        assert any(k[0] == tsig for k in cache._cells)

        from repro.storage.table import HeapTable

        donor = make_table(dataset, "random")
        replacement = HeapTable(
            "adopted",
            donor.schema,
            {name: donor.column(name) for name in donor.schema.columns},
            tuples_per_block=donor.tuples_per_block,
        )
        search.data.rebind_table(replacement)
        assert not any(k[0] == tsig for k in cache._cells)
        assert search.data._cache is None  # detached: no stale promotion


class TestSampleStore:
    def test_samples_share_only_identical_placements(self, dataset):
        query = synthetic_query(dataset)
        cache = SemanticCache()
        registry = MetricsRegistry()
        cache.attach_observability(metrics=registry)

        first = SWEngine(make_database(dataset, "cluster"), dataset.name)
        first.attach_semantic_cache(cache)
        sample = first.sample_for(query)

        twin = SWEngine(make_database(dataset, "cluster"), dataset.name)
        twin.attach_semantic_cache(cache)
        shared = twin.sample_for(query)
        assert shared is sample  # identical placement: shared object

        shuffled = SWEngine(make_database(dataset, "random"), dataset.name)
        shuffled.attach_semantic_cache(cache)
        rebuilt = shuffled.sample_for(query)
        assert rebuilt is not sample
        assert np.array_equal(
            np.sort(sample.rows), np.sort(rebuilt.rows)
        ) or sample.rows.shape == rebuilt.rows.shape

        counters = registry.snapshot()["counters"]
        assert counters["serve.cache.sample_hits"] == 1
        assert counters["serve.cache.sample_stores"] == 2
