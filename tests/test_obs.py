"""Unit tests for the observability layer: metrics, spans, auditor.

Covers the primitives themselves (counters, gauges, fixed-bound
histograms, snapshot/merge), the span nesting semantics fixed for shared
clocks (child time never double-counted in the parent's ``self_s``;
reentrant same-name spans do not inflate ``total_s``), the pay-nothing
contract (attaching a registry must not change search behavior), and the
auditor's positive/negative behavior on hand-built snapshots.
"""

from __future__ import annotations

import pytest

from repro.clock import SimClock
from repro.core import SearchConfig, SWEngine
from repro.errors import ConfigError
from repro.obs import (
    DEFAULT_CELL_BOUNDS,
    InvariantAuditor,
    InvariantViolation,
    MetricsRegistry,
)
from repro.workloads import make_database


# --- primitives -----------------------------------------------------------------


class TestRegistryPrimitives:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 2.5)
        assert reg.value("a.b") == 3.5
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_gauge_tracks_value(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(4.0)
        assert reg.snapshot()["gauges"]["depth"] == 4.0

    def test_histogram_buckets_and_total(self):
        reg = MetricsRegistry()
        h = reg.histogram("cells")
        assert h.bounds == DEFAULT_CELL_BOUNDS
        for v in (0.5, 1.0, 3.0, 10_000.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["cells"]
        assert sum(snap["counts"]) == 4
        assert snap["counts"][-1] == 1  # overflow bucket
        assert snap["total"] == pytest.approx(10_004.5)

    def test_histogram_merge_requires_identical_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0))
        b.histogram("h", bounds=(1.0, 4.0))
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_merge_adds_counters_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2.0)
        b.inc("c", 3.0)
        a.gauge("g").set(5.0)
        b.gauge("g").set(2.0)
        a.merge(b)
        assert a.value("c") == 5.0
        assert a.snapshot()["gauges"]["g"] == 5.0

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        for name in ("z.last", "a.first", "m.mid"):
            reg.inc(name)
        assert list(reg.snapshot()["counters"]) == ["a.first", "m.mid", "z.last"]

    def test_span_without_clock_is_config_error(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().span("seed")


# --- span nesting ---------------------------------------------------------------


class TestSpanNesting:
    def test_child_time_not_double_counted_in_parent_self(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        with reg.span("query"):
            clock.advance(1.0)          # query's own work
            with reg.span("read"):
                clock.advance(3.0)      # child work
            clock.advance(0.5)          # more of query's own work
        c = reg.value
        assert c("span.query.total_s") == pytest.approx(4.5)
        assert c("span.query.self_s") == pytest.approx(1.5)
        assert c("span.read.total_s") == pytest.approx(3.0)
        assert c("span.read.self_s") == pytest.approx(3.0)
        # The partition is exact: self times sum to the elapsed time.
        assert c("span.query.self_s") + c("span.read.self_s") == pytest.approx(4.5)

    def test_sibling_children_accumulate(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        with reg.span("expand"):
            for _ in range(3):
                with reg.span("read"):
                    clock.advance(1.0)
        assert reg.value("span.expand.self_s") == pytest.approx(0.0)
        assert reg.value("span.read.count") == 3.0
        assert reg.value("span.read.total_s") == pytest.approx(3.0)

    def test_reentrant_span_skips_total(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        with reg.span("read"):
            clock.advance(1.0)
            with reg.span("read"):        # read-within-read (recovery path)
                clock.advance(2.0)
            clock.advance(0.5)
        c = reg.value
        assert c("span.read.count") == 2.0
        # total_s is a true wall clock: the outer span alone covers it.
        assert c("span.read.total_s") == pytest.approx(3.5)
        assert c("span.read.self_s") == pytest.approx(3.5)

    def test_exception_unwind_closes_children(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        outer = reg.span("outer")
        outer.__enter__()
        inner = reg.span("inner")
        inner.__enter__()
        clock.advance(2.0)
        outer.close()  # inner was abandoned by an unwind
        assert reg.value("span.inner.count") == 1.0
        assert reg.value("span.outer.self_s") == pytest.approx(0.0)
        assert reg._span_stack == []

    def test_close_is_idempotent(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        span = reg.span("seed")
        with span:
            clock.advance(1.0)
        span.close()
        assert reg.value("span.seed.count") == 1.0

    def test_spans_never_advance_the_clock(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        with reg.span("seed"):
            pass
        assert clock.now == 0.0


# --- pay-nothing contract -------------------------------------------------------


class TestPayNothing:
    def test_attached_registry_does_not_change_behavior(self, tiny_dataset, tiny_query):
        def run(with_metrics: bool):
            db = make_database(tiny_dataset, "cluster")
            registry = None
            if with_metrics:
                registry = MetricsRegistry()
                db.attach_metrics(registry)
            engine = SWEngine(db, tiny_dataset.name, sample_fraction=0.1)
            report = engine.execute(tiny_query, SearchConfig(alpha=1.0))
            fingerprint = (
                [(r.window, r.time) for r in report.results],
                report.run.completion_time_s,
                report.run.stats,
            )
            return fingerprint, registry

        bare, none_reg = run(False)
        instrumented, registry = run(True)
        assert none_reg is None
        assert instrumented == bare
        assert registry.value("search.results") == len(bare[0])

    def test_detached_search_holds_no_metric_objects(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        engine = SWEngine(db, tiny_dataset.name, sample_fraction=0.1)
        search = engine.prepare(tiny_query, SearchConfig())
        assert search.metrics is None
        assert search._obs is None


# --- the auditor ----------------------------------------------------------------


def _consistent_snapshot() -> dict:
    return {
        "counters": {
            "dm.cell_requests": 10.0,
            "dm.cache_hit_cells": 6.0,
            "dm.cache_miss_cells": 4.0,
            "dm.cells_read": 5.0,
            "search.reads": 3.0,
            "search.cold_reads": 2.0,
            "search.prefetch_reads": 1.0,
            "prefetch.positive_reads": 1.0,
            "prefetch.negative_reads": 2.0,
        },
        "gauges": {},
        "histograms": {},
    }


class TestInvariantAuditor:
    def test_consistent_snapshot_passes(self):
        report = InvariantAuditor(_consistent_snapshot()).report()
        assert report["ok"]
        assert report["checked"] >= 4

    def test_violation_detected_and_raised(self):
        snapshot = _consistent_snapshot()
        snapshot["counters"]["dm.cache_hit_cells"] = 7.0  # breaks the identity
        audit = InvariantAuditor(snapshot)
        assert any("cache accounting" in v for v in audit.violations())
        with pytest.raises(InvariantViolation):
            audit.verify()

    def test_absent_families_are_skipped(self):
        audit = InvariantAuditor({"counters": {}, "gauges": {}, "histograms": {}})
        assert audit.report() == {"checked": 0, "violations": [], "ok": True}

    def test_accepts_registry_directly(self):
        reg = MetricsRegistry()
        reg.inc("search.reads", 2.0)
        reg.inc("search.cold_reads", 2.0)
        reg.inc("prefetch.positive_reads", 1.0)
        reg.inc("prefetch.negative_reads", 1.0)
        assert InvariantAuditor(reg).report()["ok"]

    def test_histogram_conservation_checked(self):
        snapshot = {
            "counters": {"dm.reads": 2.0},
            "gauges": {},
            "histograms": {
                "dm.cells_per_read": {
                    "bounds": [1.0, 2.0],
                    "counts": [0, 1, 0],
                    "total": 2.0,
                }
            },
        }
        audit = InvariantAuditor(snapshot)
        assert any("histogram conservation" in v for v in audit.violations())
