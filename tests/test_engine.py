"""Tests for the SWEngine facade and execution reports."""

from __future__ import annotations

import pytest

from repro.core import SearchConfig, SWEngine
from repro.workloads import make_database


class TestEngine:
    def test_report_fields(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        report = engine.execute(tiny_query)
        assert report.run.num_results == len(report.results)
        assert report.disk_stats["blocks_read"] > 0
        assert report.buffer_misses > 0
        assert report.disk_stats["total_time_s"] > 0

    def test_disk_stats_are_deltas(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        first = engine.execute(tiny_query)
        second = engine.execute(tiny_query)
        # The second run hits the warm cell cache of a *new* search but a
        # warm buffer pool: its delta must not include the first run's I/O.
        assert second.disk_stats["blocks_read"] <= first.disk_stats["blocks_read"]

    def test_mean_read_recomputed_from_delta(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        report = engine.execute(tiny_query)
        expected = report.disk_stats["total_time_s"] * 1e3 / report.disk_stats["blocks_read"]
        assert report.disk_stats["mean_read_ms"] == pytest.approx(expected)

    def test_sample_cached_per_grid(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        sample_a = engine.sample_for(tiny_query)
        sample_b = engine.sample_for(tiny_query)
        assert sample_a is sample_b

    def test_execute_iter_streams_online(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        stream = engine.execute_iter(tiny_query, SearchConfig(alpha=0.5))
        first = next(stream)
        assert first.time >= 0
        rest = list(stream)
        assert len(rest) >= 1

    def test_stream_closed_early_reports_interrupted(
        self, tiny_dataset, tiny_query, tiny_db
    ):
        """An abandoned stream is resumable, not the whole answer."""
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        stream = engine.execute_iter(tiny_query, SearchConfig(alpha=0.5))
        next(stream)
        stream.close()
        report = stream.report()
        assert report.outcome == "interrupted" and not report.run.interrupted
        # Driven to the end, the same query is the whole answer ...
        done = engine.execute_iter(tiny_query, SearchConfig(alpha=0.5))
        assert len(list(done)) > 1 and done.report().outcome == "complete"
        # ... and a search the engine itself stopped is aborted, not resumable.
        limited = engine.execute_iter(tiny_query, SearchConfig(alpha=0.5, step_limit=1))
        list(limited)
        assert limited.report().outcome == "aborted"
        assert limited.report().run.interrupt_reason is not None

    def test_invalid_sampler(self, tiny_db, tiny_dataset):
        with pytest.raises(ValueError, match="sampler"):
            SWEngine(tiny_db, tiny_dataset.name, sampler="systematic")

    def test_uniform_sampler_supported(self, tiny_dataset, tiny_query):
        db = make_database(tiny_dataset, "cluster")
        engine = SWEngine(db, tiny_dataset.name, sample_fraction=0.3, sampler="uniform")
        report = engine.execute(tiny_query)
        assert report.run.num_results > 0

    def test_prepare_without_running(self, tiny_dataset, tiny_query, tiny_db):
        engine = SWEngine(tiny_db, tiny_dataset.name, sample_fraction=0.3)
        search = engine.prepare(tiny_query, SearchConfig(alpha=2.0))
        assert search.config.alpha == 2.0
        assert search.stats.explored == 0
