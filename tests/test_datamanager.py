"""Unit tests for the Data Manager (cell cache + estimation overlay)."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    Window,
    col,
)
from repro.core.datamanager import DataManager
from repro.sampling import NoiseModel, StratifiedSampler
from repro.storage import Database


@pytest.fixture()
def grid():
    return Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


@pytest.fixture()
def avg_v():
    return ContentObjective.of("avg", col("v"))


def make_dm(db, grid, objectives, fraction=0.3, noise=None):
    table = db.table("pts")
    sample = StratifiedSampler(fraction, seed=21).sample(table, grid)
    return DataManager(db, "pts", grid, objectives, sample, noise=noise)


class TestCounts:
    def test_window_count_exact(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        coords = small_db.table("pts").coordinates()
        w = Window((2, 2), (5, 5))
        mask = (
            (coords[:, 0] >= 2) & (coords[:, 0] < 5) & (coords[:, 1] >= 2) & (coords[:, 1] < 5)
        )
        assert dm.window_count(w) == int(mask.sum())

    def test_unread_drops_to_zero_after_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        w = Window((1, 1), (3, 3))
        assert dm.unread_objects(w) > 0
        dm.read_window(w)
        assert dm.unread_objects(w) == 0.0
        assert dm.is_read(w)

    def test_total_objects(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        assert dm.total_objects == small_db.table("pts").num_rows


class TestReads:
    def test_read_marks_only_target_box(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        dm.read_window(Window((0, 0), (2, 2)))
        assert dm.is_read(Window((0, 0), (2, 2)))
        assert not dm.is_read(Window((0, 0), (3, 3)))

    def test_second_read_is_noop(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        w = Window((4, 4), (6, 6))
        assert dm.read_window(w) is not None
        assert dm.read_window(w) is None
        assert dm.reads == 1

    def test_unread_box_shrinks(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        dm.read_window(Window((0, 0), (2, 4)))
        # Of a 4x4 window, only the right 2 columns remain unread.
        target = dm.unread_box(Window((0, 0), (4, 4)))
        assert target == Window((2, 0), (4, 4))

    def test_version_bumps_on_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        v0 = dm.version
        dm.read_window(Window((7, 7), (8, 8)))
        assert dm.version == v0 + 1


class TestEstimatesAndExactness:
    def test_exact_value_after_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        w = Window((2, 2), (4, 4))
        dm.read_window(w)
        coords = small_db.table("pts").coordinates()
        v = small_db.table("pts").column("v")
        mask = (
            (coords[:, 0] >= 2) & (coords[:, 0] < 4) & (coords[:, 1] >= 2) & (coords[:, 1] < 4)
        )
        assert dm.exact_value(avg_v, w) == pytest.approx(float(v[mask].mean()))

    def test_exact_value_requires_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        with pytest.raises(ValueError, match="unread"):
            dm.exact_value(avg_v, Window((0, 0), (1, 1)))

    def test_exact_values_reduces_each_objective_once(self, small_db, grid, avg_v):
        count = ContentObjective.of("count")
        dm = make_dm(small_db, grid, [avg_v, count])
        w = Window((2, 2), (4, 4))
        dm.read_window(w)
        avg, n = dm.exact_value(avg_v, w), dm.exact_value(count, w)
        interval = [
            (ContentCondition(avg_v, ComparisonOp.GT, avg - 1.0), repr(avg_v)),
            (ContentCondition(count, ComparisonOp.GE, n), repr(count)),
            (ContentCondition(avg_v, ComparisonOp.LT, avg + 1.0), repr(avg_v)),
        ]
        calls = {"is_read": 0, "reduce": []}
        # The validation pass is compiled from the kernels' readers on its
        # first call: count what it calls per window.
        kern = dm.kernels
        fully_read, reader = kern.fully_read, kern.reader

        def counting_is_read(lo, hi):
            calls["is_read"] += 1
            return fully_read(lo, hi)

        def counting_reader(objective):
            read = reader(objective)

            def counting_reduce(lo, hi):
                calls["reduce"].append(repr(objective))
                return read(lo, hi)

            return counting_reduce

        kern.fully_read, kern.reader = counting_is_read, counting_reader
        values = dm.exact_values(interval, w)
        # Declaration order, one entry and one reduction per distinct objective.
        assert list(values.items()) == [(repr(avg_v), avg), (repr(count), n)]
        assert calls == {"is_read": 1, "reduce": [repr(avg_v), repr(count)]}
        # Short-circuit: the first failing condition ends the validation.
        calls["reduce"].clear()
        failing = [(ContentCondition(avg_v, ComparisonOp.GT, avg), repr(avg_v))] + interval[1:]
        assert dm.exact_values(failing, w) is None
        assert calls["reduce"] == [repr(avg_v)]
        assert dm.exact_values([], w) == {}

    def test_exact_values_requires_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        with pytest.raises(ValueError, match="unread"):
            dm.exact_values([], Window((0, 0), (1, 1)))

    def test_estimate_becomes_exact_when_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        w = Window((3, 3), (5, 5))
        dm.read_window(w)
        assert dm.estimate(avg_v, w) == dm.exact_value(avg_v, w)

    def test_full_sample_estimate_is_exact(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v], fraction=1.0)
        w = Window((1, 2), (4, 5))
        est = dm.estimate(avg_v, w)
        dm.read_window(w)
        assert est == pytest.approx(dm.exact_value(avg_v, w))

    def test_min_max_estimates(self, small_db, grid):
        mn = ContentObjective.of("min", col("v"))
        mx = ContentObjective.of("max", col("v"))
        dm = make_dm(small_db, grid, [mn, mx], fraction=1.0)
        w = Window((0, 0), (10, 10))
        v = small_db.table("pts").column("v")
        assert dm.estimate(mn, w) == pytest.approx(float(v.min()))
        assert dm.estimate(mx, w) == pytest.approx(float(v.max()))

    def test_empty_window_estimates_nan(self, small_db, avg_v):
        # A grid extending past the data: cells above 10 are empty.
        grid = Grid(Rect.from_bounds([(0.0, 20.0), (0.0, 20.0)]), (1.0, 1.0))
        dm = make_dm(small_db, grid, [avg_v])
        w = Window((15, 15), (17, 17))
        assert math.isnan(dm.estimate(avg_v, w))
        dm.read_window(w)
        assert math.isnan(dm.exact_value(avg_v, w))

    def test_noise_applied_only_to_unread(self, small_db, grid, avg_v):
        noise = NoiseModel(30.0, seed=3)
        dm = make_dm(small_db, grid, [avg_v], fraction=1.0, noise=noise)
        w = Window((2, 2), (4, 4))
        noisy = dm.estimate(avg_v, w)
        dm.read_window(w)
        exact = dm.estimate(avg_v, w)
        assert noisy != exact
        assert exact == dm.exact_value(avg_v, w)


class TestCellPayloads:
    def test_roundtrip_between_managers(self, small_db, grid, avg_v):
        dm1 = make_dm(small_db, grid, [avg_v])
        dm1.read_window(Window((2, 2), (3, 3)))
        payload = dm1.cell_payload((2, 2))

        db2 = Database()
        db2.register(small_db.table("pts"))
        dm2 = make_dm(db2, grid, [avg_v])
        dm2.install_cell((2, 2), payload)
        assert dm2.is_cell_read((2, 2))
        w = Window((2, 2), (3, 3))
        assert dm2.exact_value(avg_v, w) == pytest.approx(dm1.exact_value(avg_v, w))

    def test_payload_requires_read(self, small_db, grid, avg_v):
        dm = make_dm(small_db, grid, [avg_v])
        with pytest.raises(ValueError, match="not cached"):
            dm.cell_payload((0, 0))
