"""Miscellaneous coverage: CLI rendering flags, placement variants, 1-D paths."""

from __future__ import annotations

from repro.cli import main
from repro.core import Grid, Rect, Window, prefetch_extend
from repro.distributed import DistributedConfig, run_distributed
from repro.workloads import make_database, stock_dataset, stock_query


def run_cli(*argv: str) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, lines


class TestCliRendering:
    def test_heatmap_and_timeline_flags(self):
        code, lines = run_cli(
            "run", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", "--heatmap", "--timeline",
        )
        assert code == 0
        joined = "\n".join(lines)
        assert "result density" in joined
        assert "results over" in joined

    def test_stocks_workload_via_cli_sql(self):
        code, lines = run_cli(
            "sql", "--workload", "stocks", "--sample-fraction", "0.3",
            "SELECT LB(time), UB(time), AVG(price) FROM stocks "
            "GRID BY time BETWEEN 0 AND 5840 STEP 365 "
            "HAVING AVG(price) > 50 AND LEN(time) <= 3",
        )
        assert code == 0
        assert any("rows" in line for line in lines)


class TestPlacementVariants:
    def test_distributed_with_axis_placement(self):
        dataset = stock_dataset(years=8, bull_years=(2, 5), seed=6)
        query = stock_query(dataset)
        report = run_distributed(
            dataset,
            query,
            DistributedConfig(num_workers=2, placement="axis", sample_fraction=0.3),
        )
        db = make_database(dataset, "cluster")
        from repro.core import SWEngine

        reference = SWEngine(db, dataset.name, sample_fraction=0.3).execute(query).run
        assert {r.window for r in report.results} == {
            r.window for r in reference.results
        }


class TestOneDimensionalPaths:
    def test_prefetch_extend_1d(self):
        grid = Grid(Rect.from_bounds([(0.0, 20.0)]), (1.0,))
        w = Window((10,), (11,))
        extended = prefetch_extend(w, 3.0, grid, cost_fn=lambda x: float(x.cardinality))
        assert extended.contains_window(w)
        assert extended.ndim == 1
        assert extended.cardinality > 1

    def test_1d_distributed_partitioning(self):
        dataset = stock_dataset(years=12, bull_years=(3, 8), seed=7)
        query = stock_query(dataset)
        for overlap in ("no_overlap", "full_overlap"):
            report = run_distributed(
                dataset,
                query,
                DistributedConfig(num_workers=3, overlap=overlap, sample_fraction=0.3),
            )
            assert report.num_results > 0
