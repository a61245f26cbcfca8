"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, list[str]]:
    lines: list[str] = []
    code = main(list(argv), out=lines.append)
    return code, lines


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "synth-high"
        assert args.placement == "cluster"
        assert args.alpha == 1.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])


class TestCommands:
    def test_info(self):
        code, lines = run_cli("info")
        assert code == 0
        assert any("Semantic Windows" in line for line in lines)
        assert any("cost model" in line for line in lines)

    def test_run_with_limit(self):
        code, lines = run_cli(
            "run", "--workload", "synth-high", "--scale", "0.2", "--limit", "3",
            "--sample-fraction", "0.3",
        )
        assert code == 0
        assert any("stopped after 3 results" in line for line in lines)

    def test_run_to_completion_stocks(self):
        code, lines = run_cli("run", "--workload", "stocks", "--sample-fraction", "0.3")
        assert code == 0
        assert any("query complete" in line for line in lines)

    def test_sql_command(self):
        sql = (
            "SELECT LB(x), UB(x), CARD() FROM synth_high "
            "GRID BY x BETWEEN 0 AND 1000000 STEP 50000, "
            "y BETWEEN 0 AND 1000000 STEP 50000 "
            "HAVING AVG(value) > 20 AND AVG(value) < 30 AND CARD() < 10"
        )
        code, lines = run_cli(
            "sql", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", sql,
        )
        assert code == 0
        assert any(line.endswith("rows") for line in lines)

    def test_optimize_command(self):
        sql = (
            "SELECT CARD() FROM synth_high "
            "GRID BY x BETWEEN 0 AND 1000000 STEP 50000, "
            "y BETWEEN 0 AND 1000000 STEP 50000 "
            "HAVING CARD() <= 4 MAXIMIZE AVG(value)"
        )
        code, lines = run_cli(
            "optimize", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", sql,
        )
        assert code == 0
        assert any("optimum" in line for line in lines)

    def test_baseline_command(self):
        code, lines = run_cli("baseline", "--workload", "synth-high", "--scale", "0.2")
        assert code == 0
        assert any("baseline:" in line for line in lines)

    def test_error_path_returns_nonzero(self):
        code, lines = run_cli(
            "sql", "--workload", "synth-high", "--scale", "0.2",
            "SELECT CARD() FROM wrong_table GRID BY x BETWEEN 0 AND 1 STEP 1 "
            "HAVING CARD() > 0",
        )
        assert code == 2
        assert any("error:" in line for line in lines)

    def test_sql_syntax_error_handled(self):
        code, lines = run_cli(
            "sql", "--workload", "synth-high", "--scale", "0.2",
            "SELECT FROM nothing",
        )
        assert code == 2
        assert any("error:" in line for line in lines)


class TestMetricsCommand:
    def test_metrics_runs_and_audits(self):
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3",
        )
        assert code == 0
        text = "\n".join(lines)
        assert "counters:" in text
        assert "search.results" in text
        assert "histograms:" in text
        assert any("identities checked, all hold" in line for line in lines)

    def test_metrics_json_export(self, tmp_path):
        target = tmp_path / "metrics.json"
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", "--json", str(target),
        )
        assert code == 0
        from repro.io import read_metrics_json

        snapshot = read_metrics_json(target)
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["search.results"] > 0

    def test_metrics_no_audit_skips_report(self):
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", "--no-audit",
        )
        assert code == 0
        assert not any("identities checked" in line for line in lines)

    def test_metrics_parser_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.workload == "synth-high"
        assert args.json is None
        assert not args.no_audit
        assert args.distributed is None
        assert args.chaos_seed is None
        assert args.successor_policy == "split"
        assert args.hedge_delay_ms == 0.0

    def test_metrics_distributed_fault_free(self):
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.15",
            "--sample-fraction", "0.3", "--distributed", "4",
        )
        assert code == 0
        text = "\n".join(lines)
        assert "fault-free:" in text
        assert "outcome" in text and "complete" in text
        assert "dist.steps" in text or "net.messages_sent" in text
        assert any("identities checked, all hold" in line for line in lines)

    def test_metrics_distributed_chaos(self):
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.15",
            "--sample-fraction", "0.3", "--distributed", "4",
            "--chaos-seed", "3",
        )
        assert code == 0
        text = "\n".join(lines)
        assert "chaos seed 3" in text
        assert "fault tolerance:" in text
        assert "faults_injected.crashes" in text
        assert "reassignment_msgs" in text
        assert "equivalence vs fault-free oracle" in text
        assert any("identities checked, all hold" in line for line in lines)

    def test_metrics_chaos_seed_requires_distributed(self):
        code, lines = run_cli(
            "metrics", "--workload", "synth-high", "--scale", "0.15",
            "--chaos-seed", "3",
        )
        assert code == 2
        assert any("--chaos-seed requires --distributed" in line for line in lines)

    def test_serve_command_runs_and_audits(self, tmp_path):
        target = tmp_path / "serve.json"
        code, lines = run_cli(
            "serve", "--workload", "synth-medium", "--scale", "0.15",
            "--sessions", "3", "--max-live", "2", "--slice-steps", "8",
            "--json", str(target),
        )
        assert code == 0
        text = "\n".join(lines)
        assert "after dedupe" in text
        assert "serve.sessions_completed" in text
        assert "hit rate" in text
        assert any("identities checked, all hold" in line for line in lines)

        import json

        report = json.loads(target.read_text())
        assert set(report) == {"summary", "metrics", "merged_results", "trace"}
        assert report["summary"]["sessions"]["s00"]["state"] == "done"
        assert report["merged_results"] > 0
        assert report["trace"]["sessions"] > 0

    def test_serve_deadline_checkpoint_park(self):
        code, lines = run_cli(
            "serve", "--workload", "synth-medium", "--scale", "0.15",
            "--sessions", "3", "--max-live", "1", "--policy", "deadline",
            "--park", "checkpoint", "--step-budget", "40",
        )
        assert code == 0
        assert any("(interrupted)" in line for line in lines)
        assert any("serve.preemptions" in line for line in lines)

    def test_serve_no_cache(self):
        code, lines = run_cli(
            "serve", "--workload", "synth-medium", "--scale", "0.15",
            "--sessions", "2", "--no-cache", "--slice-steps", "16",
        )
        assert code == 0
        assert not any("hit rate" in line for line in lines)

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.sessions == 4
        assert args.policy == "rr"
        assert args.park == "live"
        assert not args.no_cache
        assert args.listen is None
        assert args.record is None and args.replay is None
        assert args.tenant_quota is None

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["serve", "--max-live", "0"], "--max-live"),
            (["serve", "--sessions", "0"], "--sessions"),
            (["serve", "--queue-limit", "-1"], "--queue-limit"),
            (["serve", "--slice-steps", "0"], "--slice-steps"),
            (["serve", "--cache-budget", "0"], "--cache-budget"),
            (["serve", "--step-budget", "0"], "--step-budget"),
            (["serve", "--block-budget", "0"], "--block-budget"),
            (["serve", "--record", "x.journal"], "--record"),
            (["serve", "--listen", "localhost:notaport"], "port"),
            (["serve", "--tenant-quota", "broken"], "tenant spec"),
        ],
    )
    def test_serve_validation_exits_2_with_config_error(self, argv, needle):
        code, lines = run_cli(*argv)
        assert code == 2
        text = "\n".join(lines)
        assert text.startswith("error:") and needle in text

    def test_serve_refuses_backend_and_builds_no_database(self, tmp_path):
        """Served sessions build their own databases; ``--backend`` would be ignored."""
        store = tmp_path / "s.db"
        code, lines = run_cli(
            "serve", "--backend", f"sqlite:{store}", "--sessions", "2",
            "--step-budget", "20", "--scale", "0.1",
        )
        assert code == 2
        text = "\n".join(lines)
        assert text.startswith("error:") and "DATABASE_URL" in text
        assert not store.exists()

    def test_serve_with_tenant_quotas_throttles(self):
        code, lines = run_cli(
            "serve", "--workload", "synth-medium", "--scale", "0.15",
            "--sessions", "3", "--max-live", "2", "--policy", "wfq",
            "--step-budget", "30", "--tenant-quota", "solo=free:1",
        )
        assert code == 0
        text = "\n".join(lines)
        assert "throttled" in text
        assert any("identities checked, all hold" in line for line in lines)

    def test_serve_replay_of_committed_fixture(self):
        fixture = Path(__file__).resolve().parent / "data" / "serve_reference.journal"
        code, lines = run_cli("serve", "--replay", str(fixture))
        assert code == 0
        text = "\n".join(lines)
        assert "byte-identical" in text
        assert "16 events" in text

    def test_serve_replay_flags_tampered_journal(self, tmp_path):
        fixture = Path(__file__).resolve().parent / "data" / "serve_reference.journal"
        lines_in = fixture.read_text().splitlines()
        import json as _json

        tampered = []
        for line in lines_in:
            record = _json.loads(line)
            if record.get("kind") == "tick" and record["seq"] == 5:
                record["outcome"] = "completed" if record["outcome"] != "completed" else "ran"
            tampered.append(_json.dumps(record, sort_keys=True, separators=(",", ":")))
        bad = tmp_path / "tampered.journal"
        bad.write_text("\n".join(tampered) + "\n")
        code, lines = run_cli("serve", "--replay", str(bad))
        assert code == 1
        assert any("MISMATCH" in line for line in lines)


class TestBackendChaosCLI:
    def test_run_with_backend_chaos_seed(self):
        code, lines = run_cli(
            "run", "--workload", "synth-high", "--scale", "0.2",
            "--sample-fraction", "0.3", "--backend", "sqlite:",
            "--backend-chaos-seed", "3",
        )
        assert code == 0
        assert any(line.startswith("backend chaos:") for line in lines)
        outcome = [line for line in lines if line.startswith("-- outcome ")]
        assert len(outcome) == 1
        assert "backend retries" in outcome[0]

    def test_limit_run_on_a_file_store_is_flushed_by_the_exit(self, tmp_path):
        """``--limit`` abandons the stream before its terminal step."""
        from repro.storage import SQLiteBackend

        path = tmp_path / "run.db"
        code, lines = run_cli(
            "run", "--workload", "synth-high", "--scale", "0.2", "--limit", "3",
            "--sample-fraction", "0.3", "--backend", f"sqlite:{path}",
        )
        assert code == 0 and any("stopped after 3 results" in line for line in lines)
        reopened = SQLiteBackend(str(path))
        try:
            assert reopened.installed_cell_count("synth_high") > 0
            assert not reopened._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'sw_install_journal'"
            ).fetchone()
        finally:
            reopened.close()

    def test_a_file_that_is_no_database_is_a_clean_error(self, tmp_path):
        path = tmp_path / "notes.db"
        path.write_text("not a database, just a long enough line of plain text\n" * 40)
        code, lines = run_cli("run", "--scale", "0.2", "--backend", f"sqlite:{path}")
        assert code == 2
        assert lines[-1].startswith("error: sqlite:") and "not a database" in lines[-1]

    def test_backend_chaos_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.backend_chaos_seed is None
        assert args.backend_fault_rate == 0.1
