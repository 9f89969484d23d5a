"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "E1", "E2", "--seed", "5", "--full"])
        assert args.experiments == ["E1", "E2"]
        assert args.seed == 5
        assert args.full

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 256 and args.alpha == 0.5 and args.d == 0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.n == 256 and args.window == 32 and args.probes == 32
        assert args.snapshot is None and args.restore is None
        assert not hasattr(args, "sequential")  # the scalar-probe router path is retired

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.sessions == 256 and args.mode == "closed"
        assert not args.quick and args.json is None


class TestCommands:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 13):
            assert f"E{i}" in out
        for i in range(1, 9):
            assert f"X{i}" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "E2", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_run_archives_report(self, tmp_path, capsys):
        assert main(["run", "E2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "E2.txt").exists()

    def test_demo_runs(self, capsys):
        assert main(["demo", "--n", "64", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "discrepancy: 0" in out

    def test_demo_robust(self, capsys):
        assert main(["demo", "--n", "64", "--robust", "--seed", "4"]) == 0

    def test_demo_unknown_d(self, capsys):
        assert main(["demo", "--n", "64", "--d", "2", "--unknown-d", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "unknown_d" in out


class TestServeCommand:
    ARGS = ["serve", "--n", "48", "--max-phases", "1", "--d-max", "2", "--seed", "3"]

    def test_serve_runs_to_done(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "stage done" in out
        assert "discrepancy: 0" in out

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_serve_snapshot_then_restore(self, tmp_path, capsys):
        snap = tmp_path / "snap"
        assert main(self.ARGS + ["--snapshot", str(snap)]) == 0
        first = capsys.readouterr().out
        assert (snap / "manifest.json").is_file()
        assert main(["serve", "--restore", str(snap)]) == 0
        second = capsys.readouterr().out
        assert f"restored   : {snap}" in second
        # The snapshot was cut at the finish barrier: same probe totals.
        probes_line = [l for l in first.splitlines() if l.startswith("probes")][0]
        assert probes_line.split(",")[0] in second

    def test_serve_restore_missing_file(self, tmp_path, capsys):
        assert main(["serve", "--restore", str(tmp_path / "nope.npz")]) == 2
        assert "cannot restore" in capsys.readouterr().out

    def test_serve_restore_corrupt_snapshot(self, tmp_path, capsys):
        """A truncated shard archive exits 2 naming the file, no traceback."""
        snap = tmp_path / "snap"
        assert main(self.ARGS + ["--workers", "2", "--snapshot", str(snap)]) == 0
        capsys.readouterr()
        shard = snap / "shard-001.npz"
        shard.write_bytes(shard.read_bytes()[:100])
        assert main(["serve", "--restore", str(snap)]) == 2
        out = capsys.readouterr().out
        assert "cannot restore" in out and "shard-001.npz" in out


class TestLoadgenCommand:
    def test_loadgen_quick_smoke(self, tmp_path, capsys):
        """The CI smoke invocation: loadgen --sessions 64 --quick."""
        out_json = tmp_path / "report.json"
        code = main(["loadgen", "--sessions", "64", "--quick", "--seed", "3",
                     "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out and "p50" in out
        payload = json.loads(out_json.read_text())
        assert payload["config"]["sessions"] == 64
        assert payload["requests"] > 0

    def test_loadgen_open_mode(self, capsys):
        code = main(["loadgen", "--sessions", "32", "--quick", "--mode", "open",
                     "--rate", "16", "--seed", "3"])
        assert code == 0
        assert "mode     : open" in capsys.readouterr().out

    def test_loadgen_unknown_workload(self, capsys):
        assert main(["loadgen", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_loadgen_warmup_reports_steady_state(self, capsys):
        code = main(["loadgen", "--sessions", "32", "--quick", "--seed", "3",
                     "--warmup", "8"])
        assert code == 0
        assert "steady" in capsys.readouterr().out


class TestMetricsFlags:
    def _run_with_metrics(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        code = main(["loadgen", "--sessions", "32", "--quick", "--seed", "3",
                     "--metrics", str(path), "--metrics-interval", "0"])
        return code, path

    def test_loadgen_metrics_writes_snapshots(self, tmp_path, capsys):
        code, path = self._run_with_metrics(tmp_path)
        assert code == 0
        assert f"metrics  : {path}" in capsys.readouterr().out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta" and lines[0]["version"] == 2
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["counters"]["serve.requests_total"] > 0

    def test_obs_top_renders_final_snapshot(self, tmp_path, capsys):
        _, path = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["obs", "top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot #" in out
        assert "serve.requests_total" in out
        assert "p50" in out and "p99" in out

    def test_obs_export_prometheus_text(self, tmp_path, capsys):
        _, path = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["obs", "export", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_total counter" in out
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"}' in out

    def test_obs_export_snapshot_index_out_of_range(self, tmp_path, capsys):
        _, path = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["obs", "export", str(path), "--snapshot", "99"]) == 2
        assert "snapshot" in capsys.readouterr().out

    def test_obs_top_no_metrics_lines(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        main(["demo", "--n", "64", "--seed", "3", "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["obs", "top", str(path)]) == 2
        assert "no metric snapshots" in capsys.readouterr().out

    def test_obs_export_missing_file(self, tmp_path, capsys):
        assert main(["obs", "export", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such telemetry file" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_demo_telemetry_writes_valid_jsonl(self, tmp_path, capsys):
        """The ISSUE acceptance: demo --telemetry emits valid JSONL whose
        per-phase probe deltas sum exactly to the oracle's charged total."""
        path = tmp_path / "out.jsonl"
        assert main(["demo", "--n", "64", "--seed", "3", "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"telemetry  : {path}" in out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        run = obs.load_jsonl(path)
        assert run.meta["command"] == "demo"
        assert run.probes_total > 0
        assert run.probes_accounted == run.probes_total
        assert run.probes_total == run.counters["oracle.probes_charged"]
        names = {s.name for s in run.spans}
        assert {"demo", "find_preferences"} <= names

    def test_demo_without_telemetry_leaves_recorder_off(self):
        assert main(["demo", "--n", "64", "--seed", "3"]) == 0
        assert not obs.enabled()

    def test_obs_summarize_renders_phase_table(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        main(["demo", "--n", "64", "--d", "2", "--seed", "5", "--telemetry", str(path)])
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry by phase" in out
        assert "find_preferences" in out
        assert "(exact)" in out

    def test_obs_summarize_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such telemetry file" in capsys.readouterr().out

    def test_obs_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["obs", "summarize", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_report_telemetry_archives_jsonl(self, tmp_path, capsys):
        out_md = tmp_path / "REPORT.md"
        code = main(
            ["report", "--out", str(out_md), "--experiments", "E2", "--telemetry"]
        )
        assert code == 0
        assert out_md.exists()
        sidecar = tmp_path / "REPORT.telemetry.jsonl"
        assert sidecar.exists()
        assert f"telemetry archived at {sidecar}" in capsys.readouterr().out
        run = obs.load_jsonl(sidecar)
        assert run.meta["command"] == "report"
        assert any(s.name == "experiment/E2" for s in run.spans)
