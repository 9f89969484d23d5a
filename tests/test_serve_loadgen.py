"""Tests for the load generator: determinism, report shape, arrival modes.

Wall-clock figures (throughput, latency percentiles) vary run to run, so
the tests pin what is deterministic — served bits, probe totals, request
accounting — and only sanity-check the timing fields.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.schema import load_jsonl
from repro.serve import LoadgenConfig, run_loadgen
from repro.serve.loadgen import dump_report_json

QUICK = dict(sessions=48, D=2, seed=9, max_phases=1, d_max=1, window=16, probes_per_request=8)


class TestDeterminism:
    def test_same_config_serves_same_bits(self):
        a = run_loadgen(LoadgenConfig(**QUICK))
        b = run_loadgen(LoadgenConfig(**QUICK))
        assert a.outputs_sha == b.outputs_sha
        assert a.probes_total == b.probes_total
        assert a.requests == b.requests

    def test_open_loop_serves_same_bits_as_closed(self):
        """Arrival schedule changes latency, never the served answer."""
        closed = run_loadgen(LoadgenConfig(**QUICK))
        open_loop = run_loadgen(LoadgenConfig(mode="open", rate=24.0, **QUICK))
        assert open_loop.outputs_sha == closed.outputs_sha
        assert open_loop.probes_total == closed.probes_total

    def test_sequential_probes_serve_same_bits(self):
        """The retired ``sequential_probes`` toggle is a deprecated no-op."""
        from repro import api

        micro = run_loadgen(LoadgenConfig(**QUICK))
        with pytest.deprecated_call(match="sequential_probes is deprecated"):
            toggle = api.sequential_probes
        with toggle():
            sequential = run_loadgen(LoadgenConfig(**QUICK))
        assert sequential.outputs_sha == micro.outputs_sha
        assert sequential.probes_total == micro.probes_total


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_loadgen(LoadgenConfig(**QUICK))

    def test_accounting(self, report):
        assert report.requests > 0
        assert report.probes_total > 0
        assert report.flushes > 0
        assert report.probes_per_request == pytest.approx(
            report.probes_total / report.requests
        )
        assert 0 < report.mean_occupancy <= QUICK["window"]
        assert report.sessions_complete == QUICK["sessions"]
        assert report.sessions_drained == 0
        assert report.phases_completed == 1

    def test_latency_percentiles_ordered(self, report):
        assert len(report.latencies_ms) == report.requests
        assert 0 <= report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.throughput_rps > 0

    def test_render_mentions_the_headline_figures(self, report):
        text = report.render()
        assert "req/s" in text
        assert "p50" in text and "p99" in text
        assert report.outputs_sha[:16] in text

    def test_to_json_is_serialisable_and_drops_samples(self, report):
        payload = report.to_json()
        assert "latencies_ms" not in payload
        assert payload["config"]["sessions"] == QUICK["sessions"]
        json.dumps(payload)  # must not raise

    def test_dump_report_json(self, report, tmp_path):
        path = tmp_path / "report.json"
        dump_report_json(str(path), report)
        loaded = json.loads(path.read_text())
        assert loaded["outputs_sha"] == report.outputs_sha
        assert loaded["requests"] == report.requests


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            LoadgenConfig(mode="sideways")

    def test_bad_sessions_rejected(self):
        with pytest.raises(ValueError, match="sessions"):
            LoadgenConfig(sessions=0)

    def test_bad_open_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            LoadgenConfig(mode="open", rate=0.0)

    def test_max_requests_caps_the_run(self):
        report = run_loadgen(LoadgenConfig(max_requests=32, **QUICK))
        assert report.requests <= 32 + QUICK["window"]
        assert report.sessions_complete < QUICK["sessions"]


class TestBudgetedLoad:
    def test_budgeted_run_drains_gracefully(self):
        report = run_loadgen(LoadgenConfig(budget=40, **QUICK))
        assert report.sessions_drained == QUICK["sessions"]
        assert report.sessions_complete == 0
        assert report.phases_completed == 0


class TestWarmup:
    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            LoadgenConfig(warmup=-1)
        with pytest.raises(ValueError, match="metrics_interval_s"):
            LoadgenConfig(metrics_interval_s=-0.5)

    def test_warmup_excludes_early_requests_from_steady_figures(self):
        report = run_loadgen(LoadgenConfig(warmup=16, **QUICK))
        assert report.steady_requests == report.requests - 16
        assert 0 <= report.steady_p50_ms <= report.steady_p95_ms <= report.steady_p99_ms
        assert "steady" in report.render()

    def test_zero_warmup_steady_equals_overall(self):
        report = run_loadgen(LoadgenConfig(**QUICK))
        assert report.steady_requests == report.requests
        assert (report.steady_p50_ms, report.steady_p95_ms, report.steady_p99_ms) == (
            report.p50_ms,
            report.p95_ms,
            report.p99_ms,
        )
        assert "steady" not in report.render()


class TestMetricsIntegration:
    """The ISSUE acceptance: loadgen with metrics on emits snapshots whose
    histogram-derived percentiles match the report's, and serves the same
    bits as a metrics-off run."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metrics") / "metrics.jsonl"
        report = run_loadgen(
            LoadgenConfig(metrics_path=str(path), metrics_interval_s=0.0, **QUICK)
        )
        return report, load_jsonl(path)

    def test_metrics_on_serves_identical_bits(self, run):
        report, _ = run
        baseline = run_loadgen(LoadgenConfig(**QUICK))
        assert report.outputs_sha == baseline.outputs_sha
        assert report.probes_total == baseline.probes_total
        assert report.requests == baseline.requests

    def test_snapshot_percentiles_match_report_exactly(self, run):
        """Same fixed buckets on both sides, so the snapshot-derived
        p50/p95/p99 equal the report's to the bit, not approximately."""
        report, telemetry = run
        final = telemetry.metrics[-1]
        hist = Histogram.from_snapshot(
            "serve.request_latency_seconds",
            final["histograms"]["serve.request_latency_seconds"],
        )
        assert hist.count == report.requests
        assert hist.quantile(0.50) * 1000.0 == report.p50_ms
        assert hist.quantile(0.95) * 1000.0 == report.p95_ms
        assert hist.quantile(0.99) * 1000.0 == report.p99_ms

    def test_snapshots_carry_the_serving_lifecycle(self, run):
        report, telemetry = run
        assert telemetry.metrics, "no metrics lines written"
        assert [m["seq"] for m in telemetry.metrics] == list(range(len(telemetry.metrics)))
        counters = telemetry.metrics[-1]["counters"]
        assert counters["serve.requests_total"] == report.requests
        assert counters["serve.probes_total"] == report.probes_total
        assert counters["serve.flushes_total"] == report.flushes
        assert counters["serve.phases_completed_total"] == report.phases_completed
        assert counters["board.vector_posts_total"] > 0
        histograms = telemetry.metrics[-1]["histograms"]
        assert histograms["serve.flush_occupancy"]["count"] == report.flushes
        assert histograms["serve.wavefront_size"]["count"] > 0

    def test_final_registry_exports_prometheus_text(self, run):
        _, telemetry = run
        text = MetricRegistry.from_snapshot(telemetry.metrics[-1]).expose_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"}' in text
