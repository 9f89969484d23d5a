"""Tests of the benchmark itself: tiny-n smoke runs, the gate, the contract.

Run with ``python -m pytest perfbench/tests`` from the root of a checkout.
Tiny populations flush too few times to support a p99 with ten samples
beyond it, so the smoke runs lower ``MIN_BEYOND``; the refusal itself is
tested separately.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads
from repro import api

ROOT = Path(__file__).resolve().parents[2]
TINY = 48
SEED = 5


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], n=TINY)


@pytest.fixture
def thin_tails(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(workloads, "MIN_BEYOND", 0)


def end_to_end_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name: str, thin_tails: None) -> None:
    result = workloads.run(tiny(name), SEED, 0.0, False)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    assert list(result.metrics) == end_to_end_names()
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.context["kernel_backend"] in ("numpy", "compiled")
    assert result.context["seed"] == SEED


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_covers_the_wall(name: str, thin_tails: None) -> None:
    result = workloads.run(tiny(name), SEED, 0.0, True)
    assert result.correct, result.problems
    assert list(result.metrics) == [metric for metric, _, _ in layers.PER_LAYER]
    values = {metric: value for metric, (value, _) in result.metrics.items()}
    assert values["trace.coverage"] >= 0.9
    assert "other" in result.table
    if name.startswith("serve"):
        assert values["sessions.advance_calls"] > 0
        assert values["runtime.flushes"] > 0
    else:
        assert values["sessions.advance_calls"] == 0
        assert values["kernels.scan_column.calls"] > 0
    if name == "serve-sharded":
        assert values["postlog.appends"] > 0 and values["sharded.worker_busy_s"] > 0


def test_tracer_restores_the_program() -> None:
    from repro.billboard.board import Billboard
    from repro.serve import router

    before = (Billboard.has_channels, router.advance)
    with layers.Tracer().installed():
        assert Billboard.has_channels is not before[0]
        assert router.advance is not before[1]
    assert (Billboard.has_channels, router.advance) == before


def test_traced_single_probe_is_counted() -> None:
    from repro.obs.metrics import MetricRegistry, collecting

    inst = api.make_instance("planted", TINY, TINY, workloads.ALPHA, workloads.DIAMETER, rng=SEED)
    registry = MetricRegistry()
    with layers.Tracer().installed(), collecting(registry):
        oracle = api.ProbeOracle(inst)
        oracle.probe(1, 2)
        oracle.probe_many(np.array([0, 1]), np.array([3, 4]))
    view = layers.LayerView(registry)
    assert view.calls("kernels.extract_bits") + view.calls("kernels.fused_extract_post") == 2
    assert view.counter("trace.oracle.probe.probes") == 2
    assert sum(view.counter(f"trace.kernels.{k}.bytes") for k in ("extract_bits", "fused_extract_post")) > 0


def test_coverage_leaves_out_catch_all_spans() -> None:
    from repro.obs.metrics import MetricRegistry

    front = MetricRegistry()
    front.observe("trace.core.main.self_s", 0.9)
    front.observe("trace.oracle.probe.self_s", 0.1)
    per_layer = layers.derive(front, None, wall_s=1.0, n_workers=1, untraced_wall_s=1.0)
    assert per_layer["trace.coverage"] == pytest.approx(0.1)
    workers = MetricRegistry()
    workers.observe("trace.sharded.worker.self_s", 1.5)
    workers.incr("trace.sharded.worker.total_s", 2.0)
    workers.observe("trace.sessions.advance.self_s", 0.5)
    front = MetricRegistry()
    front.observe("trace.sharded.frontend.self_s", 1.0)
    per_layer = layers.derive(front, workers, wall_s=1.0, n_workers=2, untraced_wall_s=1.0)
    assert per_layer["trace.coverage"] == pytest.approx(0.25)


def _serve_passes(name: str) -> tuple[workloads.Workload, list[workloads.Pass]]:
    w = tiny(name)
    return w, [workloads.single_pass(w, SEED)]


@pytest.mark.parametrize("name", ["serve-closed", "serve-sharded"])
def test_gate_fails_on_a_corrupted_serve_output(name: str) -> None:
    w, passes = _serve_passes(name)
    assert workloads.check(w, passes).ok
    outputs = passes[0].outputs.copy()
    outputs[3, 7] ^= 1
    corrupted = dataclasses.replace(passes[0], outputs=outputs)
    gate = workloads.check(w, [corrupted])
    assert not gate.ok
    assert any("offline reference" in p for p in gate.problems)


def test_gate_fails_on_corrupted_probe_counts() -> None:
    w, passes = _serve_passes("serve-closed")
    counts = passes[0].counts.copy()
    counts[0] += 1
    gate = workloads.check(w, [dataclasses.replace(passes[0], counts=counts)])
    assert not gate.ok


def test_gate_fails_on_a_mismatched_response() -> None:
    w, passes = _serve_passes("serve-closed")
    gate = workloads.check(w, [dataclasses.replace(passes[0], failed=1)])
    assert not gate.ok


def test_mismatched_counts_missing_and_invalid_responses() -> None:
    from repro.serve.router import Response

    ok = Response(player=1, status="active", probes_used=3, phases_completed=0, estimate=None)
    over = dataclasses.replace(ok, player=2, probes_used=workloads.PROBES_PER_REQUEST + 1)
    assert workloads._mismatched([1], [ok]) == 0
    assert workloads._mismatched([1, 2], [ok]) == 1
    assert workloads._mismatched([1, 2], [ok, over]) == 1
    assert workloads._mismatched([1], [ok, ok]) == 1


def test_offline_gate_fails_on_corrupted_outputs() -> None:
    w = tiny("offline-anytime")
    first = workloads.single_pass(w, SEED)
    assert workloads.check(w, [first, workloads.single_pass(w, SEED, 1)]).ok
    inverted = dataclasses.replace(first, outputs=(1 - first.outputs).astype(first.outputs.dtype))
    gate = workloads.check(w, [first, inverted])
    assert not gate.ok
    assert any("same inputs" in p for p in gate.problems)
    assert any("stretch" in p for p in gate.problems)


@pytest.mark.parametrize("field", ["counts", "reported"])
def test_offline_gate_fails_on_miscounted_probes(field: str) -> None:
    w = tiny("offline-anytime")
    first = workloads.single_pass(w, SEED)
    counts = getattr(first, field).copy()
    counts[0] += 1
    gate = workloads.check(w, [dataclasses.replace(first, **{field: counts})])
    assert not gate.ok
    assert any("probes issued" in p for p in gate.problems)


def test_percentile_refuses_a_thin_tail() -> None:
    samples = list(np.linspace(0.0, 1.0, 500))
    with pytest.raises(workloads.InsufficientSamples):
        workloads.percentile(samples, 0.99)
    value, beyond = workloads.percentile(list(np.linspace(0.0, 1.0, 2000)), 0.99)
    assert beyond >= workloads.MIN_BEYOND and 0.98 < value < 1.0


def test_percentiles_are_medians_over_groups_of_passes() -> None:
    def fake(low: float, count: int) -> workloads.Pass:
        return workloads.Pass(1.0, list(np.linspace(low, low + 1.0, count)), 1, 0, None, None)

    size = workloads.GROUP_SAMPLES
    passes = [fake(0.0, size // 2) for _ in range(5)] + [fake(10.0, size)]
    groups = workloads.sample_groups(passes)
    assert [len(g) for g in groups] == [size, size, size + size // 2]
    value, beyond = workloads.grouped_percentile(groups, 0.5)
    assert value == pytest.approx(0.5) and beyond >= size // 2 - 1
    # fewer samples than one group: a single group, so the refusal still applies
    thin = workloads.sample_groups([fake(0.0, 500)])
    assert [len(g) for g in thin] == [500]
    with pytest.raises(workloads.InsufficientSamples):
        workloads.grouped_percentile(thin, 0.99)


def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_refuses_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-closed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stop_children_leaves_no_process_behind() -> None:
    from multiprocessing import active_children, resource_tracker

    import perfbench

    deploy = workloads.setup(tiny("serve-sharded"), workloads.inputs(SEED, 0))
    deploy.close()
    perfbench.stop_children()
    assert active_children() == []
    assert resource_tracker._resource_tracker._pid is None
