"""Open/closed-loop load generator for the serving runtime.

Builds an instance from the :data:`~repro.workloads.registry.WORKLOADS`
registry, stands up a serving runtime through the topology-agnostic
:func:`~repro.serve.runtime.serve` entrypoint (``workers=1`` in-process,
``workers>1`` sharded across processes), and drives it with a synthetic
arrival schedule:

* **closed loop** (``mode="closed"``) — every unfinished session has
  exactly one request in flight per round: the classic
  think-time-zero saturation workload;
* **open loop** (``mode="open"``) — each batching window receives a
  ``Poisson(rate)`` number of requests aimed at uniformly sampled
  unfinished sessions, the arrival process of independent users.

Per-request latency is the wall-clock time of the flush that served the
request (requests in one micro-batch share their window's latency —
that *is* the cost model of micro-batching); the report carries
throughput, p50/p95/p99 latency, probes-per-request, and batch
occupancy.  Wall-clock numbers vary run to run, but the served outputs
and probe counts are fully determined by the config's seed.

Latency percentiles are derived from the **same fixed-bucket histograms**
the live metrics layer uses (:class:`repro.obs.metrics.Histogram` over
:data:`~repro.obs.metrics.LATENCY_BUCKETS_S`): every per-request latency
is observed both into the report's local histogram and — when a registry
is active — into the registry's ``serve.request_latency_seconds``
histogram, so ``repro obs top``, the JSONL metric snapshots, and the
report all print identical p50/p95/p99 for one run.  ``warmup`` excludes
the first N requests from a second, steady-state histogram whose
percentiles the report carries separately.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.obs.metrics import (
    Histogram,
    MetricRegistry,
    MetricsSnapshotSink,
    collecting,
    get_registry,
)
from repro.datasets.store import DatasetStore
from repro.metrics.bitpack import BitMatrix
from repro.model.instance import Instance
from repro.serve.config import ServeConfig
from repro.serve.runtime import ServeRuntime, serve
from repro.utils.rng import as_generator
from repro.workloads.registry import make_instance

__all__ = ["LoadgenConfig", "LoadgenReport", "dump_report_json", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation scenario (see module docstring)."""

    workload: str = "planted"
    dataset: str | None = None
    sessions: int = 256
    objects: int | None = None
    alpha: float = 0.5
    D: int = 0
    seed: int = 7
    mode: str = "closed"
    rate: float = 64.0
    probes_per_request: int = 32
    window: int = 32
    max_phases: int | None = 1
    d_max: int | None = 2
    budget: int | None = None
    workers: int = 1
    log_capacity: int | None = None
    max_requests: int = 1_000_000
    warmup: int = 0
    metrics_path: str | None = None
    metrics_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.sessions <= 0:
            raise ValueError(f"sessions must be positive, got {self.sessions}")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError(f"open-loop rate must be positive, got {self.rate}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")
        if self.metrics_interval_s < 0:
            raise ValueError(
                f"metrics_interval_s must be non-negative, got {self.metrics_interval_s}"
            )


@dataclass
class LoadgenReport:
    """Result of one :func:`run_loadgen` run."""

    config: LoadgenConfig
    requests: int
    probes_total: int
    flushes: int
    wall_s: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    steady_requests: int
    steady_p50_ms: float
    steady_p95_ms: float
    steady_p99_ms: float
    probes_per_request: float
    mean_occupancy: float
    phases_completed: int
    sessions_complete: int
    sessions_drained: int
    outputs_sha: str
    latencies_ms: list[float] = field(repr=False, default_factory=list)

    def render(self) -> str:
        """Human-readable report block."""
        cfg = self.config
        if cfg.dataset is not None:
            head = f"loadgen  : dataset {cfg.dataset} seed={cfg.seed}"
        else:
            shape = f"{cfg.sessions}x{cfg.objects if cfg.objects is not None else cfg.sessions}"
            head = f"loadgen  : {cfg.workload} {shape} alpha={cfg.alpha} D={cfg.D} seed={cfg.seed}"
        lines = [
            head,
            f"mode     : {cfg.mode}"
            + (f" (rate={cfg.rate:g}/window)" if cfg.mode == "open" else "")
            + f", window={cfg.window}, grant={cfg.probes_per_request} probes, "
            + "micro-batched"
            + (f", {cfg.workers} workers" if cfg.workers > 1 else ""),
            f"requests : {self.requests} in {self.wall_s:.3f}s -> {self.throughput_rps:,.0f} req/s",
            f"latency  : p50={self.p50_ms:.3f}ms  p95={self.p95_ms:.3f}ms  p99={self.p99_ms:.3f}ms",
        ]
        if self.config.warmup > 0:
            lines.append(
                f"steady   : {self.steady_requests} requests after warmup={self.config.warmup}: "
                f"p50={self.steady_p50_ms:.3f}ms  p95={self.steady_p95_ms:.3f}ms  "
                f"p99={self.steady_p99_ms:.3f}ms"
            )
        lines += [
            f"probes   : {self.probes_total} total, {self.probes_per_request:.1f}/request",
            f"batches  : {self.flushes} flushes, mean occupancy {self.mean_occupancy:.1f}",
            f"service  : {self.phases_completed} phases completed, "
            f"{self.sessions_complete} complete / {self.sessions_drained} drained sessions",
            f"outputs  : sha256 {self.outputs_sha[:16]}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable dict (drops the raw latency samples)."""
        payload = asdict(self)
        payload["config"] = asdict(self.config)
        del payload["latencies_ms"]
        return payload


def _quantile_ms(hist: Histogram, q: float) -> float:
    """Histogram-derived quantile in milliseconds (observations are seconds)."""
    return hist.quantile(q) * 1000.0


def _arrivals(
    config: LoadgenConfig, runtime: ServeRuntime, gen: np.random.Generator
) -> list[int]:
    """Players targeted by the next batching window."""
    open_sessions = runtime.open_players()
    if not open_sessions:
        return []
    if config.mode == "closed":
        return open_sessions
    k = max(1, int(gen.poisson(config.rate)))
    picks = gen.integers(0, len(open_sessions), size=k)
    return [open_sessions[int(i)] for i in picks]


def run_loadgen(config: LoadgenConfig | None = None) -> LoadgenReport:
    """Run one load-generation scenario and return its report.

    The service seed is derived from ``config.seed`` (instance and
    service use adjacent seeds), so two runs of the same config serve
    bit-identical outputs — only the wall-clock figures differ.
    """
    cfg = config if config is not None else LoadgenConfig()
    instance: Instance | BitMatrix
    if cfg.dataset is not None:
        store = DatasetStore.open(cfg.dataset)
        # Attach the packed mirror read-only when the ingest wrote one;
        # either way the matrix stays packed all the way into the oracle.
        instance = store.bitmatrix(mmap=store.manifest.get("packed_mirror") is not None)
    else:
        m = cfg.objects if cfg.objects is not None else cfg.sessions
        instance = make_instance(cfg.workload, cfg.sessions, m, cfg.alpha, cfg.D, rng=cfg.seed)
    serve_config = ServeConfig(
        seed=cfg.seed + 1,
        max_phases=cfg.max_phases,
        d_max=cfg.d_max,
        budget=cfg.budget,
        workers=cfg.workers,
        window=cfg.window,
        probes_per_request=cfg.probes_per_request,
        log_capacity=cfg.log_capacity,
    )
    arrival_gen = as_generator(cfg.seed + 2)

    hist_all = Histogram("serve.request_latency_seconds")
    hist_steady = Histogram("serve.request_latency_seconds.steady")
    latencies_ms: list[float] = []
    requests = 0
    flushes = 0
    occupancy_total = 0
    with ExitStack() as stack:
        runtime = stack.enter_context(serve(instance, serve_config))
        sink: MetricsSnapshotSink | None = None
        if cfg.metrics_path is not None:
            registry = stack.enter_context(collecting(MetricRegistry()))
            sink = stack.enter_context(
                MetricsSnapshotSink(
                    cfg.metrics_path,
                    registry,
                    interval_s=cfg.metrics_interval_s,
                    meta={"tool": "repro.loadgen", "seed": cfg.seed, "mode": cfg.mode},
                )
            )
        t0 = time.perf_counter()
        while not runtime.finished and requests < cfg.max_requests:
            players = _arrivals(cfg, runtime, arrival_gen)
            if not players:
                break
            for start in range(0, len(players), cfg.window):
                chunk = players[start : start + cfg.window]
                t1 = time.perf_counter()
                for player in chunk:
                    runtime.submit(player)
                runtime.flush()
                dt_s = time.perf_counter() - t1
                latencies_ms.extend([dt_s * 1000.0] * len(chunk))
                active = get_registry()
                for i in range(len(chunk)):
                    hist_all.observe(dt_s)
                    if requests + i >= cfg.warmup:
                        hist_steady.observe(dt_s)
                    if active is not None:
                        active.observe("serve.request_latency_seconds", dt_s)
                requests += len(chunk)
                flushes += 1
                occupancy_total += len(chunk)
                if sink is not None:
                    sink.maybe_write()
        wall_s = time.perf_counter() - t0
        active = get_registry()
        if active is not None and runtime.workers > 1:
            # Fold the shard workers' registries in (exact bucket adds)
            # so the final snapshot covers the whole deployment; the
            # in-process runtime already writes to the active registry.
            active.merge(runtime.merged_metrics())
        if sink is not None:
            sink.write()  # final snapshot: the run's complete histograms

        outputs = runtime.outputs()
        probes_total = int(runtime.probe_counts().sum())
        report = LoadgenReport(
            config=cfg,
            requests=requests,
            probes_total=probes_total,
            flushes=flushes,
            wall_s=wall_s,
            throughput_rps=requests / wall_s if wall_s > 0 else 0.0,
            p50_ms=_quantile_ms(hist_all, 0.50),
            p95_ms=_quantile_ms(hist_all, 0.95),
            p99_ms=_quantile_ms(hist_all, 0.99),
            steady_requests=hist_steady.count,
            steady_p50_ms=_quantile_ms(hist_steady, 0.50),
            steady_p95_ms=_quantile_ms(hist_steady, 0.95),
            steady_p99_ms=_quantile_ms(hist_steady, 0.99),
            probes_per_request=probes_total / requests if requests else 0.0,
            mean_occupancy=occupancy_total / flushes if flushes else 0.0,
            phases_completed=runtime.phases_completed,
            sessions_complete=runtime.session_count("complete"),
            sessions_drained=runtime.session_count("drained"),
            outputs_sha=hashlib.sha256(
                np.ascontiguousarray(outputs).tobytes()
            ).hexdigest(),
            latencies_ms=latencies_ms,
        )
    return report


def dump_report_json(path: str, report: LoadgenReport) -> None:
    """Write *report* as JSON (CLI ``--json`` helper)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
