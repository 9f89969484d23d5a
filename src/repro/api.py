"""The stable public API of :mod:`repro`.

``repro.api`` is the supported, version-stable surface for external
callers: everything here has a pinned name and signature (guarded by
``tests/test_api_surface.py``), while the submodules it re-exports from
remain free to reorganise internally.  Import from here::

    from repro import api

    inst = api.make_instance("planted", n=256, m=256, alpha=0.5, D=2, rng=7)
    oracle = api.ProbeOracle(inst)
    result = api.find_preferences(oracle, alpha=0.5, D=2, rng=7)

The surface groups into four layers:

* **substrate** — :class:`ProbeOracle` (per-player charging; the batched
  ``probe_many`` fast path charges identically to scalar ``probe``),
  :class:`ProbeStats`, and the packed-word storage layer
  :class:`BitMatrix` the oracle and billboard always store in.  The
  substrate's hot kernels dispatch through :mod:`repro.metrics.kernels`;
  :func:`kernel_backend` / :func:`kernel_info` report which backend
  (``"numpy"`` reference or the optional ``"compiled"`` cffi extension)
  this process selected and why, and :func:`numpy_kernels` forces the reference backend on the
  current thread for in-process A/B.
* **algorithms** — :func:`find_preferences` and the unknown-parameter
  wrappers, :class:`Params`, :class:`RunResult` (whose ``meta`` keys are
  the closed vocabulary :data:`META_KEYS`, checked by
  :func:`validate_meta`); every run probes through the
  population-batched drivers.
* **workloads** — the :data:`WORKLOADS` registry and
  :func:`make_instance`.
* **parallel trials** — :func:`run_trials` / :func:`derive_seeds` and
  the shared-memory instance transport
  (:class:`SharedInstanceStore` / :class:`SharedInstanceHandle`,
  composed by :func:`sweep_trials`).
* **serving** — the topology-agnostic entrypoint :func:`serve`, which
  takes :class:`ServeConfig` (including ``workers``) and returns a
  :class:`ServeRuntime` — the in-process engine for ``workers=1``, the
  sharded multi-process runtime above the shared packed oracle for
  ``workers>1`` — plus the building blocks it wires
  (:class:`ServeService`, :class:`MicroBatchRouter` /
  :class:`RouterConfig`), whole-deployment snapshots
  :func:`save_runtime` / :func:`load_runtime` (one v4 snapshot
  directory, restored to *any* worker count), and :func:`run_loadgen` with
  :class:`LoadgenConfig` / :class:`LoadgenReport`; plus the standalone
  accounting archives :func:`save_probe_stats` /
  :func:`load_probe_stats`.
* **live metrics** — :class:`MetricRegistry` (process-wide counters,
  gauges, and fixed-bucket histograms with exact cross-process merges),
  :class:`MetricsSnapshotSink` (periodic JSONL snapshots), and the
  :func:`metrics_collecting` activation switch; zero overhead when no
  registry is active.

Every ``rng`` / ``seed`` parameter across this surface uniformly accepts
``int | numpy.random.Generator | None`` (see
:func:`repro.utils.rng.as_generator`).

Eight retired names resolve for one more release through a module
``__getattr__``; each access warns with ``DeprecationWarning``, and none
is in ``__all__``:

* the six storage and probe-driver switches (``dense_substrate``,
  ``packed_substrate``, ``packed_substrate_enabled``,
  ``sequential_probes``, ``batched_probes``, ``batching_enabled``)
  return a no-op context manager or a function returning ``True``;
* the single-service archive functions forward to the v4 snapshot
  format: ``save_service(path, service)`` writes a one-worker
  :func:`save_runtime` directory, and ``load_service(path)`` returns
  ``load_runtime(path, workers=1).service``.
"""

from __future__ import annotations

import contextlib
import warnings
from pathlib import Path
from typing import Any, Callable

from repro.billboard.accounting import ProbeStats
from repro.billboard.oracle import BudgetExceededError, ProbeOracle
from repro.core.main import (
    anytime_find_preferences,
    find_preferences,
    find_preferences_unknown_d,
)
from repro.core.params import Params
from repro.core.result import META_KEYS, RunResult, validate_meta
from repro.experiments.harness import sweep_trials
from repro.io import load_probe_stats, save_probe_stats
from repro.metrics.bitpack import BitMatrix
from repro.metrics.evaluation import evaluate
from repro.metrics.kernels import kernel_backend, kernel_info, numpy_kernels
from repro.model.community import Community
from repro.model.instance import Instance
from repro.obs.metrics import MetricRegistry, MetricsSnapshotSink
from repro.obs.metrics import collecting as metrics_collecting
from repro.parallel import (
    SharedInstanceHandle,
    SharedInstanceStore,
    derive_seeds,
    run_trials,
)
from repro.serve import (
    LoadgenConfig,
    LoadgenReport,
    LocalRuntime,
    MicroBatchRouter,
    RouterConfig,
    ServeConfig,
    ServeRuntime,
    ServeService,
    load_runtime,
    run_loadgen,
    save_runtime,
    serve,
)
from repro.utils.rng import as_generator
from repro.workloads.registry import WORKLOADS, make_instance

__all__ = [
    # substrate
    "ProbeOracle",
    "ProbeStats",
    "BudgetExceededError",
    "BitMatrix",
    "kernel_backend",
    "kernel_info",
    "numpy_kernels",
    # model
    "Instance",
    "Community",
    # algorithms
    "Params",
    "RunResult",
    "META_KEYS",
    "validate_meta",
    "find_preferences",
    "find_preferences_unknown_d",
    "anytime_find_preferences",
    # metrics
    "evaluate",
    # workloads
    "WORKLOADS",
    "make_instance",
    # parallel trials
    "run_trials",
    "derive_seeds",
    "sweep_trials",
    "SharedInstanceStore",
    "SharedInstanceHandle",
    # serving
    "serve",
    "ServeRuntime",
    "ServeService",
    "ServeConfig",
    "MicroBatchRouter",
    "RouterConfig",
    "save_runtime",
    "load_runtime",
    "run_loadgen",
    "LoadgenConfig",
    "LoadgenReport",
    "save_probe_stats",
    "load_probe_stats",
    # live metrics
    "MetricRegistry",
    "MetricsSnapshotSink",
    "metrics_collecting",
    # rng contract
    "as_generator",
]


def _always_enabled() -> bool:
    return True


def _save_service(path: str | Path, service: ServeService) -> Path:
    return save_runtime(path, LocalRuntime(service))


def _load_service(path: str | Path) -> ServeService:
    runtime = load_runtime(path, workers=1)
    assert isinstance(runtime, LocalRuntime)
    return runtime.service


_BIT_PACKED = "and does nothing: the oracle and billboard always store bit-packed"
_BATCHED = "and does nothing: every run probes through the batched drivers"

#: Retired name -> (stand-in, what it does now).
_RETIRED: dict[str, tuple[Callable[..., Any], str]] = {
    "dense_substrate": (contextlib.nullcontext, _BIT_PACKED),
    "packed_substrate": (contextlib.nullcontext, _BIT_PACKED),
    "packed_substrate_enabled": (_always_enabled, _BIT_PACKED),
    "sequential_probes": (contextlib.nullcontext, _BATCHED),
    "batched_probes": (contextlib.nullcontext, _BATCHED),
    "batching_enabled": (_always_enabled, _BATCHED),
    "save_service": (_save_service, "and writes a one-worker v4 snapshot directory; use save_runtime"),
    "load_service": (_load_service, "and reads a v4 snapshot directory; use load_runtime(path, workers=1)"),
}


def __getattr__(name: str) -> object:
    retired = _RETIRED.get(name)
    if retired is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    stand_in, reason = retired
    warnings.warn(
        f"repro.api.{name} is deprecated {reason}; it will be removed in the next release",
        DeprecationWarning,
        stacklevel=2,
    )
    return stand_in
