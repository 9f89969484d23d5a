"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public functions of each layer from the
benchmark's own files; the program itself is never edited.  A wrapper
records one span per call into the active :mod:`repro.obs.metrics`
registry:

* histogram ``trace.<span>.self_s`` — its exact ``count`` is the number
  of calls and its ``sum`` the span's *self* time: the call's duration
  minus the time spent in wrapped calls beneath it;
* counter ``trace.<span>.total_s`` — inclusive duration;
* counters ``trace.<...>`` for the work a call did (names checked,
  rows gathered, probes issued, bytes appended), taken from the call's
  arguments and result.

A call re-entering the span it is already inside (a subclass method
calling its wrapped base) folds into the outer span.  Wrappers are
installed before the runtime is stood up, so forked serve workers carry
them; each worker records into its own registry, and the front end
reads the workers' numbers back through
:meth:`~repro.serve.runtime.ServeRuntime.merged_metrics` — histogram
counts and sums merge exactly.  Counters the program already keeps
(``serve.wavefronts_total``, ``serve.wait_parks_total``, ...) are read,
not re-derived.

Tracing costs a few hundred nanoseconds per wrapped call, charged to
the caller's self time; the traced run reports that cost as
``trace.overhead`` against an untraced pass on the same inputs.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections.abc import Callable, Iterator, Sized
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricRegistry

__all__ = ["PER_LAYER", "ROOT_SPANS", "Tracer", "derive", "render_table"]

#: ``(args, kwargs, result) -> {counter suffix: amount}``
Counts = Callable[[tuple, dict, Any], dict[str, float]]

#: Catch-all spans: the benchmark's own submit+flush loop, the anytime
#: driver, and the sharded worker's request handler.  Their self time is
#: work no named layer explains, so it counts as ``other``, never as
#: coverage.
ROOT_SPANS = ("runtime.flush", "core.main", "sharded.worker")

_KERNELS = ("fused_extract_post", "extract_bits", "scatter_values", "scan_column", "pair_agreements")
_CORE = ("select_batched", "rselect_batched", "zero_radius", "small_radius", "large_radius", "coalesce")


def _names(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    channels = args[1]
    return {"names": len(channels) if isinstance(channels, Sized) else 0}


def _waits(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"waits": 1 if result == "wait" else 0}


def _probes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"probes": np.asarray(args[1]).size}


def _probe_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Bytes a probe kernel moves, computed from its argument sizes.

    Both index arrays are read whole; each probe reads one packed byte
    and writes one ``int8`` result (the fused kernel also writes one
    ``int8`` into the grade sink and, when charging, read-modify-writes
    one ``int64`` count).
    """
    rows, cols = (args[1], args[2]) if len(args) == 3 else (args[2], args[3])
    rows, cols = np.asarray(rows), np.asarray(cols)  # a single probe passes 0-d arrays
    k = rows.size
    moved = rows.nbytes + cols.nbytes + 2 * k
    if len(args) > 3:
        counts = args[4] if len(args) > 4 else kwargs.get("counts")
        moved += k + (16 * k if counts is not None else 0)
    return {"bytes": moved}


def _append_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    payload = args[5] if len(args) > 5 else kwargs.get("payload", b"")
    return {"bytes": len(args[3]) + len(payload)}


def _installed(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"records": int(result)}


@dataclass(frozen=True)
class Tap:
    """One wrapped function: ``module`` + ``target`` (``func`` or ``Class.method``)."""

    span: str
    module: str
    target: str
    counts: Counts | None = None


def _taps() -> list[Tap]:
    taps = [
        Tap("router", "repro.serve.router", "MicroBatchRouter.submit"),
        Tap("router", "repro.serve.router", "MicroBatchRouter.flush"),
        Tap("sessions.advance", "repro.serve.sessions", "advance", _waits),
        Tap("billboard.readiness", "repro.billboard.board", "Billboard.has_channels", _names),
        Tap("billboard.vote_gather", "repro.billboard.board", "Billboard.read_first_rows_packed", _names),
        Tap("billboard.vote_gather", "repro.billboard.board", "Billboard.read_first_rows", _names),
        Tap("billboard.post", "repro.billboard.board", "Billboard.post_vectors"),
        Tap("billboard.post", "repro.billboard.postlog", "SharedBillboard.post_vectors"),
        Tap("service.barrier", "repro.serve.service", "ServeService._on_stage_complete"),
        Tap("oracle.probe", "repro.billboard.oracle", "ProbeOracle.probe_many", _probes),
        Tap("postlog.append", "repro.billboard.postlog", "PostLog.append", _append_bytes),
        Tap("postlog.sync", "repro.billboard.postlog", "SharedBillboard.sync", _installed),
        Tap("sharded.frontend", "repro.serve.sharded", "ShardedRuntime.submit"),
        Tap("sharded.frontend", "repro.serve.sharded", "ShardedRuntime.flush"),
        Tap("sharded.worker", "repro.serve.sharded", "_serve_requests"),
        Tap("core.main", "repro.core.main", "anytime_find_preferences"),
        Tap("core.main", "repro.core.main", "find_preferences_unknown_d"),
        Tap("core.main", "repro.core.main", "find_preferences"),
        Tap("rng.spawn", "repro.utils.rng", "spawn_many"),
    ]
    taps += [Tap("rowset.vote", "repro.utils.rowset", fn) for fn in ("popular_rows_packed", "popular_rows", "plurality_row")]
    for kernel in _KERNELS:
        counts = _probe_bytes if kernel in ("fused_extract_post", "extract_bits") else None
        taps.append(Tap(f"kernels.{kernel}", "repro.metrics.kernels", kernel, counts))
    modules = {
        "select_batched": "repro.core.batching",
        "rselect_batched": "repro.core.batching",
        "zero_radius": "repro.core.zero_radius",
        "small_radius": "repro.core.small_radius",
        "large_radius": "repro.core.large_radius",
        "coalesce": "repro.core.coalesce",
    }
    taps += [Tap(f"core.{fn}", modules[fn], fn) for fn in _CORE]
    return taps


class Tracer:
    """Installs the layer wrappers and keeps this process's span stack.

    ``with tracer.installed(): ...`` wraps every tap and restores the
    originals on exit.  Spans record only while a metrics registry is
    active, so the wrappers pass straight through otherwise.
    """

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # open spans: [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self._vote_keys: set[int] = set()
        self._gc_t0: float | None = None

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Wrap every tap (and time garbage collection) inside the block."""
        try:
            for tap in _taps():
                module = importlib.import_module(tap.module)
                owner_name, _, attr = tap.target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr] if owner_name else getattr(module, attr)
                counts = self._vote_counts if tap.span == "rowset.vote" else tap.counts
                wrapper = self._wrap(tap.span, original, counts)
                self._patch(owner, attr, wrapper)
                if not owner_name:
                    # Modules that imported the function by name hold their
                    # own reference to it: rebind those too.
                    for name, mod in list(sys.modules.items()):
                        if name.startswith("repro") and mod is not module:
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    self._patch(mod, key, wrapper)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens around its own calls into the program."""
        registry = obs_metrics.get_registry()
        if registry is None:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(registry, frame, time.perf_counter() - t0)

    def _close(self, registry: MetricRegistry, frame: list[Any], elapsed: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        registry.observe(f"trace.{frame[0]}.self_s", elapsed - frame[1])
        registry.incr(f"trace.{frame[0]}.total_s", elapsed)

    def _wrap(self, span: str, fn: Callable[..., Any], counts: Counts | None) -> Callable[..., Any]:
        stack = self._stack
        prefix = f"trace.{span}."
        close = self._close
        get_registry = obs_metrics.get_registry
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            registry = get_registry()
            if registry is None or (stack and stack[-1][0] == span):
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(registry, frame, clock() - t0)
            if counts is not None:
                for key, amount in counts(args, kwargs, result).items():
                    registry.incr(prefix + key, amount)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _vote_counts(self, args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
        """Count a vote as distinct the first time this process sees its exact inputs."""
        rows = args[0]
        key = hash((rows.shape, rows.dtype.str, rows.tobytes(), args[1:]))
        fresh = key not in self._vote_keys
        self._vote_keys.add(key)
        return {"distinct": 1 if fresh else 0}

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            registry = obs_metrics.get_registry()
            if registry is not None:
                registry.incr("trace.gc_s", time.perf_counter() - self._gc_t0)
            self._gc_t0 = None


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: The per-layer metrics of the traced run: ``(name, unit, better)``.
PER_LAYER: list[tuple[str, str, str]] = [
    ("runtime.flushes", "count", "lower"),
    ("runtime.flush_s", "s", "lower"),
    ("router.self_s", "s", "lower"),
    ("router.wavefronts", "count", "lower"),
    ("router.probes_per_wavefront", "count", "higher"),
    ("router.wait_parks", "count", "lower"),
    ("sessions.advance_calls", "count", "lower"),
    ("sessions.advance_self_s", "s", "lower"),
    ("sessions.wait_ratio", "ratio", "lower"),
    ("billboard.readiness_checks", "count", "lower"),
    ("billboard.readiness_names", "count", "lower"),
    ("billboard.readiness_s", "s", "lower"),
    ("billboard.vote_gathers", "count", "lower"),
    ("billboard.vote_rows", "count", "lower"),
    ("billboard.vote_gather_s", "s", "lower"),
    ("billboard.posts", "count", "lower"),
    ("billboard.post_s", "s", "lower"),
    ("rowset.vote_calls", "count", "lower"),
    ("rowset.vote_s", "s", "lower"),
    ("rowset.vote_distinct_ratio", "ratio", "higher"),
    ("service.barriers", "count", "lower"),
    ("service.barrier_s", "s", "lower"),
    ("oracle.wavefronts", "count", "lower"),
    ("oracle.probes", "count", "lower"),
    ("oracle.probe_s", "s", "lower"),
    ("oracle.ns_per_probe", "ns", "lower"),
    *[(f"kernels.{k}.calls", "count", "lower") for k in _KERNELS],
    *[(f"kernels.{k}_s", "s", "lower") for k in _KERNELS],
    ("kernels.probe_bytes", "bytes", "lower"),
    ("core.main_self_s", "s", "lower"),
    *[(f"core.{fn}_self_s", "s", "lower") for fn in _CORE],
    ("postlog.appends", "count", "lower"),
    ("postlog.append_bytes", "bytes", "lower"),
    ("postlog.append_s", "s", "lower"),
    ("postlog.syncs", "count", "lower"),
    ("postlog.records_installed", "count", "lower"),
    ("postlog.sync_s", "s", "lower"),
    ("sharded.frontend_flush_s", "s", "lower"),
    ("sharded.worker_busy_s", "s", "lower"),
    ("sharded.worker_idle_share", "ratio", "lower"),
    ("rng.spawn_s", "s", "lower"),
    ("process.gc_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


class LayerView:
    """Read-only accessors over one merged registry snapshot."""

    def __init__(self, registry: MetricRegistry) -> None:
        snap = registry.snapshot()
        self.counters: dict[str, float] = snap["counters"]
        self.hists: dict[str, dict[str, Any]] = snap["histograms"]

    def calls(self, span: str) -> int:
        return int(self.hists.get(f"trace.{span}.self_s", {}).get("count", 0))

    def self_s(self, span: str) -> float:
        return float(self.hists.get(f"trace.{span}.self_s", {}).get("sum", 0.0))

    def total_s(self, span: str) -> float:
        return float(self.counters.get(f"trace.{span}.total_s", 0.0))

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0.0))

    def spans(self) -> list[str]:
        return sorted(
            name[len("trace."):-len(".self_s")]
            for name in self.hists
            if name.startswith("trace.") and name.endswith(".self_s")
        )

    def named_s(self) -> float:
        """Self time of every span that is not a :data:`ROOT_SPANS` catch-all."""
        return sum(self.self_s(s) for s in self.spans() if s not in ROOT_SPANS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    front: MetricRegistry,
    workers: MetricRegistry | None,
    *,
    wall_s: float,
    n_workers: int,
    untraced_wall_s: float,
) -> dict[str, float]:
    """The :data:`PER_LAYER` metrics of one traced pass.

    *front* is the benchmark process's registry; *workers* the merged
    registries of the serve worker processes (``None`` in-process).
    """
    merged = MetricRegistry()
    merged.merge(front)
    if workers is not None:
        merged.merge(workers)
    v = LayerView(merged)
    fv = LayerView(front)
    out: dict[str, float] = {
        "runtime.flushes": v.calls("runtime.flush"),
        "runtime.flush_s": v.total_s("runtime.flush"),
        "router.self_s": v.self_s("router"),
        "router.wavefronts": v.counter("serve.wavefronts_total"),
        "router.probes_per_wavefront": _ratio(v.counter("serve.probes_total"), v.counter("serve.wavefronts_total")),
        "router.wait_parks": v.counter("serve.wait_parks_total"),
        "sessions.advance_calls": v.calls("sessions.advance"),
        "sessions.advance_self_s": v.self_s("sessions.advance"),
        "sessions.wait_ratio": _ratio(v.counter("trace.sessions.advance.waits"), v.calls("sessions.advance")),
        "billboard.readiness_checks": v.calls("billboard.readiness"),
        "billboard.readiness_names": v.counter("trace.billboard.readiness.names"),
        "billboard.readiness_s": v.self_s("billboard.readiness"),
        "billboard.vote_gathers": v.calls("billboard.vote_gather"),
        "billboard.vote_rows": v.counter("trace.billboard.vote_gather.names"),
        "billboard.vote_gather_s": v.self_s("billboard.vote_gather"),
        "billboard.posts": v.calls("billboard.post"),
        "billboard.post_s": v.self_s("billboard.post"),
        "rowset.vote_calls": v.calls("rowset.vote"),
        "rowset.vote_s": v.self_s("rowset.vote"),
        "rowset.vote_distinct_ratio": _ratio(v.counter("trace.rowset.vote.distinct"), v.calls("rowset.vote")),
        "service.barriers": v.calls("service.barrier"),
        "service.barrier_s": v.self_s("service.barrier"),
        "oracle.wavefronts": v.calls("oracle.probe"),
        "oracle.probes": v.counter("trace.oracle.probe.probes"),
        "oracle.probe_s": v.total_s("oracle.probe"),
        "oracle.ns_per_probe": 1e9 * _ratio(v.total_s("oracle.probe"), v.counter("trace.oracle.probe.probes")),
    }
    for k in _KERNELS:
        out[f"kernels.{k}.calls"] = v.calls(f"kernels.{k}")
        out[f"kernels.{k}_s"] = v.self_s(f"kernels.{k}")
    out["kernels.probe_bytes"] = sum(v.counter(f"trace.kernels.{k}.bytes") for k in _KERNELS)
    out["core.main_self_s"] = v.self_s("core.main")
    for fn in _CORE:
        out[f"core.{fn}_self_s"] = v.self_s(f"core.{fn}")
    busy = v.total_s("sharded.worker")
    coverage = _ratio(fv.named_s(), wall_s)
    if workers is not None:
        # The front end's flush self time is mostly waiting on the workers,
        # so the workers' busy time must be explained by their own layers.
        coverage = min(coverage, _ratio(LayerView(workers).named_s(), busy))
    out.update({
        "postlog.appends": v.calls("postlog.append"),
        "postlog.append_bytes": v.counter("trace.postlog.append.bytes"),
        "postlog.append_s": v.self_s("postlog.append"),
        "postlog.syncs": v.calls("postlog.sync"),
        "postlog.records_installed": v.counter("trace.postlog.sync.records"),
        "postlog.sync_s": v.self_s("postlog.sync"),
        "sharded.frontend_flush_s": v.self_s("sharded.frontend"),
        "sharded.worker_busy_s": busy,
        "sharded.worker_idle_share": 1.0 - _ratio(busy, n_workers * wall_s) if workers is not None else 0.0,
        "rng.spawn_s": v.self_s("rng.spawn"),
        "process.gc_s": v.counter("trace.gc_s"),
        "trace.wall_s": wall_s,
        "trace.coverage": coverage,
        "trace.overhead": _ratio(wall_s, untraced_wall_s) - 1.0,
    })
    return {name: float(value) for name, value in out.items()}


_RATIOS: dict[str, Callable[[LayerView, str], str]] = {
    "sessions.advance": lambda v, s: f"waits/advance {_ratio(v.counter('trace.sessions.advance.waits'), v.calls(s)):.3f}",
    "billboard.readiness": lambda v, s: f"names/check {_ratio(v.counter('trace.billboard.readiness.names'), v.calls(s)):.1f}",
    "billboard.vote_gather": lambda v, s: f"rows/gather {_ratio(v.counter('trace.billboard.vote_gather.names'), v.calls(s)):.1f}",
    "rowset.vote": lambda v, s: f"distinct/calls {_ratio(v.counter('trace.rowset.vote.distinct'), v.calls(s)):.3f}",
    "oracle.probe": lambda v, s: (
        f"probes/wavefront {_ratio(v.counter('trace.oracle.probe.probes'), v.calls(s)):.1f}, "
        f"ns/probe {1e9 * _ratio(v.total_s(s), v.counter('trace.oracle.probe.probes')):.1f}"
    ),
    "postlog.append": lambda v, s: f"bytes/append {_ratio(v.counter('trace.postlog.append.bytes'), v.calls(s)):.0f}",
    "postlog.sync": lambda v, s: f"records/sync {_ratio(v.counter('trace.postlog.sync.records'), v.calls(s)):.2f}",
}


def _rows(v: LayerView, wall: float, label: str, idle_s: float = 0.0) -> list[str]:
    lines = [f"  {label:<28} {'count':>10} {'self s':>9} {'share':>7}  ratios"]
    for span in sorted(v.spans(), key=lambda s: -v.self_s(s)):
        if span in ROOT_SPANS:
            continue
        self_s = v.self_s(span)
        ratio = _RATIOS[span](v, span) if span in _RATIOS else ""
        lines.append(f"  {span:<28} {v.calls(span):>10} {self_s:>9.3f} {_ratio(self_s, wall):>7.1%}  {ratio}")
    if idle_s:
        lines.append(f"  {'idle (awaiting requests)':<28} {'':>10} {idle_s:>9.3f} {_ratio(idle_s, wall):>7.1%}")
    other = wall - v.named_s() - idle_s
    lines.append(f"  {'other':<28} {'':>10} {other:>9.3f} {_ratio(other, wall):>7.1%}")
    for span in ROOT_SPANS:
        if v.calls(span):
            lines.append(f"    {'of which in ' + span:<26} {v.calls(span):>10} {v.self_s(span):>9.3f} "
                         f"{_ratio(v.self_s(span), wall):>7.1%}")
    return lines


def render_table(
    workload: str,
    front: MetricRegistry,
    workers: MetricRegistry | None,
    *,
    wall_s: float,
    n_workers: int,
    untraced_wall_s: float,
) -> str:
    """Human-readable per-layer table of one traced pass.

    Front-end rows share the traced wall time; for a sharded deployment
    a second block charges the workers' spans against ``workers x wall``,
    with the time they spent outside request handling as ``idle``.
    """
    fv = LayerView(front)
    lines = [
        f"traced run of {workload}: wall {wall_s:.3f} s, untraced {untraced_wall_s:.3f} s, "
        f"tracing overhead {_ratio(wall_s, untraced_wall_s) - 1.0:+.1%}",
        *_rows(fv, wall_s, "front end (share of wall)"),
    ]
    gc_s = fv.counter("trace.gc_s")
    if workers is not None:
        wv = LayerView(workers)
        capacity = n_workers * wall_s
        idle = capacity - wv.total_s("sharded.worker")
        lines += _rows(wv, capacity, f"{n_workers} workers (share of {n_workers}x wall)", idle)
        gc_s += wv.counter("trace.gc_s")
    lines.append(f"  garbage collection inside the spans above: {gc_s:.3f} s")
    return "\n".join(lines)
