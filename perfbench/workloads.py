"""The benchmark's workloads: set-up, measured passes, and correctness gates.

Every pass builds a ``planted`` instance (α = 0.5, D = 2) of its own:
pass *i* of a run derives an instance seed and an algorithm seed from
the benchmark seed and *i* (:func:`inputs`), and the program receives
only that instance and algorithm seed.  A run thus averages over several
instances, so one seed's unusual instance does not move the run's
figures.

* ``serve-closed`` / ``serve-sharded`` stand a runtime up with
  :func:`repro.api.serve` and drive one anytime phase to completion in a
  closed loop: every round, each open session has exactly one request
  (a grant of 32 probes) in flight, submitted in chunks of one batching
  window and flushed.  A request's latency is the wall time of the flush
  that served it, so there is one latency sample per flush.
* ``offline-anytime`` runs :func:`repro.api.anytime_find_preferences`
  on a :class:`~repro.api.ProbeOracle` through every phase.  It has no
  requests; its latency samples are the population rounds — the wall
  time between consecutive oracle wavefronts, which is what each player
  waits for its next probe answer.

A *pass* is one complete run of the workload.  A run measures whole
passes: it starts another only while the passes so far plus one more of
their mean length fit in the requested seconds (at least one pass).
Set-up — instance generation, packing, and the runtime up to one public
round trip with every worker — is timed separately after
``gc.collect()``: once before each pass, then repeated on the passes'
inputs in turn in the now warm process until there are at least
:data:`SETUP_REPEATS` samples; the run reports the median.  Latency
percentiles are medians over groups of consecutive passes
(:func:`sample_groups`).

Correctness gates, applied to every pass:

* serve — each response answers the player asked for with a valid
  status and at most the granted probes; the final outputs and
  per-player probe counts are bitwise-equal to an untimed offline
  :func:`~repro.api.anytime_find_preferences` run on the same instance
  and seed;
* offline — the per-player probe counts the algorithm reports
  (``result.stats``) and the oracle's own ledger both equal the probes
  the benchmark saw issued through the oracle's public probe calls;
* both — :func:`~repro.api.evaluate` against the planted community
  keeps stretch (Δ/D) within :data:`STRETCH_LIMIT`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import api
from repro.obs.metrics import MetricRegistry, collecting

from perfbench import layers

ALPHA = 0.5
DIAMETER = 2
D_MAX = 2
PROBES_PER_REQUEST = 32
#: Requests per micro-batch: a closed-loop round is submitted in chunks
#: of one window, each followed by a flush.  At 8 the few flushes that
#: close a stage (votes for the whole population) stay under 1 % of the
#: samples, so p99 lies in the steady body of the distribution rather
#: than on the edge of that cluster, where it moved with the instance.
WINDOW = 8
#: Timed set-ups per run: at least this many, and more (up to four
#: times as many) until they took SETUP_SECONDS.  The run reports the
#: median.
SETUP_REPEATS = 9
SETUP_SECONDS = 1.5
#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: Latency samples per percentile group: a run's passes are pooled in
#: order into groups of at least this many samples, and a percentile is
#: the median of the groups' percentiles, so a burst of host noise moves
#: one group rather than the run's tail.
GROUP_SAMPLES = 2000
#: Largest stretch (Δ/D) the gate accepts; the bound the program's own
#: algorithm tests assert.
STRETCH_LIMIT = 8.0
#: A pass that runs longer than this is abandoned as a failure.
PASS_DEADLINE_S = 140.0
_LIVE_STATUSES = ("active", "barrier", "complete")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    why: str
    n: int
    serve: bool
    workers: int = 1
    max_phases: int | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-closed",
            "128 closed-loop callers on one in-process runtime: session stepping, billboard reads and votes dominate",
            n=128, serve=True, workers=1, max_phases=1,
        ),
        Workload(
            "serve-sharded",
            "the same traffic split over two forked workers: adds post-log appends and syncs and a pipe round trip per flush",
            n=128, serve=True, workers=2, max_phases=1,
        ),
        Workload(
            "offline-anytime",
            "every anytime phase at n=m=768 offline: Select/RSelect scans and oracle probe kernels, no router or sessions",
            n=768, serve=False,
        ),
    )
}


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample with too few values beyond it."""


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """The *q*-quantile of raw *samples* and the count of samples above it.

    Linear interpolation between order statistics.  Refuses (raises
    :class:`InsufficientSamples`) when fewer than :data:`MIN_BEYOND`
    samples lie beyond the quantile, since such a tail is a handful of
    events.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InsufficientSamples("no samples")
    value = float(np.quantile(arr, q))
    beyond = int(np.count_nonzero(arr > value))
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{100 * q:g} of {arr.size} samples has {beyond} beyond it; {MIN_BEYOND} needed"
        )
    return value, beyond


def sample_groups(passes: list[Pass]) -> list[list[float]]:
    """The latency samples of *passes*, pooled in order into groups of
    at least :data:`GROUP_SAMPLES` (one group when there are fewer)."""
    groups: list[list[float]] = [[]]
    for p in passes:
        if len(groups[-1]) >= GROUP_SAMPLES:
            groups.append([])
        groups[-1].extend(p.latencies_s)
    if len(groups) > 1 and len(groups[-1]) < GROUP_SAMPLES:
        groups[-2].extend(groups.pop())
    return groups


def grouped_percentile(groups: list[list[float]], q: float) -> tuple[float, int]:
    """Median over *groups* of each one's *q*-quantile (:func:`percentile`),
    and the fewest samples beyond it in any group."""
    values, beyond = zip(*(percentile(g, q) for g in groups))
    return statistics.median(values), min(beyond)


def inputs(seed: int, i: int) -> tuple[int, int]:
    """Instance seed and algorithm seed of pass *i* of a run with benchmark *seed*."""
    instance_seed, algorithm_seed = np.random.SeedSequence([seed, i]).generate_state(2)
    return int(instance_seed), int(algorithm_seed)


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the shapes, dtypes and bytes of *arrays*."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype.str}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class _StampedOracle(api.ProbeOracle):
    """A :class:`~repro.api.ProbeOracle` that notes when each wavefront
    returns and, independently of the oracle's own ledger, how many
    probes each player was seen to issue."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.stamps: list[float] = []
        self.issued = np.zeros(self.n_players, dtype=np.int64)

    def probe(self, player: int, obj: int) -> int:
        value = super().probe(player, obj)
        self.issued[player] += 1
        return value

    def probe_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        values = super().probe_many(players, objects)
        self.issued += np.bincount(np.asarray(players, dtype=np.intp), minlength=self.n_players)
        self.stamps.append(time.perf_counter())
        return values


@dataclass
class Deployment:
    """What one set-up produced: the instance plus a runtime or an oracle."""

    instance: api.Instance
    algorithm_seed: int
    runtime: api.ServeRuntime | None = None
    oracle: _StampedOracle | None = None

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()


def setup(w: Workload, seeds: tuple[int, int]) -> Deployment:
    """Generate the instance and stand the system up until it answers.

    *seeds* is one pass's ``(instance seed, algorithm seed)``.
    """
    instance_seed, algorithm_seed = seeds
    inst = api.make_instance("planted", w.n, w.n, ALPHA, DIAMETER, rng=instance_seed)
    if not w.serve:
        return Deployment(inst, algorithm_seed, oracle=_StampedOracle(inst))
    config = api.ServeConfig(
        seed=algorithm_seed,
        max_phases=w.max_phases,
        d_max=D_MAX,
        workers=w.workers,
        window=WINDOW,
        probes_per_request=PROBES_PER_REQUEST,
    )
    runtime = api.serve(inst, config)
    try:
        runtime.outputs()  # one public round trip: every worker has built its shard
    except BaseException:
        runtime.close()
        raise
    return Deployment(inst, algorithm_seed, runtime=runtime)


@dataclass
class Pass:
    """One complete, measured run of a workload."""

    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    outputs: np.ndarray | None
    counts: np.ndarray | None
    #: offline: per-player probes seen issued through the oracle's probe
    #: calls, and those the algorithm reports in its result
    issued: np.ndarray | None = None
    reported: np.ndarray | None = None
    #: the instance and algorithm seed the pass ran on
    instance: api.Instance | None = None
    algorithm_seed: int = 0


def _mismatched(chunk: list[int], responses: list[Any]) -> int:
    """Requests of *chunk* without exactly one valid response."""
    got: dict[int, list[Any]] = {}
    for response in responses:
        got.setdefault(response.player, []).append(response)
    bad = 0
    for player in chunk:
        answers = got.get(player)
        if not answers:
            bad += 1
            continue
        r = answers.pop()
        if r.status not in _LIVE_STATUSES or not 0 <= r.probes_used <= PROBES_PER_REQUEST:
            bad += 1
    bad += sum(len(extra) for extra in got.values())
    return min(bad, len(chunk))


def serve_pass(
    runtime: api.ServeRuntime,
    span: Callable[[], contextlib.AbstractContextManager[Any]] = contextlib.nullcontext,
) -> Pass:
    """Drive *runtime* to completion in a closed loop (see module docstring)."""
    samples: list[float] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while not runtime.finished:
        players = runtime.open_players()
        if not players:
            break
        for start in range(0, len(players), WINDOW):
            chunk = players[start:start + WINDOW]
            attempted += len(chunk)
            try:
                with span():
                    t1 = time.perf_counter()
                    for player in chunk:
                        runtime.submit(player)
                    responses = runtime.flush()
                    samples.append(time.perf_counter() - t1)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return Pass(time.perf_counter() - t0, samples, attempted, failed + len(chunk), None, None)
            failed += _mismatched(chunk, responses)
        if time.perf_counter() - t0 > PASS_DEADLINE_S:
            print(f"pass abandoned after {PASS_DEADLINE_S:.0f} s", file=sys.stderr)
            return Pass(time.perf_counter() - t0, samples, attempted, attempted, None, None)
    wall = time.perf_counter() - t0
    return Pass(wall, samples, attempted, failed, runtime.outputs(), runtime.probe_counts())


def offline_pass(oracle: _StampedOracle, algorithm_seed: int) -> Pass:
    """One offline anytime run through every phase."""
    t0 = time.perf_counter()
    try:
        result = api.anytime_find_preferences(oracle, rng=algorithm_seed, d_max=D_MAX)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Pass(time.perf_counter() - t0, [], 1, 1, None, None)
    wall = time.perf_counter() - t0
    rounds = np.diff(np.asarray([t0, *oracle.stamps])).tolist()
    return Pass(
        wall, rounds, 1, 0, result.outputs, oracle.stats().per_player,
        issued=oracle.issued.copy(), reported=result.stats.per_player,
    )


def _run_pass(
    w: Workload,
    deploy: Deployment,
    span: Callable[[], contextlib.AbstractContextManager[Any]] = contextlib.nullcontext,
) -> Pass:
    if w.serve:
        assert deploy.runtime is not None
        p = serve_pass(deploy.runtime, span)
    else:
        assert deploy.oracle is not None
        p = offline_pass(deploy.oracle, deploy.algorithm_seed)
    p.instance, p.algorithm_seed = deploy.instance, deploy.algorithm_seed
    return p


def single_pass(w: Workload, seed: int, i: int = 0) -> Pass:
    """Set up and run pass *i* of *seed*, set-up untimed and untraced."""
    deploy = setup(w, inputs(seed, i))
    try:
        return _run_pass(w, deploy)
    finally:
        deploy.close()


@dataclass
class Gate:
    """Outcome of the correctness checks over a run's passes."""

    ok: bool = True
    problems: list[str] = field(default_factory=list)
    #: means over the checked passes
    stretch: float = 0.0
    accuracy: float = 0.0
    #: digest of every checked pass's outputs and probe counts
    digest: str = ""

    def fail(self, problem: str) -> None:
        self.ok = False
        self.problems.append(problem)


def reference(w: Workload, inst: api.Instance, algorithm_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and per-player probe counts of the untimed offline run."""
    oracle = api.ProbeOracle(inst)
    result = api.anytime_find_preferences(oracle, rng=algorithm_seed, max_phases=w.max_phases, d_max=D_MAX)
    return result.outputs, oracle.stats().per_player


def check(w: Workload, passes: list[Pass]) -> Gate:
    """Apply the workload's correctness gate to every pass (module docstring)."""
    gate = Gate()
    digests: dict[int, str] = {}  # algorithm seed -> digest of the first pass on it
    stretches: list[float] = []
    accuracies: list[float] = []
    for i, p in enumerate(passes):
        if p.outputs is None or p.counts is None or p.instance is None:
            gate.fail(f"pass {i} did not complete")
            continue
        if p.failed:
            gate.fail(f"pass {i}: {p.failed} of {p.attempted} requests failed")
        got = digest(p.outputs, p.counts)
        if digests.setdefault(p.algorithm_seed, got) != got:
            gate.fail(f"pass {i}: outputs or probe counts differ from an earlier pass on the same inputs")
        if w.serve and got != digest(*reference(w, p.instance, p.algorithm_seed)):
            gate.fail(f"pass {i}: outputs or probe counts differ from the offline reference")
        if not w.serve and not (
            p.issued is not None and p.reported is not None
            and np.array_equal(p.counts, p.issued) and np.array_equal(p.reported, p.issued)
        ):
            gate.fail(f"pass {i}: probe counts differ from the probes issued")
        if p.outputs.shape != (w.n, w.n):
            gate.fail(f"pass {i}: output shape {p.outputs.shape}")
            continue
        report = api.evaluate(p.outputs, p.instance.prefs, p.instance.communities[0].members)
        if not report.stretch <= STRETCH_LIMIT:
            gate.fail(f"pass {i}: stretch {report.stretch} above {STRETCH_LIMIT}")
        stretches.append(report.stretch)
        accuracies.append(1.0 - report.mean_error / w.n)
    if stretches:
        gate.stretch = statistics.fmean(stretches)
        gate.accuracy = statistics.fmean(accuracies)
    gate.digest = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    return gate


def _cpu_ticks() -> tuple[int, int]:
    """Total and hypervisor-stolen CPU time of the host so far, in ticks (0, 0 off Linux)."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return sum(ticks), ticks[7] if len(ticks) > 7 else 0


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def context(w: Workload, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """What produced a result: workload shape, host and kernel backend."""
    info = api.kernel_info()
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n": w.n,
        "m": w.n,
        "workers": w.workers,
        "window": WINDOW if w.serve else None,
        "kernel_backend": info["backend"],
        "kernel_reason": info["reason"],
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass
class Result:
    """One run's outcome: the gate, the metrics, and how they were made."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    context: dict[str, Any]
    problems: list[str]
    table: str = ""


@contextlib.contextmanager
def _timed_setup(w: Workload, seeds: tuple[int, int], samples: list[float]) -> Iterator[Deployment]:
    gc.collect()
    t0 = time.perf_counter()
    deploy = setup(w, seeds)
    samples.append(time.perf_counter() - t0)
    try:
        yield deploy
    finally:
        deploy.close()


@dataclass
class Measured:
    """The untraced part of a run."""

    passes: list[Pass]
    setups_s: list[float]
    peak_rss_mb: float
    #: share of the host's CPU time the hypervisor stole while the passes ran
    steal_share: float


def measure(w: Workload, seed: int, seconds: float) -> Measured:
    """Untraced passes plus their set-up samples (see module docstring).

    Peak memory is read once the first pass's deployment is torn down
    (so its workers have been waited for), before any later pass or the
    correctness reference can add to it.
    """
    setups: list[float] = []
    passes: list[Pass] = []
    peak_rss = 0.0
    total0, stolen0 = _cpu_ticks()
    while True:
        with _timed_setup(w, inputs(seed, len(passes)), setups) as deploy:
            passes.append(_run_pass(w, deploy))
        peak_rss = peak_rss or _peak_rss_mb()
        walls = [p.wall_s for p in passes]
        if passes[-1].outputs is None or sum(walls) + statistics.fmean(walls) > seconds:
            break
    total1, stolen1 = _cpu_ticks()
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_SECONDS and len(setups) < 4 * SETUP_REPEATS):
        with _timed_setup(w, inputs(seed, len(setups) % len(passes)), setups):
            pass
    return Measured(passes, setups, peak_rss, (stolen1 - stolen0) / max(1, total1 - total0))


def traced_pass(w: Workload, seed: int) -> tuple[Pass, MetricRegistry, MetricRegistry | None]:
    """Pass 0 of *seed* with every layer wrapped; returns front and worker registries."""
    tracer = layers.Tracer()
    front = MetricRegistry()
    with tracer.installed():
        deploy = setup(w, inputs(seed, 0))  # after wrapping, so forked workers carry the wrappers
        try:
            with collecting(front):
                traced = _run_pass(w, deploy, lambda: tracer.span("runtime.flush"))
            workers = deploy.runtime.merged_metrics() if w.workers > 1 and deploy.runtime else None
        finally:
            deploy.close()
    return traced, front, workers


def run(workload: str | Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Measure *workload* (a name or a :class:`Workload`); with *trace*, also one traced pass."""
    w = WORKLOADS[workload] if isinstance(workload, str) else workload
    ctx = context(w, seed, seconds, trace)
    measured = measure(w, seed, seconds)
    passes = measured.passes
    traced = traced_pass(w, seed) if trace else None
    checked = passes + ([traced[0]] if traced is not None else [])
    gate = check(w, checked)
    groups = sample_groups(passes)
    ctx.update(
        passes=len(passes), latency_samples=sum(map(len, groups)), latency_groups=len(groups),
        stretch=gate.stretch, output_digest=gate.digest[:16],
    )
    metrics: dict[str, tuple[float, str]]
    table = ""
    if traced is not None:
        traced_run, front, workers = traced
        # the traced pass runs pass 0's inputs again
        shape = dict(wall_s=traced_run.wall_s, n_workers=w.workers, untraced_wall_s=passes[0].wall_s)
        per_layer = layers.derive(front, workers, **shape)
        metrics = {name: (per_layer[name], unit) for name, unit, _ in layers.PER_LAYER}
        table = layers.render_table(w.name, front, workers, **shape)
    else:
        # A pass that raised has no counts and has already failed the gate.
        completed = [p for p in passes if p.counts is not None]
        probes = [int(p.counts.sum()) for p in completed] or [0]
        rates = [int(p.counts.sum()) / p.wall_s for p in completed] or [0.0]
        p50, _ = grouped_percentile(groups, 0.50)
        p99, beyond = grouped_percentile(groups, 0.99)
        ctx.update(
            p99_samples_beyond=beyond, setup_samples=len(measured.setups_s),
            host_steal_share=round(measured.steal_share, 4),
        )
        metrics = {
            "probes_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (1e3 * p50, "ms"),
            "latency_p99_ms": (1e3 * p99, "ms"),
            "setup_s": (statistics.median(measured.setups_s), "s"),
            "peak_rss_mb": (measured.peak_rss_mb, "MB"),
            "accuracy": (gate.accuracy, "share"),
            "probes_per_player": (statistics.fmean(probes) / w.n, "count"),
        }
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    return Result(gate.ok, attempted, failed, metrics, ctx, gate.problems, table)
