"""Before/after benchmark of the shared-memory trial sweep.

Measures the PR's two performance levers on the canonical sweep shape —
16 Small Radius trials over one planted ``n = m = 2048`` instance:

* **before** — the pre-PR path: ``run_trials`` handed the dense
  preference matrix per trial, and Small Radius deduplicated candidate
  sets through ``np.unique(axis=0)`` (restored here via
  :func:`_np_unique_dedup`, a bench-local patch of ``unique_rows``).
* **after** — trials go through :func:`repro.experiments.sweep_trials`:
  the instance is published once to shared memory
  (:class:`~repro.parallel.SharedInstanceStore`) and workers attach via
  the handle, with the order-preserving byte-key ``rowset`` fast path
  active.

Both modes must produce identical results (asserted on output digests
and per-trial probe totals — the batched/fast paths are
observation-equivalent, not approximations).  The acceptance floor is a
**3×** wall-clock speedup; the measured report is archived under
``benchmarks/reports/`` by :func:`conftest.archive_text`.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.api import (
    ProbeOracle,
    SharedInstanceStore,
    derive_seeds,
    find_preferences,
    make_instance,
    run_trials,
    sweep_trials,
)
from repro.core import partition
from repro.utils import rowset

N = M = 2048
ALPHA = 0.5
D = 2
TRIALS = 16
INSTANCE_SEED = 13
BASE_SEED = 17
MIN_SPEEDUP = 3.0


def _trial(prefs, seed):
    oracle = ProbeOracle(prefs)
    result = find_preferences(oracle, ALPHA, D, rng=seed)
    digest = hashlib.sha256(result.outputs.tobytes()).hexdigest()[:16]
    return digest, result.total_probes


@contextmanager
def _np_unique_dedup() -> Iterator[None]:
    """Route row dedup through ``np.unique(axis=0)`` within the block."""

    def reference(rows, *, return_counts=False):
        return np.unique(np.ascontiguousarray(rows), axis=0, return_counts=return_counts)

    saved = rowset.unique_rows, partition.unique_rows
    rowset.unique_rows = partition.unique_rows = reference
    try:
        yield
    finally:
        rowset.unique_rows, partition.unique_rows = saved


def trial_before(prefs, seed):
    """Pre-PR trial: dense matrix in the args, np.unique dedup."""
    with _np_unique_dedup():
        return _trial(prefs, seed)


def trial_after(handle, seed):
    """Post-PR trial: attach via the shared handle, fast rowset path."""
    return _trial(handle.prefs(), seed)


def test_sweep_before_after(benchmark, text_archiver):
    instance = make_instance("planted", n=N, m=M, alpha=ALPHA, D=D, rng=INSTANCE_SEED)
    seeds = derive_seeds(BASE_SEED, TRIALS)

    t0 = time.perf_counter()
    before = run_trials(trial_before, [(instance.prefs, s) for s in seeds])
    t_before = time.perf_counter() - t0

    after_times: list[float] = []

    def run_after():
        t = time.perf_counter()
        results = sweep_trials(trial_after, instance, seeds)
        after_times.append(time.perf_counter() - t)
        return results

    after = benchmark.pedantic(run_after, iterations=1, rounds=1)
    t_after = after_times[-1]

    assert after == before, "shared-memory fast path changed trial results"

    speedup = t_before / t_after
    lines = [
        f"parallel sweep micro-benchmark: {TRIALS} small_radius trials, "
        f"n=m={N}, alpha={ALPHA}, D={D}",
        f"instance seed {INSTANCE_SEED}, trial base seed {BASE_SEED}",
        "",
        f"before (dense args + np.unique dedup):      {t_before:8.2f} s "
        f"({t_before / TRIALS:.2f} s/trial)",
        f"after  (shared-memory handle + rowset keys): {t_after:8.2f} s "
        f"({t_after / TRIALS:.2f} s/trial)",
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.1f}x)",
        "",
        f"per-trial probe totals (identical in both modes): "
        f"{[probes for _, probes in after]}",
    ]
    report = "\n".join(lines)
    path = text_archiver("micro_parallel", report)
    print("\n" + report + f"\n[archived: {path}]")

    benchmark.extra_info["t_before_s"] = round(t_before, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, report
