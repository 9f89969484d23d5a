"""Benchmark of the serving runtime's micro-batched probe routing.

Drives one closed-loop load-generation scenario on a planted
``n = m = 2048`` instance (``n = 512`` unless ``REPRO_FULL=1``): requests
buffer inside the batching window and each sweep's probe wavefront goes
to the oracle as a single ``probe_many`` call.  The router has no other
probe path — the scalar one this harness used to time as its A/B seed
is retired — so the record is the micro-batched throughput alone;
probes/s over the fixed total probe workload is the figure that
compares across runs.  The measured report is archived under
``benchmarks/reports/`` via :func:`conftest.archive_text`.

On top of that, the harness sweeps the **sharded topology** over
``workers ∈ {1, 2, 4, 8}`` with the micro-batched config held fixed:
``workers=1`` is the in-process runtime (the micro run itself), higher
counts partition the sessions across that many worker processes over
the shared packed oracle (:mod:`repro.serve.sharded`).  Every sweep
entry must serve the *same bits* (outputs digest and total probes are
asserted equal) — the sweep measures topology cost/benefit, never
correctness drift.  Each record carries ``workers`` and ``host_cpus``
so readers (and the regression gate) can judge whether a speedup was
physically possible: on a 1-CPU host the sharded entries measure pure
coordination overhead, and ``check_regression.py`` skips gating any
record whose worker count exceeds the checking host's cores.

``python benchmarks/bench_serve.py [--out PATH]`` re-times the runs and
writes the machine-readable record to ``BENCH_serve.json`` at the repo
root (mirroring ``bench_micro_substrate.py`` → ``BENCH_substrate.json``);
``benchmarks/check_regression.py`` gates CI on the committed baselines.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from repro.metrics.kernels import kernel_backend as _kernel_backend
from repro.serve import LoadgenConfig, LoadgenReport, run_loadgen

#: Full size when REPRO_FULL=1, CI-friendly size otherwise.
QUICK = os.environ.get("REPRO_FULL", "0") != "1"

N = 512 if QUICK else 2048
SEED = 21
#: Quick runs are short enough for one scheduler hiccup to skew the
#: record, so each config runs twice and the faster run counts; full-size
#: runs last minutes and amortise the noise, so once is enough.
ROUNDS = 2 if QUICK else 1

BASE = dict(
    workload="planted",
    sessions=N,
    alpha=0.5,
    D=2,
    seed=SEED,
    mode="closed",
    max_phases=1,
    d_max=2,
    probes_per_request=32,
)
WINDOW = 256
#: Sharded-topology sweep: worker counts the loadgen is re-run with.
WORKER_SWEEP = (1, 2, 4, 8)


def _best(config: LoadgenConfig) -> LoadgenReport:
    """Best-of-``ROUNDS`` run of one config (min wall time wins)."""
    return min((run_loadgen(config) for _ in range(ROUNDS)), key=lambda r: r.wall_s)


def _sweep_sharded(micro: LoadgenReport, size: str) -> dict[str, dict]:
    """Worker-count sweep records, equivalence-checked against *micro*.

    ``workers=1`` reuses the micro run — it *is* that topology — so the
    sweep's ``speedup_vs_w1`` column is anchored to the
    ``serve_micro_batch`` record.
    """
    host_cpus = os.cpu_count() or 1
    base_probes_s = micro.probes_total / micro.wall_s
    entries: dict[str, dict] = {}
    for workers in WORKER_SWEEP:
        if workers == 1:
            report = micro
        else:
            report = _best(
                LoadgenConfig(window=WINDOW, workers=workers, **BASE)
            )
            assert report.outputs_sha == micro.outputs_sha, (
                f"workers={workers} changed the served bits"
            )
            assert report.probes_total == micro.probes_total
        probes_s = report.probes_total / report.wall_s
        entries[f"serve_sharded_w{workers}"] = {
            "size": size,
            "workers": workers,
            "host_cpus": host_cpus,
            "wall_s": round(report.wall_s, 3),
            "probes_per_s": round(probes_s, 1),
            "speedup_vs_w1": round(probes_s / base_probes_s, 2),
        }
    return entries


def main(argv: list[str] | None = None) -> None:
    """Time the runs and write the machine-readable ``BENCH_serve.json``.

    ``--out`` exists so CI can write the fresh record to a scratch path
    and diff it against the committed baseline with
    ``benchmarks/check_regression.py`` instead of overwriting it.
    """
    default_out = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--out", type=Path, default=default_out, metavar="PATH")
    args = parser.parse_args(argv)

    micro = _best(LoadgenConfig(window=WINDOW, **BASE))
    probes_s_micro = micro.probes_total / micro.wall_s
    size = f"planted n=m={N}, {micro.probes_total} probes"
    sharded = _sweep_sharded(micro, size)
    out = {
        "bench": "serving runtime: micro-batched probe routing + worker sweep",
        "harness": (
            f"benchmarks/bench_serve.py, closed-loop loadgen, best of {ROUNDS}, "
            f"seed {SEED}, 1 anytime phase, grant={BASE['probes_per_request']}, "
            f"workers swept over {list(WORKER_SWEEP)}"
        ),
        # Honesty metadata (like `workers`/`host_cpus` on the sharded
        # records): the repro.metrics.kernels backend behind every probe.
        # check_regression.py gates only like-for-like backends.
        "kernel_backend": _kernel_backend(),
        "kernels": {
            "serve_micro_batch": {
                "size": size,
                "wall_s": round(micro.wall_s, 3),
                "probes_per_s": round(probes_s_micro, 1),
            },
            **sharded,
        },
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"serve_micro_batch: {probes_s_micro:,.0f} probes/s")
    host_cpus = os.cpu_count() or 1
    for name, record in sharded.items():
        note = (
            ""
            if record["workers"] <= host_cpus
            else f"  [workers > {host_cpus} host cpu(s): coordination overhead only]"
        )
        print(
            f"{name}: {record['probes_per_s']:,.0f} probes/s "
            f"({record['speedup_vs_w1']:.2f}x vs w1){note}"
        )
    print(f"wrote {args.out}")


def test_serve_micro_batch(benchmark, text_archiver):
    def run_micro():
        return run_loadgen(LoadgenConfig(window=WINDOW, **BASE))

    timed = benchmark.pedantic(run_micro, iterations=1, rounds=1)
    runs = [timed, *(run_micro() for _ in range(ROUNDS - 1))]
    micro = min(runs, key=lambda r: r.wall_s)
    assert len({(r.outputs_sha, r.probes_total) for r in runs}) == 1, (
        "repeated micro-batched runs served different bits"
    )

    probes_s_micro = micro.probes_total / micro.wall_s
    lines = [
        f"serving: closed-loop loadgen, planted n=m={N}, alpha=0.5, D=2, seed {SEED}",
        f"1 anytime phase, grant={BASE['probes_per_request']} probes/request",
        "",
        f"--- micro-batched (window={WINDOW}, probe_many wavefronts) ---",
        micro.render(),
        "",
        f"throughput: {probes_s_micro:,.0f} probes/s over a {micro.probes_total}-probe "
        f"workload (wall {micro.wall_s:.1f}s, best of {ROUNDS})",
        f"served bits: sha256 {micro.outputs_sha[:16]}",
    ]
    report = "\n".join(lines)
    path = text_archiver("serve", report)
    print("\n" + report + f"\n[archived: {path}]")

    benchmark.extra_info["probes_per_s"] = round(probes_s_micro, 1)


if __name__ == "__main__":
    main()
