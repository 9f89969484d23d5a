"""Command-line interface.

Subcommands::

    python -m repro list                      # experiments + one-line claims
    python -m repro run E1 E4 --seed 3        # run experiments, print tables
    python -m repro demo --n 256 --alpha 0.5 --d 0
                                              # one algorithm run + report
    python -m repro demo --n 256 --telemetry out.jsonl
                                              # + record spans/counters
    python -m repro obs summarize out.jsonl   # render a telemetry file
    python -m repro obs export metrics.jsonl  # Prometheus text exposition
    python -m repro obs top metrics.jsonl --follow
                                              # live rates + latency percentiles
    python -m repro report --out REPORT.md --telemetry
                                              # Markdown report + JSONL
    python -m repro lint src tests            # repro contract checks (RPL rules)
    python -m repro kernels                   # active kernel backend + dispatch table
    python -m repro serve --n 256 --snapshot snap/
                                              # online session runtime to completion
    python -m repro serve --restore snap/     # resume a killed deployment
    python -m repro loadgen --sessions 64 --quick --metrics metrics.jsonl
                                              # load-generate against a service

``run`` accepts ``--full`` for the full (slow) sweeps and ``--out DIR``
to archive rendered reports (what the benchmark suite does via
``benchmarks/reports/``).  ``--telemetry`` records the run through
:mod:`repro.obs` (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro import obs

if TYPE_CHECKING:
    from repro.serve import ServeConfig
from repro.billboard.oracle import ProbeOracle
from repro.core.main import find_preferences, find_preferences_unknown_d
from repro.core.params import Params
from repro.metrics.evaluation import evaluate

__all__ = ["main", "build_parser"]


def _add_serve_flags(
    parser: argparse.ArgumentParser,
    *,
    max_phases: int | None = None,
    d_max: int | None = None,
) -> None:
    """The one flag set mirroring :class:`repro.serve.ServeConfig`.

    Both ``serve`` and ``loadgen`` deployments are configured through
    this helper, so a topology/engine flag exists once and means the
    same thing everywhere; only the ``max_phases``/``d_max`` defaults
    differ per command.
    """
    parser.add_argument("--seed", type=int, default=7, help="RNG seed (instance + service)")
    parser.add_argument(
        "--max-phases", type=int, default=max_phases, help="cap on anytime phases"
    )
    parser.add_argument(
        "--d-max", type=int, default=d_max, help="cap on the doubling schedule"
    )
    parser.add_argument("--budget", type=int, default=None, help="per-player probe budget")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="K",
        help="worker processes (default 1; >1 shards sessions by player id)",
    )
    parser.add_argument("--probes", type=int, default=32, help="probe grant per request")
    parser.add_argument("--window", type=int, default=32, help="micro-batching window")
    parser.add_argument(
        "--log-capacity", type=int, default=None, metavar="BYTES",
        help="shared post-log size for workers > 1 (default: sized from the instance)",
    )


def _serve_config_from_args(args: argparse.Namespace, *, seed: int) -> ServeConfig:
    """Build the :class:`ServeConfig` every serve-flagged command runs on."""
    from repro.serve import ServeConfig

    return ServeConfig(
        seed=seed,
        max_phases=args.max_phases,
        d_max=args.d_max,
        budget=args.budget,
        workers=args.workers or 1,
        window=args.window,
        probes_per_request=args.probes,
        log_capacity=args.log_capacity,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Tell Me Who I Am' (SPAA 2006): experiments and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and their claims")

    run = sub.add_parser("run", help="run experiments and print their tables")
    run.add_argument("experiments", nargs="+", help="experiment ids (e.g. E1 E4) or 'all'")
    run.add_argument("--seed", type=int, default=1, help="base RNG seed")
    run.add_argument("--full", action="store_true", help="full (slow) sweeps instead of quick")
    run.add_argument("--out", type=Path, default=None, help="directory to archive reports")

    demo = sub.add_parser("demo", help="run the main algorithm on a synthetic instance")
    demo.add_argument("--n", type=int, default=256, help="players (= objects)")
    demo.add_argument("--alpha", type=float, default=0.5, help="community frequency")
    demo.add_argument("--d", type=int, default=0, help="community diameter (planted)")
    demo.add_argument(
        "--workload", default="planted", help="workload family (see repro.workloads.registry)"
    )
    demo.add_argument("--unknown-d", action="store_true", help="use the §6 doubling wrapper")
    demo.add_argument("--robust", action="store_true", help="use Params.robust() constants")
    demo.add_argument("--profile", action="store_true", help="print the per-phase cost breakdown")
    demo.add_argument("--seed", type=int, default=7, help="RNG seed")
    demo.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="OUT.jsonl",
        help="record run telemetry (spans, counters, events) to this JSONL file",
    )

    report = sub.add_parser("report", help="run experiments and write a Markdown report")
    report.add_argument("--out", type=Path, default=Path("REPORT.md"), help="output file")
    report.add_argument("--experiments", nargs="*", default=None, help="subset of experiment ids")
    report.add_argument("--seed", type=int, default=1, help="base RNG seed")
    report.add_argument("--full", action="store_true", help="full (slow) sweeps")
    report.add_argument(
        "--telemetry",
        action="store_true",
        help="archive run telemetry as <out>.telemetry.jsonl next to the report",
    )

    serve = sub.add_parser("serve", help="run the online session runtime to completion")
    serve.add_argument("--workload", default="planted", help="workload family")
    serve.add_argument("--n", type=int, default=256, help="players (= sessions)")
    serve.add_argument("--m", type=int, default=None, help="objects (defaults to --n)")
    serve.add_argument("--alpha", type=float, default=0.5, help="community frequency")
    serve.add_argument("--d", type=int, default=0, help="community diameter (planted)")
    _add_serve_flags(serve)
    serve.add_argument(
        "--snapshot", type=Path, default=None, metavar="OUT",
        help="archive the final deployment as a v4 snapshot directory",
    )
    serve.add_argument(
        "--restore", type=Path, default=None, metavar="IN",
        help="resume from a v4 snapshot directory instead of a fresh service",
    )

    loadgen = sub.add_parser("loadgen", help="drive a service with synthetic load")
    loadgen.add_argument("--workload", default="planted", help="workload family")
    loadgen.add_argument(
        "--dataset", type=Path, default=None, metavar="DIR",
        help="serve an ingested dataset store instead of a synthetic workload",
    )
    loadgen.add_argument("--sessions", type=int, default=256, help="players (= sessions)")
    loadgen.add_argument("--objects", type=int, default=None, help="objects (defaults to --sessions)")
    loadgen.add_argument("--alpha", type=float, default=0.5, help="community frequency")
    loadgen.add_argument("--d", type=int, default=0, help="community diameter (planted)")
    _add_serve_flags(loadgen, max_phases=1, d_max=2)
    loadgen.add_argument("--mode", choices=("closed", "open"), default="closed", help="arrival loop")
    loadgen.add_argument("--rate", type=float, default=64.0, help="open-loop arrivals per window")
    loadgen.add_argument(
        "--quick", action="store_true", help="small CI-smoke preset (caps sessions and phases)"
    )
    loadgen.add_argument(
        "--json", type=Path, default=None, metavar="OUT.json", help="also write the report as JSON"
    )
    loadgen.add_argument(
        "--warmup", type=int, default=0,
        help="requests excluded from the steady-state percentiles",
    )
    loadgen.add_argument(
        "--metrics", type=Path, default=None, metavar="OUT.jsonl",
        help="write live metric snapshots (watch with 'repro obs top')",
    )
    loadgen.add_argument(
        "--metrics-interval", type=float, default=1.0,
        help="seconds between metric snapshots (with --metrics)",
    )

    dataset = sub.add_parser("dataset", help="ingest and inspect real preference corpora")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    d_ingest = dataset_sub.add_parser(
        "ingest", help="stream a ratings/edge-list file into a packed dataset store"
    )
    d_ingest.add_argument(
        "source", help="raw file (CSV/TSV ratings or SNAP edges, .gz ok) or a registry name"
    )
    d_ingest.add_argument("out", type=Path, help="dataset directory to create")
    d_ingest.add_argument(
        "--format", choices=("auto", "ratings", "edges"), default="auto", help="source format"
    )
    d_ingest.add_argument(
        "--threshold", type=float, default=None,
        help="'like' iff rating > threshold (registry entries carry their own default)",
    )
    d_ingest.add_argument(
        "--missing", choices=("zero", "one", "majority"), default="zero",
        help="imputation for never-rated entries",
    )
    d_ingest.add_argument("--shard-rows", type=int, default=1024, help="rows per packed shard")
    d_ingest.add_argument("--name", default=None, help="dataset label (default: source filename)")
    d_info = dataset_sub.add_parser("info", help="print a committed dataset's manifest summary")
    d_info.add_argument("dir", type=Path, help="dataset directory")
    d_sample = dataset_sub.add_parser("sample", help="print the first rows of the packed matrix")
    d_sample.add_argument("dir", type=Path, help="dataset directory")
    d_sample.add_argument("--rows", type=int, default=8, help="rows to show")
    d_eval = dataset_sub.add_parser(
        "evaluate", help="run the paper's algorithms and all baselines, measuring stretch"
    )
    d_eval.add_argument("dir", type=Path, help="dataset directory")
    d_eval.add_argument("--seed", type=int, default=0, help="rng seed for the panel")
    d_eval.add_argument(
        "--radius", type=int, default=None,
        help="community-discovery ball radius (default m//10)",
    )
    d_eval.add_argument(
        "--json", type=Path, default=None, metavar="OUT.json",
        help="also write the score table as JSON",
    )

    obs_cmd = sub.add_parser("obs", help="telemetry utilities")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser("summarize", help="render a telemetry JSONL file")
    summarize.add_argument("file", type=Path, help="telemetry file written with --telemetry")
    export = obs_sub.add_parser(
        "export", help="Prometheus text exposition of a metrics snapshot"
    )
    export.add_argument("file", type=Path, help="telemetry file with metric snapshots")
    export.add_argument(
        "--snapshot", type=int, default=-1,
        help="snapshot index to export (default: the last)",
    )
    top = obs_sub.add_parser(
        "top", help="render per-counter rates and latency percentiles from snapshots"
    )
    top.add_argument("file", type=Path, help="telemetry file a loadgen run is writing")
    top.add_argument(
        "--follow", action="store_true", help="keep refreshing until interrupted"
    )
    top.add_argument(
        "--refresh", type=float, default=1.0, help="seconds between refreshes (with --follow)"
    )

    kernels = sub.add_parser(
        "kernels", help="show the active repro.metrics.kernels backend and why"
    )
    kernels.add_argument(
        "--json", action="store_true", help="machine-readable kernel_info() payload"
    )

    from repro.lint.cli import add_lint_subparser

    add_lint_subparser(sub)
    return parser


def _cmd_list() -> int:
    from repro.experiments import REGISTRY, run_experiment  # noqa: F401  (registers)

    # Import docstring claims lazily from the registered runners' modules.
    for eid in sorted(REGISTRY, key=lambda e: (e[0], int(e[1:]))):
        fn = REGISTRY[eid]
        doc = (sys.modules[fn.__module__].__doc__ or "").strip().splitlines()
        claim = doc[0] if doc else ""
        print(f"{eid:4s} {claim}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY, run_experiment

    wanted = list(REGISTRY) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}; known: {', '.join(sorted(REGISTRY))}")
        return 2
    failures = 0
    for eid in wanted:
        result = run_experiment(eid, quick=not args.full, rng=args.seed)
        rendered = result.render()
        print(rendered)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{eid}.txt").write_text(rendered + "\n")
        failures += 0 if result.passed else 1
    return 1 if failures else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.workloads.registry import WORKLOADS, make_instance

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(sorted(WORKLOADS))}")
        return 2
    inst = make_instance(args.workload, args.n, args.n, args.alpha, args.d, rng=args.seed)
    community = inst.main_community()
    oracle = ProbeOracle(inst)
    params = Params.robust() if args.robust else Params.practical()
    recorder = None
    ctx: contextlib.AbstractContextManager[None] = contextlib.nullcontext()
    if args.telemetry is not None:
        recorder = obs.Recorder(
            meta={"command": "demo", "workload": args.workload, "n": args.n, "seed": args.seed}
        )
        ctx = obs.recording(recorder)
    with ctx:
        with obs.span("demo", oracle=oracle, alpha=args.alpha, D=args.d):
            with oracle.phase("find_preferences"):
                if args.unknown_d:
                    result = find_preferences_unknown_d(
                        oracle, args.alpha, params=params, rng=args.seed + 1, d_max=max(args.d * 2, 4)
                    )
                else:
                    result = find_preferences(oracle, args.alpha, args.d, params=params, rng=args.seed + 1)
    report = evaluate(result.outputs, inst.prefs, community.members, diam=community.diameter)
    print(f"instance   : {inst.name}")
    print(f"community  : {community.size} players, diameter {community.diameter}")
    print(f"algorithm  : {result.algorithm}")
    print(f"rounds     : {result.rounds} (solo = {args.n})")
    print(f"discrepancy: {report.discrepancy}")
    print(f"stretch    : {report.stretch:.2f}")
    if args.profile:
        from repro.analysis.cost_profile import phase_breakdown

        print()
        print(phase_breakdown(oracle).render())
    if recorder is not None:
        recorder.dump_jsonl(args.telemetry)
        print(f"telemetry  : {args.telemetry} ({len(recorder.spans)} spans, "
              f"{len(recorder.counters)} counters)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import load_runtime, serve
    from repro.workloads.registry import WORKLOADS, make_instance

    inst = None
    if args.restore is not None:
        try:
            runtime = load_runtime(args.restore, workers=args.workers)
        except (FileNotFoundError, ValueError) as exc:
            print(f"cannot restore {args.restore}: {exc}")
            return 2
        print(f"restored   : {args.restore} ({runtime.workers} workers, "
              f"{runtime.phases_completed} completed)")
    else:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; known: {', '.join(sorted(WORKLOADS))}")
            return 2
        m = args.m if args.m is not None else args.n
        inst = make_instance(args.workload, args.n, m, args.alpha, args.d, rng=args.seed)
        runtime = serve(inst, _serve_config_from_args(args, seed=args.seed + 1))
    with runtime:
        outputs = runtime.run_to_completion()
        stage = "drained" if runtime.exhausted else "done"
        topology = f", {runtime.workers} workers" if runtime.workers > 1 else ""
        print(f"service    : n={runtime.n_players}, m={runtime.n_objects}, "
              f"stage {stage}{topology}")
        print(f"phases     : {runtime.phases_completed} completed "
              f"(alphas {', '.join(f'{a:g}' for a in runtime.completed) or 'none'})")
        print(f"probes     : {int(runtime.probe_counts().sum())} total, "
              f"{runtime.oracle_batches} oracle batches")
        if inst is not None:
            community = inst.main_community()
            report = evaluate(outputs, inst.prefs, community.members, diam=community.diameter)
            print(f"discrepancy: {report.discrepancy}")
        if args.snapshot is not None:
            print(f"snapshot   : {runtime.save(args.snapshot)}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import LoadgenConfig, run_loadgen
    from repro.serve.loadgen import dump_report_json
    from repro.workloads.registry import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(sorted(WORKLOADS))}")
        return 2
    sessions = args.sessions
    max_phases = args.max_phases
    d_max = args.d_max
    probes = args.probes
    window = args.window
    if args.quick:
        sessions = min(sessions, 64)
        max_phases = 1
        d_max = 1
        probes = min(probes, 16)
        window = min(window, 16)
    config = LoadgenConfig(
        workload=args.workload,
        dataset=None if args.dataset is None else str(args.dataset),
        sessions=sessions,
        objects=args.objects,
        alpha=args.alpha,
        D=args.d,
        seed=args.seed,
        mode=args.mode,
        rate=args.rate,
        probes_per_request=probes,
        window=window,
        max_phases=max_phases,
        d_max=d_max,
        budget=args.budget,
        workers=args.workers or 1,
        log_capacity=args.log_capacity,
        warmup=args.warmup,
        metrics_path=None if args.metrics is None else str(args.metrics),
        metrics_interval_s=args.metrics_interval,
    )
    report = run_loadgen(config)
    print(report.render())
    if args.metrics is not None:
        print(f"metrics  : {args.metrics} (render with 'repro obs top {args.metrics}')")
    if args.json is not None:
        dump_report_json(str(args.json), report)
        print(f"json     : {args.json}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets import DatasetStore, dataset_names, get_dataset, ingest

    if args.dataset_command == "ingest":
        source = Path(args.source)
        threshold = args.threshold
        if not source.exists() and args.source in dataset_names():
            spec = get_dataset(args.source)
            source = spec.materialize(args.out.parent / "raw")
            if threshold is None:
                threshold = spec.threshold
        if not source.exists():
            print(f"no such source file or registry name: {args.source}")
            print(f"registered datasets: {', '.join(dataset_names())}")
            return 2
        result = ingest(
            source,
            args.out,
            threshold=threshold if threshold is not None else 0.0,
            missing=args.missing,
            fmt=args.format,
            shard_rows=args.shard_rows,
            name=args.name,
        )
        print(
            f"ingested {result.rows_read} {result.format} rows -> {result.path} "
            f"({result.n} players x {result.m} objects, {result.shards} shards)"
        )
        return 0
    if args.dataset_command == "info":
        info = DatasetStore.open(args.dir).info()
        for key in ("name", "n", "m", "shards", "packed_bytes"):
            print(f"{key:12s}: {info[key]}")
        for group in ("source", "stats"):
            for key, value in info[group].items():
                print(f"{group + '.' + key:12s}: {value}")
        return 0
    if args.dataset_command == "sample":
        store = DatasetStore.open(args.dir)
        rows = store.sample(args.rows)
        print(f"{store.name}: first {rows.shape[0]} of {store.n} players, m={store.m}")
        for row in rows:
            print("".join("#" if bit else "." for bit in row))
        return 0
    if args.dataset_command == "evaluate":
        import json as _json

        from repro.datasets.evaluate import evaluate_dataset

        evaluation = evaluate_dataset(args.dir, rng=args.seed, radius=args.radius)
        print(evaluation.render())
        if args.json is not None:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(evaluation.to_dict(), fh, indent=2)
                fh.write("\n")
            print(f"json     : {args.json}")
        return 0
    raise AssertionError(
        f"unhandled dataset command {args.dataset_command!r}"
    )  # pragma: no cover


def _cmd_kernels(args: argparse.Namespace) -> int:
    """Introspect the kernel-dispatch layer (``repro kernels``).

    The serving twin of ``repro obs top``: answers "which backend is
    this process actually running, and why" without touching the
    substrate — the same payload the benchmark records embed as their
    ``kernel_backend`` honesty stamp.
    """
    import json as _json

    from repro.metrics.kernels import kernel_info

    info = kernel_info()
    if args.json:
        print(_json.dumps(info, indent=2))
        return 0
    print(f"backend : {info['backend']}")
    print(f"reason  : {info['reason']}")
    for name, value in info["env"].items():
        print(f"env     : {name}={value if value is not None else '(unset)'}")
    print("kernels :")
    for name, backend in info["kernels"].items():
        print(f"  {name:24s} -> {backend}")
    return 0


def _load_telemetry(path: Path) -> "obs.TelemetryRun | None":
    try:
        return obs.load_jsonl(path)
    except FileNotFoundError:
        print(f"no such telemetry file: {path}")
        return None
    except ValueError as exc:
        print(f"cannot read {path}: {exc}")
        return None


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "summarize":
        run = _load_telemetry(args.file)
        if run is None:
            return 2
        print(obs.render_summary(run))
        return 0
    if args.obs_command == "export":
        run = _load_telemetry(args.file)
        if run is None:
            return 2
        if not run.metrics:
            print(f"{args.file} has no metric snapshots (run loadgen with --metrics)")
            return 2
        try:
            snapshot = run.metrics[args.snapshot]
        except IndexError:
            print(f"snapshot index {args.snapshot} out of range (file has {len(run.metrics)})")
            return 2
        print(obs.MetricRegistry.from_snapshot(snapshot).expose_text(), end="")
        return 0
    if args.obs_command == "top":
        import time as _time

        while True:
            run = _load_telemetry(args.file)
            if run is None:
                return 2
            if not run.metrics:
                print(f"{args.file} has no metric snapshots yet")
                if not args.follow:
                    return 2
            else:
                previous = run.metrics[-2] if len(run.metrics) > 1 else None
                frame = obs.metrics.render_frame(run.metrics[-1], previous)
                if args.follow:
                    # ANSI clear-screen + home keeps the frame in place.
                    print("\x1b[2J\x1b[H" + frame, flush=True)
                else:
                    print(frame)
            if not args.follow:
                return 0
            try:
                _time.sleep(args.refresh)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "dataset":
        return _cmd_dataset(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "kernels":
        return _cmd_kernels(args)
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command == "report":
        from repro.reporting import write_report

        experiments = args.experiments or None
        telemetry = args.out.with_suffix(".telemetry.jsonl") if args.telemetry else None
        report = write_report(
            args.out, experiments, quick=not args.full, seed=args.seed, telemetry=telemetry
        )
        print(f"wrote {args.out} — {report.n_passed}/{len(report.results)} experiments passed")
        if telemetry is not None:
            print(f"telemetry archived at {telemetry}")
        return 0 if report.all_passed else 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
