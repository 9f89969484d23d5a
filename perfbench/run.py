"""Run one benchmark workload and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-closed --seed 1 --seconds 30 --trace 0

Prints the run's context and, with ``--trace 1``, the per-layer table;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Exits with status 2, printing no result, when the checkout holds no
program to measure or a reported percentile lacks the samples to support
it; with status 1 when the workload itself raised.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        perfbench.stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        perfbench.use_checkout()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.InsufficientSamples as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 2

    print("context " + json.dumps(result.context, sort_keys=True))
    for problem in result.problems:
        print(f"gate: {problem}")
    if result.table:
        print(result.table)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
