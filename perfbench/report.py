"""Traced per-layer report of every workload, plus an ungated serve n-sweep.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 1]

For each workload: one untraced pass, then one traced pass on the same
inputs, printed as a per-layer table (count, self seconds, share of
wall, ratios) with an ``other`` row and the tracing overhead.  The
sweep then runs ``serve-closed`` at n = 128, 256 and 512 and prints
untraced probes/s beside the traced share of wall of each layer — the
same-host curve of serving cost against population.  Nothing here is
gated; ``run.py`` is the gated benchmark (``--trace 1`` prints one
workload's table).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

SWEEP = (128, 256, 512)
_SWEEP_SPANS = (
    "sessions.advance", "billboard.readiness", "billboard.vote_gather", "rowset.vote",
    "billboard.post", "oracle.probe", "router", "service.barrier",
)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        perfbench.stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        perfbench.use_checkout()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import layers, workloads

    ok = True
    for name, w in workloads.WORKLOADS.items():
        untraced = workloads.single_pass(w, args.seed)
        traced, front, shard_regs = workloads.traced_pass(w, args.seed)
        gate = workloads.check(w, [untraced, traced])
        ok = ok and gate.ok
        print(layers.render_table(
            name, front, shard_regs, wall_s=traced.wall_s, n_workers=w.workers, untraced_wall_s=untraced.wall_s,
        ))
        derived = layers.derive(
            front, shard_regs, wall_s=traced.wall_s, n_workers=w.workers, untraced_wall_s=untraced.wall_s,
        )
        print(f"  named layers cover {derived['trace.coverage']:.1%} of the traced wall; gate "
              + ("passed" if gate.ok else "FAILED: " + "; ".join(gate.problems)))
        print()

    base = workloads.WORKLOADS["serve-closed"]
    print("serve-closed n-sweep (untraced probes/s; traced share of wall per layer)")
    print(f"  {'n':>5} {'probes/s':>10} " + " ".join(f"{s:>21}" for s in (*_SWEEP_SPANS, "other")))
    for n in SWEEP:
        w = dataclasses.replace(base, n=n)
        untraced = workloads.single_pass(w, args.seed)
        traced, front, _ = workloads.traced_pass(w, args.seed)
        probes = int(untraced.counts.sum()) if untraced.counts is not None else 0
        view = layers.LayerView(front)
        shares = [view.self_s(s) / traced.wall_s for s in _SWEEP_SPANS]
        cells = " ".join(f"{x:>21.1%}" for x in (*shares, 1.0 - view.named_s() / traced.wall_s))
        print(f"  {n:>5} {probes / untraced.wall_s:>10.0f} {cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
