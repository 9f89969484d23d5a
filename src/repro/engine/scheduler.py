"""The lockstep round scheduler.

Runs a set of player programs (generators yielding
:class:`~repro.engine.actions.Probe` / ``Post`` / ``Wait``) in
synchronous rounds against a shared
:class:`~repro.billboard.oracle.ProbeOracle`:

* per round, every live player is stepped in player-id order through
  :func:`~repro.engine.stepper.advance` until it performs one
  round-consuming action (a probe or a wait) — posts are free and land
  on the billboard inline, matching "reads the billboard, probes one
  object, and writes the result";
* the round's probes are then answered together as one
  :meth:`~repro.billboard.oracle.ProbeOracle.probe_many` wavefront (the
  model's players probe concurrently), so a player sees the posts of
  lower-id players made earlier in the same round but no grade of the
  round before it ends — the algorithms are insensitive to either
  (their reads are guarded by channel-group post counts; the test suite
  cross-validates them bitwise against the global implementation);
* a player's ``return`` value is its output vector.

Budget exhaustion is all-or-nothing per round: a wavefront that would
take any player over a budgeted oracle's limit raises
:class:`~repro.billboard.exceptions.BudgetExceededError` and charges
none of that round's probes.

The engine measures *true* lockstep rounds (including waits), which
upper-bounds the probe-count-based round metric of the fast simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.billboard.oracle import ProbeOracle
from repro.engine.stepper import ADVANCE_PROBE, ADVANCE_WAIT, PlayerProgram, Stepper, advance

__all__ = ["EngineResult", "RoundScheduler"]


@dataclass
class EngineResult:
    """Outcome of one scheduled execution.

    Attributes
    ----------
    outputs:
        Player → returned output vector.
    rounds:
        Lockstep rounds executed (probes *and* waits count).
    probe_rounds:
        Max charged probes over players (the fast simulation's metric).
    """

    outputs: dict[int, np.ndarray]
    rounds: int
    probe_rounds: int


class RoundScheduler:
    """Advance player programs in lockstep rounds, one probe wavefront per round."""

    def __init__(self, oracle: ProbeOracle, programs: Mapping[int, PlayerProgram]) -> None:
        if not programs:
            raise ValueError("need at least one player program")
        for player in programs:
            if not (0 <= player < oracle.n_players):
                raise ValueError(f"player {player} out of range [0, {oracle.n_players})")
        self.oracle = oracle
        self._programs = dict(programs)

    def run(self, max_rounds: int = 1_000_000) -> EngineResult:
        """Run all programs to completion (or *max_rounds*)."""
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        with obs.span("engine/run", oracle=self.oracle, players=len(self._programs)) as sp:
            result = self._run(max_rounds)
            sp.set(rounds=result.rounds)
        return result

    def _run(self, max_rounds: int) -> EngineResult:
        oracle = self.oracle
        live = [Stepper(player, program) for player, program in sorted(self._programs.items())]
        outputs: dict[int, np.ndarray] = {}
        before = oracle.stats()

        rounds = 0
        while live and rounds < max_rounds:
            probing: list[Stepper] = []
            still: list[Stepper] = []
            posts = waits = 0
            for stepper in live:
                posted = stepper.posts
                outcome = advance(stepper, oracle.billboard)
                posts += stepper.posts - posted
                if outcome == ADVANCE_PROBE:
                    probing.append(stepper)
                elif outcome == ADVANCE_WAIT:
                    waits += 1
                else:
                    assert stepper.output is not None
                    outputs[stepper.player] = stepper.output
                    continue
                still.append(stepper)
            live = still
            if posts:
                obs.incr("engine.posts", posts)
            if waits:
                obs.incr("engine.waits", waits)
            if probing:
                values = oracle.probe_many(
                    np.asarray([s.player for s in probing], dtype=np.intp),
                    np.asarray([s.pending_probe for s in probing], dtype=np.intp),
                )
                for stepper, value in zip(probing, values):
                    stepper.deliver(value)
            if live:  # every player still running probed or waited
                rounds += 1

        if live:
            raise RuntimeError(f"{len(live)} players still running after {max_rounds} rounds")
        obs.incr("engine.rounds", rounds)
        probe_rounds = (oracle.stats() - before).rounds
        return EngineResult(outputs=outputs, rounds=rounds, probe_rounds=probe_rounds)
