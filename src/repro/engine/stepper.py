"""The one interpreter of the player-action protocol.

A :class:`Stepper` holds one player program (a generator yielding
:class:`~repro.engine.actions.Probe` / ``Post`` / ``Wait``) at its last
yield point, and :func:`advance` runs it to its next round-consuming
action.  Every driver of player programs steps through this pair: the
lockstep :class:`~repro.engine.scheduler.RoundScheduler` and the serving
router (:mod:`repro.serve.router`, whose sessions are steppers).  Both
answer the probes they collect as one ``ProbeOracle.probe_many``
wavefront, so neither holds its own reading of the protocol.

Counters belong to the drivers: a stepper only tallies the posts it
processed and the grades it was delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.engine.actions import Post, Probe, Wait

__all__ = ["ADVANCE_DONE", "ADVANCE_PROBE", "ADVANCE_WAIT", "PlayerProgram", "Stepper", "advance"]

#: A suspended player program: yields engine actions, returns the
#: player's output vector.
PlayerProgram = Generator[Any, Any, np.ndarray]

#: :func:`advance` outcomes.
ADVANCE_PROBE = "probe"
ADVANCE_WAIT = "wait"
ADVANCE_DONE = "done"


@dataclass
class Stepper:
    """One player's program, suspended between round-consuming actions.

    ``pending_probe`` is the object whose grade the program awaits,
    ``output`` the program's return value once it finished, and
    ``posts`` / ``probes`` tally the posts processed and grades
    delivered so far.
    """

    player: int
    program: PlayerProgram | None = None
    send_value: int | None = None
    pending_probe: int | None = None
    output: np.ndarray | None = None
    posts: int = 0
    probes: int = 0

    def deliver(self, value: int) -> None:
        """Hand the grade of the pending probe back to the program."""
        if self.pending_probe is None:
            raise RuntimeError(f"player {self.player} has no pending probe")
        self.pending_probe = None
        self.send_value = int(value)
        self.probes += 1


def advance(stepper: Stepper, billboard: Billboard) -> str:
    """Advance *stepper* to its next round-consuming suspension point.

    ``Post`` actions are processed inline (they are free in the round
    model); the function returns at the first action that needs the
    driver:

    * :data:`ADVANCE_PROBE` — ``pending_probe`` is set; the driver owes
      the program one oracle grade (via :meth:`Stepper.deliver`);
    * :data:`ADVANCE_WAIT` — blocked on other players' posts;
    * :data:`ADVANCE_DONE` — the program returned; ``output`` holds its
      value.
    """
    if stepper.program is None:
        raise RuntimeError(f"player {stepper.player} has no live program")
    if stepper.pending_probe is not None:
        raise RuntimeError(f"player {stepper.player} still awaits a probe grade")
    while True:
        try:
            action = stepper.program.send(stepper.send_value)
        except StopIteration as stop:
            stepper.program = None
            stepper.send_value = None
            stepper.output = np.asarray(stop.value)
            return ADVANCE_DONE
        stepper.send_value = None
        if isinstance(action, Post):
            billboard.post_vectors(action.channel, np.atleast_2d(action.vector))
            stepper.posts += 1
            continue
        if isinstance(action, Probe):
            stepper.pending_probe = int(action.obj)
            return ADVANCE_PROBE
        if isinstance(action, Wait):
            return ADVANCE_WAIT
        raise TypeError(f"player {stepper.player} yielded unknown action {action!r}")
