"""The one interpreter of the player-action protocol.

A :class:`Stepper` holds one player program (a generator yielding
:class:`~repro.engine.actions.Probe` / ``ProbeEach`` / ``Post`` /
``Wait``) at its last yield point, and :func:`advance` runs it to its
next round-consuming action.  Every driver of player programs steps
through this pair: the lockstep :class:`~repro.engine.scheduler.RoundScheduler`
and the serving router (:mod:`repro.serve.router`, whose sessions are
steppers).  Both answer the probes they collect as one
``ProbeOracle.probe_many`` wavefront, so neither holds its own reading
of the protocol.

Both probe actions leave the stepper *owing* a run of objects — a
``Probe`` is a run of length one — behind one cursor: a driver reads
:meth:`Stepper.owed_objects`, answers as many of them as it likes, and
hands their grades back with :meth:`Stepper.deliver`.  The program
resumes only once the whole run is answered; until then :func:`advance`
reports the rest of the run as still owed.  The lockstep scheduler
takes one owed object per round, the router as many as a request's
grant allows.

Counters belong to the drivers: a stepper only tallies the posts it
processed and the grades it was delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.engine.actions import Post, Probe, ProbeEach, Wait

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

    ``owed`` is the run of objects whose grades the program awaits and
    ``cursor`` how many of them were delivered (``owed`` is ``None``
    when nothing is owed); ``reply`` collects a ``ProbeEach`` run's
    grades and is ``None`` for a single ``Probe``.  ``output`` is the
    program's return value once it finished, and ``posts`` / ``probes``
    tally the posts processed and grades delivered so far.
    """

    player: int
    program: PlayerProgram | None = None
    send_value: Any = None
    owed: np.ndarray | None = None
    cursor: int = 0
    reply: np.ndarray | None = None
    output: np.ndarray | None = None
    posts: int = 0
    probes: int = 0

    @property
    def pending_probe(self) -> int | None:
        """The next owed object (the head of the run), or ``None``."""
        return None if self.owed is None else int(self.owed[self.cursor])

    def owed_objects(self, limit: int) -> np.ndarray:
        """The next *limit* (at most) owed objects, in probe order."""
        if self.owed is None:
            raise RuntimeError(f"player {self.player} has no pending probe")
        return self.owed[self.cursor:self.cursor + limit]

    def deliver(self, grades: int | np.ndarray) -> None:
        """Hand back the grades of the next owed objects, in order.

        *grades* is one grade or an array of them; together with those
        delivered before it must not run past the owed run.  The
        program gets its reply once the run is complete.
        """
        if self.owed is None:
            raise RuntimeError(f"player {self.player} has no pending probe")
        grades = np.asarray(grades, dtype=np.int8).reshape(-1)
        start, stop = self.cursor, self.cursor + grades.size
        if grades.size == 0 or stop > self.owed.size:
            raise RuntimeError(
                f"player {self.player} owes {self.owed.size - start} grades, was handed {grades.size}"
            )
        self.probes += grades.size
        if self.reply is not None:
            self.reply[start:stop] = grades
        if stop < self.owed.size:
            self.cursor = stop
            return
        self.send_value = int(grades[0]) if self.reply is None else self.reply
        self.drop_owed()

    def drop_owed(self) -> None:
        """Forget the owed run (a new stage or a frozen session)."""
        self.owed = None
        self.cursor = 0
        self.reply = None


def advance(stepper: Stepper, billboard: Billboard) -> str:
    """Advance *stepper* to its next round-consuming suspension point.

    ``Post`` actions are processed inline (they are free in the round
    model), and so is an empty ``ProbeEach``; the function returns at
    the first action that needs the driver:

    * :data:`ADVANCE_PROBE` — a run is owed (``owed_objects``); the
      driver answers a prefix of it via :meth:`Stepper.deliver`.  A run
      delivered in part stays owed: the program is not resumed;
    * :data:`ADVANCE_WAIT` — blocked on other players' posts;
    * :data:`ADVANCE_DONE` — the program returned; ``output`` holds its
      value.
    """
    if stepper.program is None:
        raise RuntimeError(f"player {stepper.player} has no live program")
    if stepper.owed is not None:
        if stepper.cursor == 0:
            raise RuntimeError(f"player {stepper.player} still awaits a probe grade")
        return ADVANCE_PROBE
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
        if isinstance(action, ProbeEach):
            if not action.objects.size:
                stepper.send_value = np.empty(0, dtype=np.int8)
                continue
            stepper.owed = action.objects
            stepper.reply = np.empty(action.objects.size, dtype=np.int8)
            return ADVANCE_PROBE
        if isinstance(action, Probe):
            stepper.owed = np.array((action.obj,), dtype=np.intp)
            return ADVANCE_PROBE
        if isinstance(action, Wait):
            return ADVANCE_WAIT
        raise TypeError(f"player {stepper.player} yielded unknown action {action!r}")
