"""Per-player session state for the online serving runtime.

A *session* is one player's suspended execution of the §6 anytime
algorithm: the same generator programs the round engine runs
(:func:`repro.engine.main_player.find_preferences_unknown_d_player` for
the phase body, :func:`repro.engine.anytime_player.merge_program` for
the phase merge), held at their last yield point so a request can
advance them by a handful of probes and park them again.

The player-program protocol (see :mod:`repro.engine.actions`) makes this
safe: programs only read a billboard channel group once its post count
shows every expected player has posted (``Wait``-guarded
:meth:`~repro.billboard.board.Billboard.vote` /
:meth:`~repro.billboard.board.Billboard.group_ready`), and every
channel name embeds the posting player's id, so sessions may be
advanced at arbitrary relative rates —
interleaved, micro-batched, or one at a time — and still produce the
outputs and probe counts of the lockstep scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.billboard.board import Billboard
from repro.engine.actions import Post, Probe, Wait

__all__ = [
    "ADVANCE_DONE",
    "ADVANCE_PROBE",
    "ADVANCE_WAIT",
    "PlayerProgram",
    "Session",
    "SessionStore",
    "advance",
]

#: A suspended player program: yields engine actions, returns the
#: player's output vector.
PlayerProgram = Generator[Any, Any, np.ndarray]

#: :func:`advance` outcomes.
ADVANCE_PROBE = "probe"
ADVANCE_WAIT = "wait"
ADVANCE_DONE = "done"


@dataclass
class Session:
    """One player's suspended anytime computation.

    ``status`` is one of:

    * ``"active"`` — holds a live program for the current service stage;
    * ``"barrier"`` — finished its stage program (``stage_output`` set)
      and waits for the rest of the population to reach the barrier;
    * ``"complete"`` — the service ran every phase to the end;
    * ``"drained"`` — the probe budget ran out; the session answers from
      the last completed phase forever after.
    """

    player: int
    status: str = "barrier"
    program: PlayerProgram | None = None
    send_value: int | None = None
    pending_probe: int | None = None
    stage_output: np.ndarray | None = None
    probes_served: int = 0
    posts_served: int = 0
    requests_served: int = 0

    def deliver(self, value: int) -> None:
        """Hand the grade of the pending probe back to the program."""
        if self.pending_probe is None:
            raise RuntimeError(f"session {self.player} has no pending probe")
        self.pending_probe = None
        self.send_value = int(value)
        self.probes_served += 1


def advance(session: Session, billboard: Billboard) -> str:
    """Advance *session* to its next round-consuming suspension point.

    ``Post`` actions are processed inline (they are free in the round
    model); the function returns at the first action that needs the
    router:

    * :data:`ADVANCE_PROBE` — ``pending_probe`` is set; the router owes
      the session one oracle grade (via :meth:`Session.deliver`);
    * :data:`ADVANCE_WAIT` — blocked on other sessions' posts;
    * :data:`ADVANCE_DONE` — the stage program returned;
      ``stage_output`` holds the vector and the session parks at the
      barrier.
    """
    if session.program is None:
        raise RuntimeError(f"session {session.player} has no live program")
    if session.pending_probe is not None:
        raise RuntimeError(f"session {session.player} still awaits a probe grade")
    while True:
        try:
            action = session.program.send(session.send_value)
        except StopIteration as stop:
            session.program = None
            session.send_value = None
            session.stage_output = np.asarray(stop.value, dtype=np.int8)
            session.status = "barrier"
            return ADVANCE_DONE
        session.send_value = None
        if isinstance(action, Post):
            billboard.post_vectors(action.channel, np.atleast_2d(action.vector))
            session.posts_served += 1
            metrics.incr("serve.billboard_posts_total")
            continue
        if isinstance(action, Probe):
            session.pending_probe = int(action.obj)
            return ADVANCE_PROBE
        if isinstance(action, Wait):
            return ADVANCE_WAIT
        raise TypeError(f"session {session.player} yielded unknown action {action!r}")


class SessionStore:
    """All sessions of one service, keyed by player id.

    The store tracks which sessions hold live programs and keeps the
    ``serve.active_sessions`` gauge current whenever telemetry is
    recording.  A sharded worker passes *players* — the subset of the
    population it owns — and stores sessions for those ids only.
    """

    def __init__(self, n_players: int, players: Sequence[int] | None = None) -> None:
        if n_players <= 0:
            raise ValueError(f"population must be positive, got n={n_players}")
        owned = range(n_players) if players is None else [int(p) for p in players]
        if players is not None:
            if not owned:
                raise ValueError("a session store must own at least one player")
            bad = [p for p in owned if not 0 <= p < n_players]
            if bad:
                raise ValueError(f"player ids out of range for n={n_players}: {bad}")
            if len(set(owned)) != len(owned):
                raise ValueError("duplicate player ids in session store")
        self._sessions = {player: Session(player=player) for player in owned}
        self._gauge()

    def __len__(self) -> int:
        return len(self._sessions)

    def __getitem__(self, player: int) -> Session:
        return self._sessions[player]

    def __iter__(self) -> Iterator[Session]:
        for player in sorted(self._sessions):
            yield self._sessions[player]

    def load_stage(self, programs: Mapping[int, PlayerProgram]) -> None:
        """Install one stage's programs; those sessions go ``"active"``."""
        for player, program in programs.items():
            session = self._sessions[player]
            session.program = program
            session.send_value = None
            session.pending_probe = None
            session.stage_output = None
            session.status = "active"
        self._gauge()

    def freeze(self, status: str) -> None:
        """Retire every session to *status* (``"complete"``/``"drained"``)."""
        if status not in ("complete", "drained"):
            raise ValueError(f"freeze status must be 'complete' or 'drained', got {status!r}")
        for session in self._sessions.values():
            if session.program is not None:
                session.program.close()
                session.program = None
            session.send_value = None
            session.pending_probe = None
            session.status = status
        self._gauge()

    def count(self, status: str) -> int:
        """Number of sessions currently in *status*."""
        return sum(1 for s in self._sessions.values() if s.status == status)

    def active_players(self) -> list[int]:
        """Player ids with a live stage program, in id order."""
        return sorted(p for p, s in self._sessions.items() if s.status == "active")

    def _gauge(self) -> None:
        active = self.count("active")
        obs.gauge("serve.active_sessions", active)
        metrics.set_gauge("serve.active_sessions", active)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"SessionStore(n={len(self._sessions)}, active={self.count('active')})"
