"""Per-player session state for the online serving runtime.

A *session* is one player's suspended execution of the §6 anytime
algorithm: the same generator programs the round engine runs
(:func:`repro.engine.main_player.find_preferences_unknown_d_player` for
the phase body, :func:`repro.engine.main_player.merge_program` for
the phase merge), held at their last yield point so a request can
advance them by a handful of probes and park them again.  A
:class:`Session` is an engine :class:`~repro.engine.stepper.Stepper`,
and :func:`advance` is the engine's one action interpreter, re-exported
here for the router.

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
from typing import Iterator, Mapping, Sequence

from repro import obs
from repro.obs import metrics
from repro.engine.stepper import (
    ADVANCE_DONE,
    ADVANCE_PROBE,
    ADVANCE_WAIT,
    PlayerProgram,
    Stepper,
    advance,
)

__all__ = [
    "ADVANCE_DONE",
    "ADVANCE_PROBE",
    "ADVANCE_WAIT",
    "PlayerProgram",
    "Session",
    "SessionStore",
    "advance",
]


@dataclass
class Session(Stepper):
    """One player's suspended anytime computation.

    ``status`` is one of:

    * ``"active"`` — holds a live program for the current service stage;
    * ``"barrier"`` — finished its stage program (``output`` set)
      and waits for the rest of the population to reach the barrier;
    * ``"complete"`` — the service ran every phase to the end;
    * ``"drained"`` — the probe budget ran out; the session answers from
      the last completed phase forever after.
    """

    status: str = "barrier"
    requests_served: int = 0


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
            session.drop_owed()
            session.output = None
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
            session.drop_owed()
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
