"""The §6 anytime loop as a long-lived service.

:class:`ServeService` owns everything one deployment of the anytime
algorithm needs — the charged :class:`~repro.billboard.oracle.ProbeOracle`,
the master rng, the per-player :class:`~repro.serve.sessions.SessionStore`,
and the phase state machine — but never *drives* it: the router
(:mod:`repro.serve.router`) advances sessions and the service only
reacts to stage completions.

Equivalence contract
--------------------
The service is the §6 anytime loop over player programs.  It replays
:func:`repro.core.main.anytime_find_preferences`'s randomness
consumption exactly — per phase one ``spawn(gen)`` for the unknown-``D``
coins (:meth:`UnknownDCoins.draw` re-draws them call for call), then
for the merge stage ``spawn_many(spawn(gen), n)`` — and its players run
the engine programs that are each bitwise-equal to their global twin.
Together with the schedule-insensitivity of those programs (see
:mod:`repro.serve.sessions`), a service driven to completion is bitwise
equal — outputs *and* per-player probe counts — to the offline
:func:`repro.core.main.anytime_find_preferences` for the same seed.

Checkpoints
-----------
Phase barriers are the consistent cuts of the anytime loop: between
phases no program is suspended, so the whole service is a handful of
arrays plus the master rng state.  The service captures such a
:class:`ServiceCheckpoint` after every completed phase (and on
drain); :mod:`repro.serve.snapshot` archives it.  A barrier first
retires its phase's billboard channels: every one is named
``phase<j>/…``, the merge reads only ``best`` and the new output, and
the next phase posts under its own prefix, so no program can read
them again.  The cut is therefore the revealed grades, the probe
charges, ``best``, the phase progress and the rng state — no channels.
The hidden matrix is the environment the oracle answers from, not
state, so it is not part of the cut either.  A restored service is
built by the same constructor as a fresh one, from the matrix plus a
checkpoint; it re-draws the interrupted phase coin-for-coin, so a
killed-and-resumed service ends bitwise-identical to one that was
never interrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.billboard.oracle import ProbeOracle
from repro.core.main import anytime_phase_cap
from repro.engine.main_player import (
    UnknownDCoins,
    find_preferences_unknown_d_player,
    merge_program,
)
from repro.metrics.bitpack import BitMatrix
from repro.model.instance import Instance
from repro.serve.config import ServeConfig as _ServeConfig
from repro.serve.sessions import PlayerProgram, SessionStore
from repro.utils.rng import as_generator, from_state, spawn, spawn_many, state_of

if TYPE_CHECKING:
    from repro.serve.config import ServeConfig

__all__ = ["ServeService", "ServiceCheckpoint"]


@dataclass
class ServiceCheckpoint:
    """A phase-barrier cut of a whole service (see module docstring)."""

    config: ServeConfig
    phase: int
    completed: list[float]
    exhausted: bool
    rng_state: dict[str, Any]
    counts: np.ndarray
    revealed: np.ndarray
    values: np.ndarray
    best: np.ndarray | None


class ServeService:
    """Phase state machine of one online anytime deployment.

    The service is always in one of four stages:

    * ``"main"`` — sessions run the phase-``j`` unknown-``D`` programs;
    * ``"merge"`` — sessions RSelect the new phase output into the
      running best;
    * ``"done"`` — every phase completed; sessions are ``"complete"``;
    * ``"drained"`` — the budget ran out; sessions are ``"drained"`` and
      answer from the last completed phase.

    Fresh and restored services share this constructor and the topology
    hooks: the private ``_restore`` checkpoint (passed by
    :meth:`from_checkpoint` and the runtimes) resumes at its barrier
    instead of phase 0.
    """

    def __init__(
        self,
        instance: Instance | np.ndarray | BitMatrix,
        *,
        config: ServeConfig | None = None,
        _restore: ServiceCheckpoint | None = None,
    ) -> None:
        self.config = config if config is not None else _ServeConfig()
        self.params = self.config.resolved_params()
        self.oracle = self._make_oracle(instance)
        self._gen = as_generator(self.config.seed)
        self.phase_j = 0
        self.best: np.ndarray | None = None
        self.completed: list[float] = []
        self.exhausted = False
        if _restore is not None:
            self.oracle.billboard.restore_state(_restore.revealed, _restore.values)
            self.oracle.restore_counts(_restore.counts)
            self._gen = from_state(_restore.rng_state)
            self.phase_j = _restore.phase
            if _restore.best is not None:
                self.best = np.asarray(_restore.best, dtype=np.int8).copy()
            self.completed = list(_restore.completed)
            self.exhausted = bool(_restore.exhausted)
        self.sessions = self._make_sessions()
        self.stage = "main"
        self._stage_outputs: dict[int, np.ndarray] = {}
        self._max_j = anytime_phase_cap(self.oracle.n_players, self.config.max_phases)
        self._checkpoint = self._capture_checkpoint()
        if self.exhausted:
            self.stage = "drained"
            self.sessions.freeze("drained")
        elif self.phase_j > self._max_j:
            self._finish_service()
        else:
            self._begin_phase()

    # ------------------------------------------------------------------
    # topology hooks (overridden by the sharded worker service)
    # ------------------------------------------------------------------
    def _make_oracle(self, instance: Instance | np.ndarray | BitMatrix) -> ProbeOracle:
        """Build the charged oracle; shard workers attach a shared billboard."""
        return ProbeOracle(
            instance,
            budget=self.config.budget,
            charge_repeats=self.config.charge_repeats,
        )

    def _make_sessions(self) -> SessionStore:
        """Build the session store; shard workers pass their player subset."""
        return SessionStore(self.oracle.n_players)

    def _local_players(self) -> Sequence[int]:
        """Players whose sessions this process owns (all of them here)."""
        return range(self.oracle.n_players)

    # ------------------------------------------------------------------
    # shape / progress
    # ------------------------------------------------------------------
    @property
    def n_players(self) -> int:
        """Population size ``n``."""
        return self.oracle.n_players

    @property
    def n_objects(self) -> int:
        """Object count ``m``."""
        return self.oracle.n_objects

    @property
    def finished(self) -> bool:
        """Whether the service stopped advancing (``done`` or ``drained``)."""
        return self.stage in ("done", "drained")

    @property
    def phases_completed(self) -> int:
        """Number of fully merged anytime phases."""
        return len(self.completed)

    def progress_mark(self) -> tuple[int, int, int, str]:
        """``(probes, posts, phase, stage)``: stall guards compare two marks."""
        probes = int(self.oracle.stats().per_player.sum())
        posts = sum(s.posts for s in self.sessions)
        return (probes, posts, self.phase_j, self.stage)

    def estimate(self, player: int) -> np.ndarray:
        """Best-so-far preference vector of *player* (anytime answer).

        Before any phase completes this is the billboard fallback the
        offline anytime loop would return (revealed grades, zeros
        elsewhere); afterwards it is the running merged best.  Always a
        copy.
        """
        if self.best is not None:
            return self.best[player].copy()
        # Grades are 0/1 and hidden entries -1, so clipping at 0 zeroes
        # exactly the unrevealed entries.
        return np.maximum(self.oracle.billboard.revealed_values()[player], 0)

    def outputs(self) -> np.ndarray:
        """Best-so-far ``(n, m)`` output matrix (anytime answer; a copy)."""
        if self.best is not None:
            return self.best.copy()
        return np.maximum(self.oracle.billboard.revealed_values(), 0)

    # ------------------------------------------------------------------
    # stage machine (driven by the router)
    # ------------------------------------------------------------------
    def note_stage_done(self, player: int, output: np.ndarray) -> None:
        """Park *player*'s session at the barrier with its stage output;
        fires the barrier when all are in."""
        if self.finished:
            raise RuntimeError("service is finished; no stage is running")
        self.sessions[player].status = "barrier"
        self._stage_outputs[player] = np.asarray(output, dtype=np.int8)
        if len(self._stage_outputs) == len(self._local_players()):
            self._on_stage_complete()

    def mark_exhausted(self) -> None:
        """Budget ran out mid-phase: freeze at the last completed phase.

        Mirrors the offline loop's ``except BudgetExceededError`` arm —
        the interrupted phase is discarded, the best *completed* output
        stands (or the billboard fallback if no phase ever completed),
        and the service stops advancing.  Never an error to clients.
        The interrupted phase's channels are retired as at a barrier, so
        the live board at a drained cut holds what a restored one holds.
        """
        if self.finished:
            return
        self.exhausted = True
        self._stage_outputs = {}
        obs.event("serve.budget_exhausted", phase=self.phase_j, stage=self.stage)
        metrics.incr("serve.budget_exhausted_total")
        self.stage = "drained"
        self.sessions.freeze("drained")
        self.oracle.billboard.retire(f"phase{self.phase_j}/")
        self._checkpoint = self._capture_checkpoint()

    def checkpoint(self) -> ServiceCheckpoint:
        """The latest phase-barrier checkpoint (see module docstring)."""
        return self._checkpoint

    @classmethod
    def from_checkpoint(
        cls, instance: Instance | np.ndarray | BitMatrix, ckpt: ServiceCheckpoint
    ) -> "ServeService":
        """Rebuild a service over *instance* from a :class:`ServiceCheckpoint`.

        The restored service re-draws the interrupted phase's coins from
        the checkpointed rng state, so everything after the cut replays
        bitwise-identically.
        """
        return cls(instance, config=ckpt.config, _restore=ckpt)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _begin_phase(self) -> None:
        """Draw phase-``j`` coins and install the unknown-``D`` programs."""
        n, m = self.n_players, self.n_objects
        alpha_j = 2.0 ** (-self.phase_j)
        coins = UnknownDCoins.draw(
            n, m, alpha_j, params=self.params, rng=spawn(self._gen), d_max=self.config.d_max
        )
        programs: dict[int, PlayerProgram] = {
            pl: find_preferences_unknown_d_player(
                pl, coins, self.oracle.billboard, n, m, params=self.params,
                channel_prefix=f"phase{self.phase_j}/",
            )
            for pl in self._local_players()
        }
        self.stage = "main"
        self.sessions.load_stage(programs)

    def _on_stage_complete(self) -> None:
        n = self.n_players
        outputs = np.zeros((n, self.n_objects), dtype=np.int8)
        for pl, vec in self._stage_outputs.items():
            outputs[pl] = vec
        self._stage_outputs = {}
        if self.stage == "main":
            if self.best is None:
                self.best = outputs
                self._finish_phase()
                return
            # Every topology draws the full-population merge rngs so the
            # master generator stays in lockstep across shards; each
            # process only *runs* the programs of the players it owns.
            merge_rngs = spawn_many(spawn(self._gen), n)
            programs: dict[int, PlayerProgram] = {
                pl: merge_program(pl, self.best[pl], outputs[pl], n, merge_rngs[pl], self.params)
                for pl in self._local_players()
            }
            self.stage = "merge"
            self.sessions.load_stage(programs)
            return
        if self.stage == "merge":
            self.best = outputs
            self._finish_phase()
            return
        raise AssertionError(f"stage {self.stage!r} cannot complete")  # pragma: no cover

    def _finish_phase(self) -> None:
        """Phase barrier: record completion, retire the phase's channels,
        checkpoint, start the next."""
        self.completed.append(2.0 ** (-self.phase_j))
        obs.incr("serve.phases_completed")
        metrics.incr("serve.phases_completed_total")
        self.oracle.billboard.retire(f"phase{self.phase_j}/")
        self.phase_j += 1
        metrics.set_gauge("serve.phase", self.phase_j)
        self._checkpoint = self._capture_checkpoint()
        if self.phase_j > self._max_j:
            self._finish_service()
        else:
            self._begin_phase()

    def _finish_service(self) -> None:
        # Both callers captured this cut just before: finishing changes
        # the stage and the sessions, neither of which a checkpoint holds.
        self.stage = "done"
        self.sessions.freeze("complete")

    def _capture_checkpoint(self) -> ServiceCheckpoint:
        revealed, values = self.oracle.billboard.checkpoint()
        return ServiceCheckpoint(
            config=self.config,
            phase=self.phase_j,
            completed=list(self.completed),
            exhausted=self.exhausted,
            rng_state=state_of(self._gen),
            counts=self.oracle.stats().per_player,
            revealed=revealed,
            values=values,
            best=None if self.best is None else self.best.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"ServeService(n={self.n_players}, m={self.n_objects}, stage={self.stage!r}, "
            f"phase={self.phase_j}, completed={self.phases_completed})"
        )

