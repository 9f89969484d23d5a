"""Micro-batching request router for the serving runtime.

Requests ("advance my session by a few probes") buffer inside a
configurable batching window; one :meth:`flush` then drives every
granted session to its next probe run and issues the whole wavefront as
a single :meth:`ProbeOracle.probe_many` call — the amortisation the HPC
guides recommend, applied across *sessions* instead of across players of
one offline run.  A session owes a run of objects (a Zero Radius leaf
is one run, a Select step a run of one), and the wavefront takes as
much of each run as the session's grant still allows; what the grant
does not cover stays owed to the next sweep or flush.  Each player's
probes keep their own order, and a program sees other players only
through ``Wait``-guarded billboard reads, so how a run is split across
wavefronts changes no bit.  ``tests/test_serve_equivalence.py``
referees this schedule against a test-local scalar-probe driver and
the lockstep engine.

Admission control is budget-based and degrades gracefully: when the
oracle raises :class:`~repro.billboard.exceptions.BudgetExceededError`
the service freezes at the last *completed* anytime phase and every
response — including the one that hit the wall — carries that phase's
estimate.  Clients never see an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import SIZE_BUCKETS
from repro.billboard.exceptions import BudgetExceededError
from repro.serve.service import ServeService
from repro.serve.sessions import ADVANCE_DONE, ADVANCE_PROBE, advance

__all__ = ["MicroBatchRouter", "Request", "Response", "RouterConfig"]


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs.

    ``window`` is the batching window: buffered requests auto-flush once
    this many are pending (callers may flush earlier).
    ``probes_per_request`` is the default probe grant of one request.
    """

    window: int = 32
    probes_per_request: int = 32

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.probes_per_request <= 0:
            raise ValueError(f"probes_per_request must be positive, got {self.probes_per_request}")


@dataclass(frozen=True)
class Request:
    """One buffered session-advance request."""

    player: int
    probes: int


@dataclass(frozen=True)
class Response:
    """Answer to one request: always the best-so-far estimate.

    ``status`` is the session's state after the flush; a ``"drained"``
    status means the budget ran out and ``estimate`` is the last
    completed phase's answer (graceful degradation, never an error).
    ``probes_used`` counts the probes served to this request: a flush
    hands each player's served probes to its requests in submit order,
    each up to its own grant.  The in-process router fills ``estimate``;
    the sharded front-end returns ``None`` from bulk flushes (shard
    workers never compute the vectors) and fills it on explicit
    :meth:`ServeRuntime.query` calls.
    """

    player: int
    status: str
    probes_used: int
    phases_completed: int
    estimate: np.ndarray | None


class MicroBatchRouter:
    """Drives a :class:`~repro.serve.service.ServeService` request by request."""

    def __init__(self, service: ServeService, *, config: RouterConfig | None = None) -> None:
        self.service = service
        self.config = config if config is not None else RouterConfig()
        self._buffer: list[Request] = []
        self._ready: list[Response] = []

    @property
    def pending(self) -> int:
        """Requests buffered and not yet flushed."""
        return len(self._buffer)

    def submit(self, player: int, probes: int | None = None) -> None:
        """Buffer a request to advance *player* by up to *probes* probes.

        Auto-flushes when the batching window fills; collect responses
        with :meth:`flush` (which also flushes any remaining buffer).
        """
        if not (0 <= player < self.service.n_players):
            raise ValueError(f"player index {player} out of range [0, {self.service.n_players})")
        grant = self.config.probes_per_request if probes is None else int(probes)
        if grant <= 0:
            raise ValueError(f"probe grant must be positive, got {grant}")
        self._buffer.append(Request(player=player, probes=grant))
        obs.incr("serve.requests")
        metrics.incr("serve.requests_total")
        if len(self._buffer) >= self.config.window:
            self._ready.extend(self._flush_buffer())

    def query(self, player: int) -> Response:
        """Best-so-far answer for *player* without advancing anything."""
        session = self.service.sessions[player]
        return Response(
            player=player,
            status=session.status,
            probes_used=0,
            phases_completed=self.service.phases_completed,
            estimate=self.service.estimate(player),
        )

    def flush(self) -> list[Response]:
        """Flush the buffered window; returns every response since the last flush."""
        responses = self._ready
        self._ready = []
        responses.extend(self._flush_buffer())
        return responses

    def run_to_completion(self, *, probes: int | None = None) -> np.ndarray:
        """Drive every session until the service finishes; returns the outputs.

        The closed-loop convenience used by the CLI and the equivalence
        tests: each round grants every unfinished session *probes* more
        probes and flushes.  Ends at ``"done"`` or — when a budget is
        set — ``"drained"``; either way :meth:`ServeService.outputs` is
        the anytime answer.
        """
        service = self.service
        while not service.finished:
            before = service.progress_mark()
            for session in service.sessions:
                if session.status in ("complete", "drained"):
                    continue
                self.submit(session.player, probes)
            self.flush()
            if service.finished:
                break
            if service.progress_mark() == before:
                raise RuntimeError("service stalled: a full request round made no progress")
        return service.outputs()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush_buffer(self) -> list[Response]:
        requests = self._buffer
        self._buffer = []
        if not requests:
            return []
        service = self.service
        obs.incr("serve.flushes")
        obs.incr("serve.batch_occupancy", len(requests))
        registry = metrics.get_registry()
        if registry is not None:
            registry.incr("serve.flushes_total")
            registry.observe("serve.flush_occupancy", float(len(requests)), SIZE_BUCKETS)
        grants: dict[int, int] = {}
        used: dict[int, int] = {}
        for request in requests:
            grants[request.player] = grants.get(request.player, 0) + request.probes
            used.setdefault(request.player, 0)
        t0 = time.perf_counter() if registry is not None else 0.0
        with obs.span("serve/flush", oracle=service.oracle, requests=len(requests)):
            self._drive(grants, used)
        if registry is not None:
            registry.observe("serve.flush_latency_seconds", time.perf_counter() - t0)
        responses = []
        for request in requests:
            # Each request takes its grant's share of what is left of
            # the probes served to its player, in submit order.
            served = min(request.probes, used[request.player])
            used[request.player] -= served
            responses.append(
                Response(
                    player=request.player,
                    status=service.sessions[request.player].status,
                    probes_used=served,
                    phases_completed=service.phases_completed,
                    estimate=self._estimate(request.player),
                )
            )
        if registry is not None:
            degraded = sum(1 for response in responses if response.status == "drained")
            if degraded:
                registry.incr("serve.degraded_admissions_total", degraded)
        return responses

    def _estimate(self, player: int) -> np.ndarray | None:
        """The estimate a flushed response carries (a shard worker's: none)."""
        return self.service.estimate(player)

    def _drive(self, grants: dict[int, int], used: dict[int, int]) -> None:
        """Advance granted sessions until probes run out or nothing moves."""
        service = self.service
        order = sorted(grants)
        # Sessions parked at a Wait stay blocked until a post or a stage
        # change lands (waits are guarded by channel-group post counts,
        # and only those two events move them) — skip them until then
        # instead of re-running their readiness checks every sweep.
        blocked: set[int] = set()
        while not service.finished:
            batch_players: list[int] = []
            batch_objects: list[np.ndarray] = []
            stage_done = False
            posted = False
            for player in order:
                if grants[player] <= 0 or player in blocked:
                    continue
                session = service.sessions[player]
                if session.status != "active":
                    continue
                posts_before = session.posts
                outcome = advance(session, service.oracle.billboard)
                if session.posts != posts_before:
                    posted = True
                    metrics.incr("serve.billboard_posts_total", session.posts - posts_before)
                if outcome == ADVANCE_PROBE:
                    batch_players.append(player)
                    batch_objects.append(session.owed_objects(grants[player]))
                elif outcome == ADVANCE_DONE:
                    assert session.output is not None
                    service.note_stage_done(player, session.output)
                    stage_done = True
                else:
                    blocked.add(player)
                    metrics.incr("serve.wait_parks_total")
            if stage_done or posted:
                blocked.clear()
            if batch_players:
                if not self._issue(batch_players, batch_objects, grants, used):
                    return
            elif not stage_done and not posted:
                return

    def _issue(
        self,
        players: list[int],
        objects: list[np.ndarray],
        grants: dict[int, int],
        used: dict[int, int],
    ) -> bool:
        """Answer one probe wavefront (``objects[i]`` is the part of
        ``players[i]``'s owed run it takes); ``False`` when the budget ran out."""
        service = self.service
        takes = [chunk.size for chunk in objects]
        registry = metrics.get_registry()
        t0 = time.perf_counter() if registry is not None else 0.0
        try:
            values = service.oracle.probe_many(
                np.repeat(np.asarray(players, dtype=np.intp), takes), np.concatenate(objects)
            )
        except BudgetExceededError:
            service.mark_exhausted()
            return False
        if registry is not None:
            registry.incr("serve.wavefronts_total")
            registry.incr("serve.probes_total", values.size)
            registry.observe("serve.wavefront_size", float(values.size), SIZE_BUCKETS)
            registry.observe("serve.wavefront_latency_seconds", time.perf_counter() - t0)
        stop = 0
        for player, take in zip(players, takes):
            start, stop = stop, stop + take
            service.sessions[player].deliver(values[start:stop])
            grants[player] -= take
            used[player] += take
        return True
