"""Micro-batching request router for the serving runtime.

Requests ("advance my session by a few probes") buffer inside a
configurable batching window; one :meth:`flush` then drives every
granted session to its next probe and issues the whole wavefront as a
single :meth:`ProbeOracle.probe_many` call — the amortisation the HPC
guides recommend, applied across *sessions* instead of across players of
one offline run.  Setting ``micro_batch=False`` (or entering the
library-wide :func:`repro.core.batching.sequential_probes` context)
swaps in per-probe scalar oracle calls, the A/B baseline
``benchmarks/bench_serve.py`` measures against.

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
from repro.core.batching import batching_enabled
from repro.serve.service import ServeService
from repro.serve.sessions import ADVANCE_DONE, ADVANCE_PROBE, advance

__all__ = ["MicroBatchRouter", "Request", "Response", "RouterConfig"]


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs.

    ``window`` is the batching window: buffered requests auto-flush once
    this many are pending (callers may flush earlier).
    ``probes_per_request`` is the default probe grant of one request.
    ``micro_batch`` selects the ``probe_many`` wavefront path; the
    scalar path is the reference baseline.
    """

    window: int = 32
    probes_per_request: int = 32
    micro_batch: bool = True

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
    The in-process router always fills ``estimate``; the sharded
    front-end returns ``None`` from bulk flushes (vectors stay in the
    workers) and fills it on explicit :meth:`ServeRuntime.query` calls.
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

        def progress_mark() -> tuple[int, int, int, str]:
            probes = int(service.oracle.stats().per_player.sum())
            posts = sum(s.posts_served for s in service.sessions)
            return (probes, posts, service.phase_j, service.stage)

        while not service.finished:
            before = progress_mark()
            for session in service.sessions:
                if session.status in ("complete", "drained"):
                    continue
                self.submit(session.player, probes)
            self.flush()
            if service.finished:
                break
            if progress_mark() == before:
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
            service.sessions[request.player].requests_served += 1
        t0 = time.perf_counter() if registry is not None else 0.0
        with obs.span("serve/flush", oracle=service.oracle, requests=len(requests)):
            self._drive(grants, used)
        if registry is not None:
            registry.observe("serve.flush_latency_seconds", time.perf_counter() - t0)
        responses = [
            Response(
                player=request.player,
                status=service.sessions[request.player].status,
                probes_used=used[request.player],
                phases_completed=service.phases_completed,
                estimate=service.estimate(request.player),
            )
            for request in requests
        ]
        if registry is not None:
            degraded = sum(1 for response in responses if response.status == "drained")
            if degraded:
                registry.incr("serve.degraded_admissions_total", degraded)
        return responses

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
            batch_objects: list[int] = []
            stage_done = False
            posted = False
            for player in order:
                if grants[player] <= 0 or player in blocked:
                    continue
                session = service.sessions[player]
                if session.status != "active":
                    continue
                posts_before = session.posts_served
                outcome = advance(session, service.oracle.billboard)
                posted = posted or session.posts_served != posts_before
                if outcome == ADVANCE_PROBE:
                    batch_players.append(player)
                    assert session.pending_probe is not None
                    batch_objects.append(session.pending_probe)
                elif outcome == ADVANCE_DONE:
                    assert session.stage_output is not None
                    service.note_stage_done(player, session.stage_output)
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
        objects: list[int],
        grants: dict[int, int],
        used: dict[int, int],
    ) -> bool:
        """Answer one probe wavefront; ``False`` when the budget ran out."""
        service = self.service
        registry = metrics.get_registry()
        t0 = time.perf_counter() if registry is not None else 0.0
        try:
            if self.config.micro_batch and batching_enabled():
                values = service.oracle.probe_many(
                    np.asarray(players, dtype=np.intp), np.asarray(objects, dtype=np.intp)
                )
            else:
                values = np.asarray(
                    [service.oracle.probe(p, o) for p, o in zip(players, objects)],
                    dtype=np.int8,
                )
        except BudgetExceededError:
            service.mark_exhausted()
            return False
        if registry is not None:
            registry.incr("serve.wavefronts_total")
            registry.incr("serve.probes_total", len(players))
            registry.observe("serve.wavefront_size", float(len(players)), SIZE_BUCKETS)
            registry.observe("serve.wavefront_latency_seconds", time.perf_counter() - t0)
        for player, value in zip(players, values):
            service.sessions[player].deliver(int(value))
            grants[player] -= 1
            used[player] += 1
        return True
