"""Sharded multi-core serving: sessions partitioned across processes.

The §6 anytime loop is embarrassingly parallel across players — the
only cross-player couplings are the shared billboard and the phase
barriers — so the sharded topology partitions sessions by player id
across ``workers`` forked processes:

* every worker attaches the **zero-copy packed oracle**
  (:meth:`~repro.parallel.shared.SharedInstanceHandle.bitmatrix`) and
  runs its own :class:`~repro.serve.router.MicroBatchRouter` over a
  :class:`_ShardWorkerService` owning just its players' sessions;
* the billboard replicates through the **append-only post log**
  (:class:`~repro.billboard.postlog.SharedBillboard`): local posts
  append + install, foreign posts install on ``sync()``, reads stay
  in-process and lock-free;
* **phase barriers** ride the log as marker records: a worker that
  finishes a stage parks, posts its marker, and advances only when
  every shard's marker is visible — and because each shard's posts
  precede its marker, advancing implies seeing all of the stage's
  posts;
* **rng lockstep**: every worker consumes the master generator
  identically (full-population coin draws and merge spawns, see
  :meth:`ServeService._on_stage_complete`), so all shards hold the
  same rng state at every barrier — which is what lets a snapshot
  restore to *any* worker count.

Equivalence: the barriers make every shard run the same player
programs against billboard states that agree on all channels a program
may read, so outputs — and, for non-drained runs, per-player probe
counts — are bitwise-identical to the single-process runtime
(``tests/test_serve_sharded.py``).  Budget exhaustion propagates as a
log marker and freezes every shard at the same last-completed phase.

The front-end :class:`ShardedRuntime` speaks the
:class:`~repro.serve.runtime.ServeRuntime` surface: it routes requests
to the owning shard over pipes, merges per-worker metric registries by
exact bucket addition, and assembles whole-deployment checkpoints from
per-shard ones (all forced to the same barrier first).  It never waits
on a worker blindly: every reply wait polls the pipe and checks that
every worker is still alive, so a worker that dies ends the run in a
:class:`WorkerDiedError` naming the shard and its exit code or signal
(the survivors would otherwise park at the next barrier forever).
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

import numpy as np

from repro.billboard.oracle import ProbeOracle
from repro.billboard.postlog import PostLog, SharedBillboard, default_log_capacity
from repro.core.main import anytime_phase_cap
from repro.metrics.bitpack import BitMatrix
from repro.model.instance import Instance
from repro.obs.metrics import MetricRegistry, set_registry
from repro.parallel.shared import SharedInstanceHandle, SharedInstanceStore
from repro.serve.config import ServeConfig
from repro.serve.router import MicroBatchRouter, Response
from repro.serve.runtime import ServeRuntime
from repro.serve.service import ServeService, ServiceCheckpoint
from repro.serve.sessions import SessionStore

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["ShardedRuntime", "WorkerDiedError", "shard_players"]

_POLL_S = 0.0005  # idle backoff while waiting on foreign log records
_LIVENESS_S = 0.05  # front end: re-check worker liveness this often while waiting
_STALL_TIMEOUT_S = 300.0  # no local progress AND no log movement for this long


class WorkerDiedError(RuntimeError):
    """A shard worker process died while the front end needed it.

    ``shard`` is the dead worker's shard id and ``exitcode`` its process
    exit code (negative: killed by that signal).  The runtime is closed
    before this is raised.
    """

    def __init__(self, shard: int, exitcode: int | None, detail: str = "") -> None:
        self.shard = shard
        self.exitcode = exitcode
        if exitcode is None:
            how = "stopped answering"
        elif exitcode < 0:
            how = f"was killed by signal {signal.Signals(-exitcode).name}"
        else:
            how = f"exited with code {exitcode}"
        super().__init__(f"serve worker {shard} {how}{detail}")


def shard_players(n_players: int, workers: int) -> list[list[int]]:
    """Contiguous player partition: shard ``k`` owns the ``k``-th block."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > n_players:
        raise ValueError(f"more workers ({workers}) than players ({n_players})")
    return [block.tolist() for block in np.array_split(np.arange(n_players), workers)]


class _ShardWorkerService(ServeService):
    """One shard's view of the deployment: local sessions, shared board.

    Differs from the base service only in topology: the oracle answers
    from the shared packed matrix through the :class:`SharedBillboard`,
    the session store holds just the owned players, and stage
    completion *parks* at the barrier (:attr:`at_barrier`) instead of
    transitioning — the worker loop advances once every shard's marker
    is visible.  All rng consumption is identical to the base class.
    """

    def __init__(
        self,
        matrix: BitMatrix,
        *,
        config: ServeConfig,
        players: Sequence[int],
        board: SharedBillboard,
        _restore: ServiceCheckpoint | None = None,
    ) -> None:
        self._players = [int(p) for p in players]
        self._board = board
        self._pending_stage: dict[int, np.ndarray] | None = None
        self._barrier_tag: str | None = None
        super().__init__(matrix, config=config, _restore=_restore)

    # -- topology hooks -----------------------------------------------------
    def _make_oracle(self, instance: Instance | np.ndarray | BitMatrix) -> ProbeOracle:
        return ProbeOracle(
            instance,
            billboard=self._board,
            budget=self.config.budget,
            charge_repeats=self.config.charge_repeats,
        )

    def _make_sessions(self) -> SessionStore:
        return SessionStore(self.oracle.n_players, players=self._players)

    def _local_players(self) -> Sequence[int]:
        return self._players

    # -- barrier parking ----------------------------------------------------
    @property
    def at_barrier(self) -> bool:
        """Whether the local stage finished and awaits the shard set."""
        return self._pending_stage is not None

    @property
    def barrier_tag(self) -> str:
        """Log marker tag of the parked barrier (``phase<j>/<stage>``)."""
        if self._barrier_tag is None:
            raise RuntimeError("no barrier is pending")
        return self._barrier_tag

    def _on_stage_complete(self) -> None:
        self._pending_stage = self._stage_outputs
        self._stage_outputs = {}
        self._barrier_tag = f"phase{self.phase_j}/{self.stage}"

    def advance_stage(self) -> None:
        """Run the parked stage transition (call once the barrier is full)."""
        if self._pending_stage is None:
            raise RuntimeError("no stage is parked at a barrier")
        self._stage_outputs = self._pending_stage
        self._pending_stage = None
        self._barrier_tag = None
        super()._on_stage_complete()

    def mark_exhausted(self) -> None:
        if self.finished:
            return
        if not self._board.exhausted_seen:
            self._board.post_exhausted()
        self._pending_stage = None
        self._barrier_tag = None
        super().mark_exhausted()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------
def _advance_barriers(service: _ShardWorkerService, board: SharedBillboard) -> bool:
    """Post this shard's marker and advance every already-full barrier.

    Must run before honouring an exhaustion marker: a shard parked at a
    barrier the rest of the set already passed first catches up to the
    common phase (identical rng consumption), so all shards drain at
    the same cut.
    """
    advanced = False
    while service.at_barrier:
        board.post_barrier(service.barrier_tag)
        if not board.barrier_complete(service.barrier_tag):
            break
        service.advance_stage()
        advanced = True
    return advanced


def _sync_and_advance(service: _ShardWorkerService, board: SharedBillboard) -> bool:
    """One coordination step: pull the log, advance barriers, honour drain."""
    moved = board.sync() > 0
    moved = _advance_barriers(service, board) or moved
    if not service.finished and board.exhausted_seen and not (
        service.at_barrier and board.barrier_complete(service.barrier_tag)
    ):
        service.mark_exhausted()
        moved = True
    return moved


def _drive_worker(
    service: _ShardWorkerService,
    router: MicroBatchRouter,
    board: SharedBillboard,
    probes: int | None,
) -> None:
    """Blocking run-to-completion loop of one shard."""
    stalled_since: float | None = None
    while not service.finished:
        moved = _sync_and_advance(service, board)
        if service.finished:
            break
        if service.at_barrier:
            # Parked: nothing to compute until the other shards arrive
            # (or an exhaustion marker lands).  Bounded by their work.
            time.sleep(_POLL_S)
            continue
        progressed = False
        active = service.sessions.active_players()
        if active:
            before = service.progress_mark()
            for player in active:
                router.submit(player, probes)
            router.flush()
            progressed = (
                service.progress_mark() != before or service.at_barrier or service.finished
            )
        if progressed or moved:
            stalled_since = None
            continue
        # Every local session blocks on foreign posts: wait on the log.
        now = time.monotonic()
        if stalled_since is None:
            stalled_since = now
        elif now - stalled_since > _STALL_TIMEOUT_S:
            raise RuntimeError(
                f"shard {board.shard} stalled: no local progress and no post-log "
                f"movement for {_STALL_TIMEOUT_S:.0f}s"
            )
        time.sleep(_POLL_S)


def _serve_requests(
    service: _ShardWorkerService,
    router: MicroBatchRouter,
    board: SharedBillboard,
    pairs: list[tuple[int, int | None]],
) -> list[Response]:
    """One non-blocking request round (the front-end flush path)."""
    _sync_and_advance(service, board)
    for player, probes in pairs:
        router.submit(player, probes)
    responses = router.flush()
    _sync_and_advance(service, board)
    return responses


def _shard_summary(service: _ShardWorkerService) -> dict[str, Any]:
    return {
        "finished": service.finished,
        "phases_completed": service.phases_completed,
        "completed": list(service.completed),
        "exhausted": service.exhausted,
        "n_complete": service.sessions.count("complete"),
        "n_drained": service.sessions.count("drained"),
        "oracle_batches": service.oracle.batch_count,
    }


def _local_rows(service: _ShardWorkerService) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    players = np.asarray(service._local_players(), dtype=np.intp)
    outputs = service.outputs()[players]
    counts = service.oracle.stats().per_player[players]
    return players, outputs, counts


def _worker_main(
    conn: "Connection",
    handle: SharedInstanceHandle,
    log_name: str,
    lock: Any,
    shard: int,
    players: list[int],
    config: ServeConfig,
    n_shards: int,
    restore: ServiceCheckpoint | None,
    front_end_conns: tuple["Connection", ...],
) -> None:
    """Worker entry: build (or restore) the shard, then serve commands."""
    # The fork copied the front end's ends of this shard's pipe and of
    # every earlier shard's: close them, so that ``conn.recv`` sees EOF
    # (and the worker exits) once the front end is gone.
    for front_end_conn in front_end_conns:
        front_end_conn.close()
    # A fresh registry per worker: the fork inherits the parent's, and
    # double-counting its history would break the exact merge.
    registry = MetricRegistry()
    set_registry(registry)
    log = PostLog.attach(log_name, lock=lock)
    try:
        n, m = handle.shape
        board = SharedBillboard(n, m, log=log, shard=shard, n_shards=n_shards)
        # On restore every worker installs the same whole-deployment
        # checkpoint; rows of players it does not own are inert.
        service = _ShardWorkerService(
            handle.bitmatrix(), config=config, players=players, board=board, _restore=restore
        )
        router = MicroBatchRouter(service, config=config.router_config())
        while True:
            cmd, payload = conn.recv()
            if cmd == "run":
                _drive_worker(service, router, board, payload)
                players_arr, rows, counts = _local_rows(service)
                conn.send(
                    ("done", (players_arr, rows, counts, _shard_summary(service)))
                )
            elif cmd == "requests":
                responses = _serve_requests(service, router, board, payload)
                wire = [
                    (r.player, r.status, r.probes_used, r.phases_completed)
                    for r in responses
                ]
                conn.send(("responses", (wire, _shard_summary(service))))
            elif cmd == "query":
                session = service.sessions[payload]
                conn.send(
                    (
                        "estimate",
                        (
                            session.status,
                            service.phases_completed,
                            service.estimate(payload),
                        ),
                    )
                )
            elif cmd == "checkpoint":
                _sync_and_advance(service, board)
                conn.send(("checkpoint", service.checkpoint()))
            elif cmd == "outputs":
                conn.send(("outputs", (*_local_rows(service), _shard_summary(service))))
            elif cmd == "metrics":
                conn.send(("metrics", registry.snapshot()))
            elif cmd == "stop":
                conn.send(("bye", None))
                return
            else:  # pragma: no cover - protocol corruption
                conn.send(("error", f"unknown command {cmd!r}"))
                return
    except EOFError:  # front-end died; nothing to report to
        return
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        log.close()


# ---------------------------------------------------------------------------
# front-end dispatcher
# ---------------------------------------------------------------------------
class ShardedRuntime(ServeRuntime):
    """Front-end of the sharded topology (see module docstring).

    Routes requests to the owning shard, coordinates run/flush rounds,
    merges metrics, and assembles whole-deployment checkpoints.  Bulk
    flush responses carry ``estimate=None`` (the vectors stay in the
    workers); :meth:`query` fetches one player's estimate explicitly.
    """

    def __init__(
        self,
        instance: Instance | np.ndarray | BitMatrix,
        config: ServeConfig,
        *,
        _restore: ServiceCheckpoint | None = None,
    ) -> None:
        if config.workers < 2:
            raise ValueError(
                f"ShardedRuntime needs workers >= 2, got {config.workers} "
                "(use repro.serve.serve() for topology dispatch)"
            )
        self._config = config
        self._closed = False
        self._store = SharedInstanceStore()
        self._handle = handle = self._store.publish(instance)
        self._n, self._m = handle.shape
        self._partitions = shard_players(self._n, config.workers)
        self._owner = np.empty(self._n, dtype=np.intp)
        for shard, players in enumerate(self._partitions):
            self._owner[players] = shard
        capacity = (
            config.log_capacity
            if config.log_capacity is not None
            else default_log_capacity(self._n, self._m)
        )
        ctx = mp.get_context("fork")
        lock = ctx.Lock()
        self._log = PostLog.create(capacity, lock=lock)
        self._conns: list["Connection"] = []
        self._procs: list[mp.process.BaseProcess] = []
        for shard, players in enumerate(self._partitions):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    handle,
                    self._log.name,
                    lock,
                    shard,
                    players,
                    config,
                    config.workers,
                    _restore,
                    (*self._conns, parent_conn),
                ),
                daemon=True,
                name=f"repro-serve-shard-{shard}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._pending: list[list[tuple[int, int | None]]] = [
            [] for _ in self._partitions
        ]
        self._ready: list[Response] = []
        self._metrics = MetricRegistry()
        max_j = anytime_phase_cap(self._n, config.max_phases)
        if _restore is not None:
            done = _restore.exhausted or _restore.phase > max_j
            status = (
                "drained" if _restore.exhausted else "complete" if done else "active"
            )
            self._summaries = [
                {
                    "finished": done,
                    "phases_completed": len(_restore.completed),
                    "completed": list(_restore.completed),
                    "exhausted": _restore.exhausted,
                }
                for _ in self._partitions
            ]
            self._statuses = [status] * self._n
        else:
            done = 0 > max_j  # the phase cap is never negative: always False
            self._summaries = [
                {
                    "finished": done,
                    "phases_completed": 0,
                    "completed": [],
                    "exhausted": False,
                }
                for _ in self._partitions
            ]
            self._statuses = ["active"] * self._n

    # -- plumbing ------------------------------------------------------------
    def _send(self, shard: int, cmd: str, payload: Any) -> None:
        try:
            self._conns[shard].send((cmd, payload))
        except (BrokenPipeError, ConnectionResetError):
            self._worker_died(shard)

    def _recv(self, shard: int, expect: str) -> Any:
        conn = self._conns[shard]
        # Poll instead of a bare recv(): a dead worker elsewhere in the
        # shard set leaves this one parked at a barrier, never replying.
        while not conn.poll(_LIVENESS_S):
            for other, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._worker_died(other)
        try:
            kind, payload = conn.recv()
        except EOFError:
            self._worker_died(shard)
        if kind == "error":
            self.close()
            raise RuntimeError(f"serve worker {shard} failed:\n{payload}")
        if kind != expect:
            self.close()
            raise RuntimeError(
                f"serve worker {shard} protocol error: expected {expect!r}, got {kind!r}"
            )
        return payload

    def _worker_died(self, shard: int) -> NoReturn:
        """Close the runtime and raise :class:`WorkerDiedError` for *shard*."""
        proc = self._procs[shard]
        proc.join(timeout=1.0)
        detail = ""
        try:  # a worker that raised sent its traceback before exiting
            if self._conns[shard].poll(0):
                kind, payload = self._conns[shard].recv()
                if kind == "error":
                    detail = f":\n{payload}"
        except (EOFError, OSError):
            pass
        for other in self._procs:
            if other.is_alive():
                other.terminate()
        self.close()
        raise WorkerDiedError(shard, proc.exitcode, detail)

    def _broadcast(self, cmd: str, payloads: Sequence[Any], expect: str) -> list[Any]:
        for shard in range(self.workers):
            self._send(shard, cmd, payloads[shard])
        return [self._recv(shard, expect) for shard in range(self.workers)]

    def _note_summary(self, shard: int, summary: dict[str, Any]) -> None:
        self._summaries[shard] = summary
        if summary["finished"]:
            frozen = "drained" if summary["exhausted"] else "complete"
            for player in self._partitions[shard]:
                if self._statuses[player] not in ("complete", "drained"):
                    self._statuses[player] = frozen

    # -- ServeRuntime surface -------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._partitions)

    @property
    def n_players(self) -> int:
        return self._n

    @property
    def n_objects(self) -> int:
        return self._m

    @property
    def finished(self) -> bool:
        return all(s["finished"] for s in self._summaries)

    @property
    def phases_completed(self) -> int:
        return min(int(s["phases_completed"]) for s in self._summaries)

    @property
    def completed(self) -> list[float]:
        slowest = min(self._summaries, key=lambda s: int(s["phases_completed"]))
        return list(slowest["completed"])

    @property
    def exhausted(self) -> bool:
        return any(bool(s["exhausted"]) for s in self._summaries)

    @property
    def player_partitions(self) -> list[list[int]]:
        return [list(p) for p in self._partitions]

    def hidden_matrix(self) -> BitMatrix:
        return self._handle.bitmatrix()

    def submit(self, player: int, probes: int | None = None) -> None:
        if not 0 <= player < self._n:
            raise ValueError(f"player index {player} out of range [0, {self._n})")
        if probes is not None and probes <= 0:
            raise ValueError(f"probe grant must be positive, got {probes}")
        self._pending[int(self._owner[player])].append((player, probes))
        if sum(len(q) for q in self._pending) >= self._config.window:
            self._ready.extend(self._flush_pending())

    def flush(self) -> list[Response]:
        responses = self._ready
        self._ready = []
        responses.extend(self._flush_pending())
        return responses

    def _flush_pending(self) -> list[Response]:
        batches = self._pending
        self._pending = [[] for _ in self._partitions]
        shards = [shard for shard, batch in enumerate(batches) if batch]
        if not shards:
            return []
        for shard in shards:
            self._send(shard, "requests", batches[shard])
        responses: list[Response] = []
        for shard in shards:
            wire, summary = self._recv(shard, "responses")
            self._note_summary(shard, summary)
            for player, status, probes_used, phases in wire:
                self._statuses[player] = status
                responses.append(
                    Response(
                        player=player,
                        status=status,
                        probes_used=probes_used,
                        phases_completed=phases,
                        estimate=None,
                    )
                )
        return responses

    def query(self, player: int) -> Response:
        if not 0 <= player < self._n:
            raise ValueError(f"player index {player} out of range [0, {self._n})")
        shard = int(self._owner[player])
        self._send(shard, "query", player)
        status, phases, estimate = self._recv(shard, "estimate")
        self._statuses[player] = status
        return Response(
            player=player,
            status=status,
            probes_used=0,
            phases_completed=phases,
            estimate=estimate,
        )

    def run_to_completion(self, *, probes: int | None = None) -> np.ndarray:
        """Tell every shard to drive its sessions to the end, then gather."""
        results = self._broadcast(
            "run", [probes] * self.workers, "done"
        )
        outputs = np.zeros((self._n, self._m), dtype=np.int8)
        for shard, (players, rows, _counts, summary) in enumerate(results):
            outputs[players] = rows
            self._note_summary(shard, summary)
        return outputs

    def outputs(self) -> np.ndarray:
        results = self._broadcast("outputs", [None] * self.workers, "outputs")
        outputs = np.zeros((self._n, self._m), dtype=np.int8)
        for shard, (players, rows, _counts, summary) in enumerate(results):
            outputs[players] = rows
            self._note_summary(shard, summary)
        return outputs

    def probe_counts(self) -> np.ndarray:
        results = self._broadcast("outputs", [None] * self.workers, "outputs")
        counts = np.zeros(self._n, dtype=np.int64)
        for shard, (players, _rows, shard_counts, summary) in enumerate(results):
            counts[players] = shard_counts
            self._note_summary(shard, summary)
        return counts

    def session_count(self, status: str) -> int:
        return sum(1 for s in self._statuses if s == status)

    def open_players(self) -> list[int]:
        return [
            player
            for player, status in enumerate(self._statuses)
            if status not in ("complete", "drained")
        ]

    @property
    def oracle_batches(self) -> int:
        return sum(int(s.get("oracle_batches", 0)) for s in self._summaries)

    def checkpoint(self) -> ServiceCheckpoint:
        """Assemble one whole-deployment checkpoint from the shard set.

        Workers first advance every already-full barrier, which lands
        all of them on the same phase cut (see :func:`_advance_barriers`);
        global arrays are then gathered row-wise by the player
        partition, and shard 0 contributes the shared pieces (rng
        state, channels).
        """
        ckpts: list[ServiceCheckpoint] = self._broadcast(
            "checkpoint", [None] * self.workers, "checkpoint"
        )
        cuts = {(c.phase, tuple(c.completed), c.exhausted) for c in ckpts}
        if len(cuts) != 1:  # pragma: no cover - barrier protocol violation
            raise RuntimeError(f"shards checkpointed at different cuts: {sorted(cuts)}")
        base = ckpts[0]
        counts = np.zeros_like(base.counts)
        revealed = np.zeros_like(base.revealed)
        values = base.values.copy()
        best = None if base.best is None else np.zeros_like(base.best)
        for shard, ckpt in enumerate(ckpts):
            players = np.asarray(self._partitions[shard], dtype=np.intp)
            counts[players] = ckpt.counts[players]
            revealed[players] = ckpt.revealed[players]
            values[players] = ckpt.values[players]
            if best is not None:
                assert ckpt.best is not None
                best[players] = ckpt.best[players]
        return replace(base, counts=counts, revealed=revealed, values=values, best=best)

    def merged_metrics(self) -> MetricRegistry:
        """Exact fold of every worker's registry (counters/buckets add)."""
        merged = MetricRegistry()
        merged.merge(self._metrics)
        snaps = self._broadcast("metrics", [None] * self.workers, "metrics")
        for snap in snaps:
            merged.merge(MetricRegistry.from_snapshot(snap))
        return merged

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard, conn in enumerate(self._conns):
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()
        self._log.close()
        self._store.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"ShardedRuntime(n={self._n}, m={self._m}, workers={self.workers}, "
            f"finished={self.finished})"
        )
