"""The sharded topology's pinned contract: topology invisibility.

A :class:`~repro.serve.sharded.ShardedRuntime` — sessions partitioned
across worker processes over the shared packed oracle, billboard
replicated through the append-only post log — must be observationally
identical to the single-process runtime and to the offline anytime
loop: same outputs, same per-player probe counts (for non-drained
runs), same phase α-ladder, for **any** worker count.  Kill/resume
must preserve all of that across topology changes: a snapshot cut on
one worker count restores to any other and finishes bitwise-equal.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.billboard.postlog import PostLog, SharedBillboard, default_log_capacity
from repro.core.main import anytime_find_preferences
from repro.serve import ServeConfig, load_runtime, serve
from repro.serve import sharded
from repro.serve.router import MicroBatchRouter
from repro.serve.runtime import LocalRuntime
from repro.serve.service import ServeService
from repro.serve.sharded import ShardedRuntime, WorkerDiedError, shard_players
from repro.workloads.registry import make_instance

N = 48
SEED = 11
MAX_PHASES = 2
D_MAX = 4


def _config(workers: int, **overrides) -> ServeConfig:
    base = dict(
        seed=SEED,
        max_phases=MAX_PHASES,
        d_max=D_MAX,
        workers=workers,
        window=16,
        probes_per_request=8,
    )
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def instance():
    return make_instance("planted", N, N, 0.5, 2, rng=5)


@pytest.fixture(scope="module")
def offline(instance):
    """The offline anytime reference run (same seed the service uses)."""
    oracle = ProbeOracle(instance)
    run = anytime_find_preferences(oracle, rng=SEED, max_phases=MAX_PHASES, d_max=D_MAX)
    return run.outputs, oracle.stats().per_player.copy()


class TestPartition:
    def test_contiguous_and_complete(self):
        parts = shard_players(10, 3)
        assert [p for block in parts for p in block] == list(range(10))
        assert all(block == sorted(block) for block in parts)

    def test_more_workers_than_players_raises(self):
        with pytest.raises(ValueError, match="more workers"):
            shard_players(2, 3)

    def test_nonpositive_workers_raises(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            shard_players(8, 0)

    def test_sharded_runtime_requires_two_workers(self, instance):
        with pytest.raises(ValueError, match="workers >= 2"):
            ShardedRuntime(instance, _config(1))


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_matches_offline(self, instance, offline, workers):
        ref_outputs, ref_counts = offline
        with serve(instance, _config(workers)) as runtime:
            assert isinstance(runtime, ShardedRuntime)
            assert runtime.workers == workers
            outputs = runtime.run_to_completion()
            assert runtime.finished
            assert not runtime.exhausted
            assert np.array_equal(outputs, ref_outputs)
            assert np.array_equal(runtime.probe_counts(), ref_counts)
            assert runtime.phases_completed == MAX_PHASES
            assert runtime.completed == [2.0**-j for j in range(MAX_PHASES)]
            assert runtime.session_count("complete") == N

    def test_flush_driven_rounds_match_run_to_completion(self, instance, offline):
        """The open-loop path — submit/flush rounds from the front end —
        lands on the same bits as the blocking drive."""
        ref_outputs, ref_counts = offline
        with serve(instance, _config(2)) as runtime:
            for _ in range(10_000):
                players = runtime.open_players()
                if not players:
                    break
                for player in players:
                    runtime.submit(player)
                runtime.flush()
            assert runtime.finished
            assert np.array_equal(runtime.outputs(), ref_outputs)
            assert np.array_equal(runtime.probe_counts(), ref_counts)

    def test_matches_local_runtime(self, instance):
        with serve(instance, _config(1)) as local:
            assert isinstance(local, LocalRuntime)
            local_outputs = local.run_to_completion()
            local_counts = local.probe_counts()
            local_batches = local.oracle_batches
        with serve(instance, _config(2)) as sharded:
            assert np.array_equal(sharded.run_to_completion(), local_outputs)
            assert np.array_equal(sharded.probe_counts(), local_counts)
            assert sharded.oracle_batches >= local_batches > 0


class TestPhaseRetirement:
    """A phase barrier retires its phase: when a checkpoint is cut, no
    board holds a channel of a finished phase, and reading one raises
    ``KeyError``.  The runs still end on the offline bits, so no later
    phase read a retired channel (it would have waited forever)."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """``(cuts, retired)``: each checkpoint's ``(phase, channels)``
        and each retire's ``(board, names it dropped)``."""
        cuts: list[tuple[int, list[str]]] = []
        retired: list[tuple[Billboard, list[str]]] = []
        capture, retire = ServeService._capture_checkpoint, Billboard.retire

        def recording_capture(self):
            cuts.append((self.phase_j, self.oracle.billboard.channels()))
            return capture(self)

        def recording_retire(self, prefix):
            retired.append((self, [c for c in self.channels() if c.startswith(prefix)]))
            retire(self, prefix)

        monkeypatch.setattr(ServeService, "_capture_checkpoint", recording_capture)
        monkeypatch.setattr(Billboard, "retire", recording_retire)
        return cuts, retired

    @staticmethod
    def _assert_retired(cuts, retired, boards):
        assert len(retired) == MAX_PHASES * len(boards)
        assert all(names for _, names in retired)
        for phase, channels in cuts:
            finished = tuple(f"phase{k}/" for k in range(phase))
            assert not [c for c in channels if c.startswith(finished)], phase
        for board, names in retired:
            with pytest.raises(KeyError, match="no vectors posted"):
                board.read_vectors(names[0])

    def test_in_process_board_holds_no_channel_at_a_cut(self, instance, offline, recorded):
        cuts, retired = recorded
        ref_outputs, ref_counts = offline
        with serve(instance, _config(1)) as runtime:
            assert np.array_equal(runtime.run_to_completion(), ref_outputs)
            assert np.array_equal(runtime.probe_counts(), ref_counts)
            board = runtime.service.oracle.billboard
        assert [channels for _, channels in cuts] == [[]] * len(cuts)
        self._assert_retired(cuts, retired, [board])

    @staticmethod
    def _shards(instance, config, log):
        """Two worker services on one post log, stepped in this process."""
        shards = []
        for shard, players in enumerate(shard_players(N, 2)):
            board = SharedBillboard(N, N, log=log, shard=shard, n_shards=2)
            service = sharded._ShardWorkerService(
                instance, config=config, players=players, board=board
            )
            router = sharded._WorkerRouter(service, config=config.router_config())
            shards.append((service, router, board))
        return shards

    @staticmethod
    def _round(shards):
        """One request round per shard, in turn, as a worker serves it."""
        for service, router, board in shards:
            pairs = [(p, None) for p in service.sessions.active_players()]
            sharded._serve_requests(service, router, board, pairs)

    @classmethod
    def _run(cls, shards):
        for _ in range(10_000):
            if all(service.finished for service, _, _ in shards):
                return
            cls._round(shards)
        raise AssertionError("the shards never finished")

    def test_shard_boards_hold_no_finished_phase(self, instance, offline, recorded):
        cuts, retired = recorded
        ref_outputs, ref_counts = offline
        log = PostLog.create(default_log_capacity(N, N))
        try:
            shards = self._shards(instance, _config(2), log)
            self._run(shards)
            outputs = np.zeros_like(ref_outputs)
            counts = np.zeros_like(ref_counts)
            for service, _, _ in shards:
                players, rows, shard_counts = sharded._local_rows(service)
                outputs[players], counts[players] = rows, shard_counts
            assert np.array_equal(outputs, ref_outputs)
            assert np.array_equal(counts, ref_counts)
            self._assert_retired(cuts, retired, [board for _, _, board in shards])
        finally:
            log.close()

    @staticmethod
    def _phase_channels(board):
        return [c for c in board.channels() if c.startswith("phase")]

    def test_drained_boards_hold_no_phase_channel(self, instance):
        """A drain retires the interrupted phase, as a barrier does."""
        config = _config(2, budget=80)
        with serve(instance, replace(config, workers=1)) as runtime:
            runtime.run_to_completion()
            assert runtime.exhausted and runtime.phases_completed == 0
            assert not self._phase_channels(runtime.service.oracle.billboard)
        log = PostLog.create(default_log_capacity(N, N))
        try:
            shards = self._shards(instance, config, log)
            self._run(shards)
            for service, _, board in shards:
                assert service.exhausted
                assert not self._phase_channels(board)
        finally:
            log.close()

    def test_a_drained_shard_drops_later_posts_to_its_phase(self, instance):
        """Posts that another shard made before it saw the drain marker
        reach the drained shard through a later sync, and stay out."""
        log = PostLog.create(default_log_capacity(N, N))
        try:
            shards = self._shards(instance, _config(2), log)
            for _ in range(3):
                self._round(shards)
            (live, router, _), (drained, _, drained_board) = shards
            drained.mark_exhausted()  # as its router does when the budget trips
            drained_at = log.committed
            for player in live.sessions.active_players():
                router.submit(player)
            router.flush()  # a concurrent worker, not yet synced
            _, late = log.read(drained_at)
            assert [r for r in late if r.channel.startswith("phase0/")]
            self._round(shards)
            assert live.exhausted
            assert not self._phase_channels(drained_board)
        finally:
            log.close()


class TestRequestSurface:
    def test_query_routes_to_owner_and_does_not_advance(self, instance):
        with serve(instance, _config(2)) as runtime:
            player = runtime.player_partitions[1][0]  # owned by shard 1
            response = runtime.query(player)
            assert response.player == player
            assert response.probes_used == 0
            assert response.estimate is not None
            assert response.estimate.shape == (N,)
            assert int(runtime.probe_counts().sum()) == 0

    def test_query_returns_the_workers_estimate(self, instance):
        """Bulk flushes carry no estimate (workers never compute one);
        ``query`` returns the owning worker's, which after the run is
        the player's output row."""
        with serve(instance, _config(2)) as runtime:
            players = [part[0] for part in runtime.player_partitions]
            for player in players:
                runtime.submit(player)
            responses = runtime.flush()
            assert {r.player for r in responses} == set(players)
            assert all(r.estimate is None for r in responses)
            outputs = runtime.run_to_completion()
            for player in players:
                estimate = runtime.query(player).estimate
                assert estimate is not None and estimate.dtype == np.int8
                assert np.array_equal(estimate, outputs[player])

    def test_submit_validates_player_and_grant(self, instance):
        with serve(instance, _config(2)) as runtime:
            with pytest.raises(ValueError, match="out of range"):
                runtime.submit(N)
            with pytest.raises(ValueError, match="must be positive"):
                runtime.submit(0, probes=0)

    def test_partitions_cover_population(self, instance):
        with serve(instance, _config(3)) as runtime:
            flat = [p for block in runtime.player_partitions for p in block]
            assert flat == list(range(N))
            assert len(runtime.player_partitions) == 3


class TestGracefulDegradation:
    def test_budget_drain_matches_offline_cut(self, instance):
        """Exhaustion propagates through the log and freezes every shard
        at the same phase cut as the offline budgeted run."""
        budget = 80
        oracle = ProbeOracle(instance, budget=budget)
        run = anytime_find_preferences(
            oracle, rng=SEED, max_phases=MAX_PHASES, d_max=D_MAX
        )
        with serve(instance, _config(2, budget=budget)) as runtime:
            outputs = runtime.run_to_completion()
            assert runtime.exhausted
            assert runtime.finished
            assert np.array_equal(outputs, run.outputs)
            assert runtime.session_count("drained") == N


class TestKillResume:
    def _drive_to_phase(self, runtime, phase: int) -> None:
        for _ in range(10_000):
            if runtime.phases_completed >= phase or runtime.finished:
                return
            players = runtime.open_players()
            for player in players:
                runtime.submit(player)
            runtime.flush()
        raise AssertionError("runtime never reached the target phase")

    @pytest.mark.parametrize("restore_workers", [1, 2, 3])
    def test_midrun_snapshot_restores_to_any_worker_count(
        self, instance, offline, tmp_path, restore_workers
    ):
        """Snapshot after phase 0 on two workers, kill, restore to
        {1, 2, 3} workers: every topology finishes bitwise-equal to the
        never-interrupted offline run."""
        ref_outputs, ref_counts = offline
        snap = tmp_path / "mid"
        with serve(instance, _config(2)) as runtime:
            self._drive_to_phase(runtime, 1)
            assert not runtime.finished
            runtime.save(snap)
        assert (snap / "manifest.json").is_file()

        with load_runtime(snap, workers=restore_workers) as restored:
            assert restored.workers == restore_workers
            assert restored.phases_completed == 1
            outputs = restored.run_to_completion()
            assert np.array_equal(outputs, ref_outputs)
            assert np.array_equal(restored.probe_counts(), ref_counts)

    def test_fresh_snapshot_roundtrip(self, instance, offline, tmp_path):
        """A phase-0 (pre-work) sharded snapshot replays the whole run."""
        ref_outputs, ref_counts = offline
        snap = tmp_path / "fresh"
        with serve(instance, _config(3)) as runtime:
            runtime.save(snap)
        with load_runtime(snap) as restored:
            assert restored.workers == 3  # manifest's count kept by default
            assert np.array_equal(restored.run_to_completion(), ref_outputs)
            assert np.array_equal(restored.probe_counts(), ref_counts)

    def test_completed_snapshot_restores_finished(self, instance, offline, tmp_path):
        ref_outputs, _ = offline
        snap = tmp_path / "done"
        with serve(instance, _config(2)) as runtime:
            runtime.run_to_completion()
            runtime.save(snap)
        with load_runtime(snap, workers=1) as restored:
            assert restored.finished
            assert np.array_equal(restored.outputs(), ref_outputs)


class TestMetrics:
    def test_merged_metrics_fold_worker_registries(self, instance):
        with serve(instance, _config(2)) as runtime:
            runtime.run_to_completion()
            merged = runtime.merged_metrics()
            snapshot = merged.snapshot()
        assert snapshot  # the workers recorded probe/serve activity


class TestWorkerDeath:
    """A dead worker or a stalled shard set ends the run in a named
    error, never a hang."""

    def test_killed_worker_mid_run_raises_named_error(self, instance):
        runtime = serve(instance, _config(2))
        try:
            for player in range(N):
                runtime.submit(player)
            runtime.flush()
            os.kill(runtime._procs[1].pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(WorkerDiedError) as info:
                runtime.run_to_completion()
            assert time.monotonic() - t0 < 5.0
        finally:
            runtime.close()
        assert info.value.shard == 1
        assert info.value.exitcode == -signal.SIGKILL
        assert "serve worker 1 was killed by signal SIGKILL" in str(info.value)

    def test_worker_killed_between_flushes_raises_named_error(self, instance):
        """The next request to a worker killed since the last flush
        resets the pipe: still a :class:`WorkerDiedError`, and the
        runtime is closed."""
        runtime = serve(instance, _config(2))
        try:
            for player in range(N):
                runtime.submit(player)
            runtime.flush()
            os.kill(runtime._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerDiedError) as info:
                for player in range(N):
                    runtime.submit(player)
                runtime.flush()
            assert runtime._closed
        finally:
            runtime.close()
        assert info.value.shard == 1
        assert not any(proc.is_alive() for proc in runtime._procs)

    def test_worker_that_raised_is_named_while_another_waits(self, instance, monkeypatch):
        # Shard 1 fails once it enters phase 1, leaving shard 0 parked at
        # a barrier shard 1 never reaches; the round still ends, with
        # shard 1's traceback.
        serve_requests = sharded._serve_requests

        def failing_serve(service, router, board, pairs):
            if board.shard == 1 and service.phase_j == 1:
                raise ValueError("injected shard failure")
            return serve_requests(service, router, board, pairs)

        monkeypatch.setattr(sharded, "_serve_requests", failing_serve)
        runtime = serve(instance, _config(2))  # workers fork with the patch
        try:
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="injected shard failure") as info:
                runtime.run_to_completion()
            assert time.monotonic() - t0 < 5.0
        finally:
            runtime.close()
        assert "serve worker 1 " in str(info.value)
        assert not any(proc.is_alive() for proc in runtime._procs)

    def test_stalled_shards_raise_after_one_round(self, instance, monkeypatch):
        """Workers whose routers never advance a session: the first
        round moves no shard's stall mark, and the front end raises."""
        monkeypatch.setattr(MicroBatchRouter, "_drive", lambda self, grants, used: None)
        rounds = []
        exchange = ShardedRuntime._exchange

        def counting_exchange(self, batches):
            rounds.append(sum(len(batch) for batch in batches))
            return exchange(self, batches)

        monkeypatch.setattr(ShardedRuntime, "_exchange", counting_exchange)
        with serve(instance, _config(2)) as runtime:  # workers fork with the patch
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="service stalled"):
                runtime.run_to_completion()
            assert time.monotonic() - t0 < 5.0
            assert rounds == [N]
            assert not runtime.finished


def _running(pid: int) -> bool:
    """Whether *pid* is a live, not yet exited, process (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


_FRONT_END = textwrap.dedent(
    """
    import time
    from repro.serve import ServeConfig, serve
    from repro.workloads.registry import make_instance

    runtime = serve(
        make_instance("planted", 48, 48, 0.5, 2, rng=5),
        ServeConfig(seed=11, max_phases=1, d_max=2, workers=2),
    )
    runtime.outputs()
    print(" ".join(str(proc.pid) for proc in runtime._procs), flush=True)
    time.sleep(120)
    """
)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
class TestOrphanedWorkers:
    """Workers exit on their own once the front end that forked them is gone."""

    def test_workers_exit_after_front_end_is_killed(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        with open(tmp_path / "front_end.err", "w+") as err:
            front_end = subprocess.Popen(
                [sys.executable, "-c", _FRONT_END], stdout=subprocess.PIPE, stderr=err,
                env=env, text=True,
            )
            pids: list[int] = []
            try:
                ready, _, _ = select.select([front_end.stdout], [], [], 60.0)
                line = front_end.stdout.readline() if ready else ""
                err.seek(0)
                assert line, f"front end printed no worker pids:\n{err.read()}"
                pids = [int(pid) for pid in line.split()]
                assert len(pids) == 2 and all(_running(pid) for pid in pids)
                front_end.kill()
                front_end.wait()
                deadline = time.monotonic() + 5.0
                while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not [pid for pid in pids if _running(pid)]
            finally:
                front_end.kill()
                front_end.wait()
                front_end.stdout.close()
                for pid in pids:
                    if _running(pid):
                        os.kill(pid, signal.SIGKILL)
