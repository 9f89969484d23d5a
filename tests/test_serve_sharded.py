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
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.billboard.oracle import ProbeOracle
from repro.core.main import anytime_find_preferences
from repro.serve import ServeConfig, load_runtime, serve
from repro.serve import sharded
from repro.serve.runtime import LocalRuntime
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
    """A dead worker ends the run in a named error, never a hang."""

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

    def test_worker_that_raised_is_named_while_another_waits(self, instance, monkeypatch):
        # Shard 1 fails inside the run; shard 0 then parks at a barrier
        # shard 1 never reaches and never replies, so only the liveness
        # poll can end the front end's wait on shard 0.
        drive = sharded._drive_worker

        def failing_drive(service, router, board, probes):
            if board.shard == 1:
                raise ValueError("injected shard failure")
            drive(service, router, board, probes)

        monkeypatch.setattr(sharded, "_drive_worker", failing_drive)
        runtime = serve(instance, _config(2))  # workers fork with the patch
        try:
            t0 = time.monotonic()
            with pytest.raises(WorkerDiedError, match="injected shard failure") as info:
                runtime.run_to_completion()
            assert time.monotonic() - t0 < 5.0
        finally:
            runtime.close()
        assert info.value.shard == 1
        assert info.value.exitcode == 0
        assert not any(proc.is_alive() for proc in runtime._procs)


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
