"""Kill-and-resume pinning for the v4 snapshot format.

A deployment killed at any point and restored from its latest snapshot
must finish **bitwise-identical** — outputs and per-player probe counts
— to one that was never interrupted.  Snapshots are cut at phase
barriers, so a mid-phase kill rolls back to the last barrier and the
restored deployment re-draws the interrupted phase coin-for-coin.

A snapshot that cannot be trusted — truncated or corrupt archives, a
manifest missing a key, shards that do not partition the players, the
retired single-file archive — ends in a ``ValueError`` naming the file.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.io import FORMAT_VERSION
from repro.serve import (
    LocalRuntime,
    ServeConfig,
    load_runtime,
    serve,
)
from repro.workloads.registry import make_instance

N = 48
SEED = 11
CONFIG = dict(seed=SEED, max_phases=2, d_max=4)
ROUTER = dict(window=16, probes_per_request=8)

#: A 2-worker snapshot written by the code before the single-file
#: archive was retired: ``make_instance("planted", 32, 32, 0.5, 0,
#: rng=5)`` served with :data:`FIXTURE_CONFIG` for three request rounds
#: (every open player, default grant), then ``runtime.save``.  It is cut
#: at the phase-1 barrier, 164 probes in.
FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v4_n32"
FIXTURE_CONFIG = dict(seed=7, max_phases=2, d_max=0, window=16, probes_per_request=8)


@pytest.fixture(scope="module")
def instance():
    return make_instance("planted", N, N, 0.5, 2, rng=5)


@pytest.fixture(scope="module")
def reference(instance):
    """A never-interrupted deployment run to completion."""
    with serve(instance, ServeConfig(**CONFIG, **ROUTER)) as runtime:
        outputs = runtime.run_to_completion()
        return outputs, runtime.probe_counts(), list(runtime.completed)


def _rewrite_meta(path, **updates):
    """Patch the embedded JSON metadata of an .npz archive in place."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta.update(updates)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def _advance(runtime, rounds):
    """*rounds* request rounds: every open player asks for one grant."""
    for _ in range(rounds):
        for player in runtime.open_players():
            runtime.submit(player)
        runtime.flush()


class TestKillAndResume:
    @pytest.mark.parametrize("rounds", [0, 1, 3, 9])
    def test_resume_is_bitwise_identical(self, instance, reference, tmp_path, rounds):
        """Kill after *rounds* request rounds; resume finishes the same bits."""
        ref_outputs, ref_counts, ref_completed = reference
        with serve(instance, ServeConfig(**CONFIG, **ROUTER)) as runtime:
            _advance(runtime, rounds)
            path = runtime.save(tmp_path / "snap")
        # "Kill": the live deployment is gone; restore from disk.
        with load_runtime(path) as restored:
            outputs = restored.run_to_completion()
            assert np.array_equal(outputs, ref_outputs)
            assert np.array_equal(restored.probe_counts(), ref_counts)
            assert restored.completed == ref_completed

    def test_resume_with_different_router_still_identical(
        self, instance, reference, tmp_path
    ):
        """The restore contract is per-deployment, not per-router."""
        ref_outputs, ref_counts, _ = reference
        with serve(instance, ServeConfig(**CONFIG, **ROUTER)) as runtime:
            _advance(runtime, 5)
            path = runtime.save(tmp_path / "snap")
        restored = load_runtime(path, workers=1)
        assert isinstance(restored, LocalRuntime)
        rerouted = LocalRuntime(
            restored.service,
            config=ServeConfig(**CONFIG, window=3, probes_per_request=2),
        )
        assert np.array_equal(rerouted.run_to_completion(), ref_outputs)
        assert np.array_equal(rerouted.probe_counts(), ref_counts)

    def test_finished_service_roundtrip(self, instance, reference, tmp_path):
        ref_outputs, ref_counts, ref_completed = reference
        with serve(instance, ServeConfig(**CONFIG, **ROUTER)) as runtime:
            runtime.run_to_completion()
            path = runtime.save(tmp_path / "done")
        restored = load_runtime(path)
        assert isinstance(restored, LocalRuntime)
        assert restored.finished
        assert restored.service.stage == "done"
        assert restored.session_count("complete") == N
        assert np.array_equal(restored.outputs(), ref_outputs)
        assert np.array_equal(restored.probe_counts(), ref_counts)
        assert restored.completed == ref_completed

    def test_drained_service_roundtrip(self, instance, tmp_path):
        with serve(instance, ServeConfig(budget=80, **CONFIG, **ROUTER)) as runtime:
            outputs = runtime.run_to_completion()
            assert runtime.exhausted
            counts = runtime.probe_counts()
            path = runtime.save(tmp_path / "drained")
        restored = load_runtime(path)
        assert isinstance(restored, LocalRuntime)
        assert restored.service.stage == "drained"
        assert restored.exhausted
        assert restored.session_count("drained") == N
        assert np.array_equal(restored.outputs(), outputs)
        assert np.array_equal(restored.probe_counts(), counts)


def _snapshot(instance, tmp_path, workers=1):
    config = ServeConfig(seed=SEED, max_phases=1, d_max=2, workers=workers, **ROUTER)
    with serve(instance, config) as runtime:
        runtime.run_to_completion()
        return runtime.save(tmp_path / "snap")


class TestArchiveFormat:
    def test_retired_npz_archive_is_named(self, tmp_path):
        """A single-file ``kind="service"`` archive is a retired format:
        restoring one says so instead of guessing."""
        path = tmp_path / "svc.npz"
        meta = {"version": 3, "kind": "service"}
        np.savez_compressed(
            path, meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        )
        with pytest.raises(ValueError, match=r"svc\.npz.*retired format"):
            load_runtime(path)

    def test_archive_carries_current_format_version(self, instance, tmp_path):
        path = _snapshot(instance, tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert (manifest["version"], manifest["kind"]) == (FORMAT_VERSION, "service-manifest")
        kinds = {manifest["global"]: "service-global"}
        kinds.update({name: "service-shard" for name in manifest["shards"]})
        for name, kind in kinds.items():
            with np.load(path / name) as data:
                meta = json.loads(bytes(data["meta_json"]).decode())
            assert (meta["version"], meta["kind"]) == (FORMAT_VERSION, kind)

    def test_kind_mismatch_rejected(self, instance, tmp_path):
        from repro.io import save_instance

        path = _snapshot(instance, tmp_path)
        save_instance(path / "global.npz", instance)
        with pytest.raises(ValueError, match="is not a service-global archive"):
            load_runtime(path)

    def test_archive_hidden_is_bitpacked(self, instance, tmp_path):
        from repro.metrics.bitpack import pack_rows

        path = _snapshot(instance, tmp_path)
        with np.load(path / "global.npz") as data:
            assert "hidden" not in data.files
            assert data["hidden_packed"].dtype == np.uint8
            assert data["hidden_packed"].shape == (N, (N + 7) // 8)
            assert np.array_equal(data["hidden_packed"], pack_rows(instance.prefs))

    def test_future_version_rejected(self, instance, tmp_path):
        path = _snapshot(instance, tmp_path)
        _rewrite_meta(path / "global.npz", version=FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="format version"):
            load_runtime(path)

    def test_fewer_workers_leave_no_stale_shards(self, instance, tmp_path):
        """Saving 2 workers over a 3-worker snapshot removes shard 2."""
        path = _snapshot(instance, tmp_path, workers=3)
        assert sorted(p.name for p in path.glob("shard-*.npz")) == [
            f"shard-{k:03d}.npz" for k in range(3)
        ]
        (path / "shard-notes.txt").write_text("kept")
        path = _snapshot(instance, tmp_path, workers=2)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["shards"] == ["shard-000.npz", "shard-001.npz"]
        assert sorted(p.name for p in path.glob("shard-*.npz")) == manifest["shards"]
        assert (path / "shard-notes.txt").read_text() == "kept"
        with load_runtime(path) as restored:
            assert list(restored.completed)

    def test_config_survives_roundtrip(self, instance, tmp_path):
        config = ServeConfig(seed=SEED, max_phases=1, d_max=2, budget=None, **ROUTER)
        with serve(instance, config) as runtime:
            runtime.run_to_completion()
            params = runtime.service.params
            path = runtime.save(tmp_path / "snap")
        restored = load_runtime(path)
        assert restored.service.config.seed == config.seed
        assert restored.service.config.max_phases == config.max_phases
        assert restored.service.config.d_max == config.d_max
        assert restored.service.config.budget == config.budget
        assert restored.service.params == params


class TestCorruptSnapshot:
    """Every defect named in the module docstring ends in ``ValueError``
    naming the bad file, never a bare ``BadZipFile``/``KeyError``/
    ``IndexError`` or a silently wrong restore."""

    @pytest.mark.parametrize("name", ["shard-001.npz", "global.npz"])
    def test_truncated_archive_is_named(self, instance, tmp_path, name):
        path = _snapshot(instance, tmp_path, workers=2)
        member = path / name
        member.write_bytes(member.read_bytes()[: member.stat().st_size // 2])
        with pytest.raises(ValueError, match=rf"{name}: unreadable snapshot archive"):
            load_runtime(path)

    def test_manifest_missing_key_is_named(self, instance, tmp_path):
        path = _snapshot(instance, tmp_path, workers=2)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["shards"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: malformed manifest.*shards"):
            load_runtime(path)

    def _rewrite_shard(self, path, name, players):
        """Rewrite shard *name* to list *players*, zero counts and grades."""
        with np.load(path / name) as data:
            arrays = {key: data[key] for key in data.files}
        k = len(players)
        arrays.update(
            players=np.asarray(players, dtype=np.intp),
            counts=np.zeros(k, dtype=np.int64),
            revealed=np.zeros((k, N), dtype=bool),
            values=np.full((k, N), -1, dtype=np.int8),
        )
        if "best" in arrays:
            arrays["best"] = np.zeros((k, N), dtype=np.int8)
        np.savez_compressed(path / name, **arrays)

    def test_player_listed_twice_is_named(self, instance, tmp_path):
        """A shard that also lists another shard's players would restore
        their probe counts as zero; it is refused instead."""
        path = _snapshot(instance, tmp_path, workers=2)
        self._rewrite_shard(path, "shard-001.npz", list(range(N)))
        with pytest.raises(ValueError, match=r"shard-001\.npz.*player 0 is listed twice"):
            load_runtime(path)

    def test_player_out_of_range_is_named(self, instance, tmp_path):
        path = _snapshot(instance, tmp_path, workers=2)
        with np.load(path / "shard-001.npz") as data:
            players = data["players"].tolist()
        self._rewrite_shard(path, "shard-001.npz", players[:-1] + [N])
        with pytest.raises(ValueError, match=rf"shard-001\.npz.*outside \[0, {N}\)"):
            load_runtime(path)


class TestFormatStability:
    """:data:`FIXTURE` restores to either topology and finishes with the
    bits of an uninterrupted run: the v4 layout on disk is unchanged."""

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        inst = make_instance("planted", 32, 32, 0.5, 0, rng=5)
        with serve(inst, ServeConfig(**FIXTURE_CONFIG)) as runtime:
            return runtime.run_to_completion(), runtime.probe_counts()

    def test_fresh_snapshot_holds_the_committed_arrays(self, tmp_path):
        """The same run saved again writes the committed snapshot's
        arrays bit for bit, less its channels: the barrier retired every
        channel of the finished phase, so ``global.npz`` lists none and
        holds no ``channel_*`` member (the committed one holds 128)."""
        inst = make_instance("planted", 32, 32, 0.5, 0, rng=5)
        with serve(inst, ServeConfig(**FIXTURE_CONFIG, workers=2)) as runtime:
            _advance(runtime, 3)
            snap = runtime.save(tmp_path / "snap")
        for name in ("shard-000.npz", "shard-001.npz"):
            with np.load(FIXTURE / name) as want, np.load(snap / name) as got:
                assert sorted(got.files) == sorted(want.files)
                for key in want.files:
                    assert got[key].dtype == want[key].dtype, (name, key)
                    assert np.array_equal(got[key], want[key]), (name, key)
        with np.load(FIXTURE / "global.npz") as want, np.load(snap / "global.npz") as got:
            kept = sorted(key for key in want.files if not key.startswith("channel_"))
            assert len(want.files) - len(kept) == 128
            assert sorted(got.files) == kept
            for key in kept:
                if key != "meta_json":
                    assert got[key].dtype == want[key].dtype, key
                    assert np.array_equal(got[key], want[key]), key
            want_meta = json.loads(bytes(want["meta_json"]).decode())
            got_meta = json.loads(bytes(got["meta_json"]).decode())
        assert len(want_meta["channels"]) == 128 and got_meta["channels"] == []
        assert {**got_meta, "channels": want_meta["channels"]} == want_meta
        manifest = json.loads((snap / "manifest.json").read_text())
        assert manifest == json.loads((FIXTURE / "manifest.json").read_text())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_committed_snapshot_restores_bitwise(self, uninterrupted, tmp_path, workers):
        ref_outputs, ref_counts = uninterrupted
        snap = shutil.copytree(FIXTURE, tmp_path / "snap")
        with load_runtime(snap, workers=workers) as restored:
            assert restored.workers == workers
            assert restored.completed == [1.0]
            assert int(restored.probe_counts().sum()) == 164
            assert np.array_equal(restored.run_to_completion(), ref_outputs)
            assert np.array_equal(restored.probe_counts(), ref_counts)


class TestRuntimeArchiveConfig:
    """v4 runtime archives carry ``ServeConfig`` as a key/value dict."""

    def _saved_runtime(self, instance, tmp_path):
        snap = tmp_path / "runtime"
        with serve(instance, ServeConfig(workers=1, **CONFIG, **ROUTER)) as runtime:
            runtime.save(snap)
        return snap

    def test_retired_micro_batch_key_is_dropped(self, instance, reference, tmp_path):
        """Every v4 archive written while ``ServeConfig.micro_batch``
        existed carries the key; it restores and serves the same bits."""
        ref_outputs, ref_counts, _ = reference
        snap = self._saved_runtime(instance, tmp_path)
        global_npz = snap / "global.npz"
        with np.load(global_npz) as data:
            config = json.loads(bytes(data["meta_json"]).decode())["config"]
        assert "micro_batch" not in config
        _rewrite_meta(global_npz, config={**config, "micro_batch": False})
        with load_runtime(snap) as restored:
            assert np.array_equal(restored.run_to_completion(), ref_outputs)
            assert np.array_equal(restored.probe_counts(), ref_counts)

    def test_unknown_config_key_is_named(self, instance, tmp_path):
        snap = self._saved_runtime(instance, tmp_path)
        global_npz = snap / "global.npz"
        with np.load(global_npz) as data:
            config = json.loads(bytes(data["meta_json"]).decode())["config"]
        _rewrite_meta(global_npz, config={**config, "turbo_mode": True})
        with pytest.raises(ValueError, match="turbo_mode"):
            load_runtime(snap)
