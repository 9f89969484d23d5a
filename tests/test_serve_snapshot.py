"""Kill-and-resume pinning for the service snapshot layer.

A service killed at any point and restored from its latest snapshot must
finish **bitwise-identical** — outputs and per-player probe counts — to
a service that was never interrupted.  Snapshots are cut at phase
barriers, so a mid-phase kill rolls back to the last barrier and the
restored service re-draws the interrupted phase coin-for-coin.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io import FORMAT_VERSION
from repro.serve import (
    MicroBatchRouter,
    RouterConfig,
    ServeConfig,
    ServeService,
    load_service,
    save_service,
)
from repro.workloads.registry import make_instance

N = 48
SEED = 11
CONFIG = dict(seed=SEED, max_phases=2, d_max=4)
ROUTER = dict(window=16, probes_per_request=8)


@pytest.fixture(scope="module")
def instance():
    return make_instance("planted", N, N, 0.5, 2, rng=5)


@pytest.fixture(scope="module")
def reference(instance):
    """A never-interrupted service run to completion."""
    service = ServeService(instance, config=ServeConfig(**CONFIG))  # repro: noqa[RPL012]
    outputs = MicroBatchRouter(service, config=RouterConfig(**ROUTER)).run_to_completion()  # repro: noqa[RPL012]
    return outputs, service.oracle.stats().per_player.copy(), list(service.completed)


def _rewrite_meta(path, **updates):
    """Patch the embedded JSON metadata of an .npz archive in place."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    meta.update(updates)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


class TestKillAndResume:
    @pytest.mark.parametrize("rounds", [0, 1, 3, 9])
    def test_resume_is_bitwise_identical(self, instance, reference, tmp_path, rounds):
        """Kill after *rounds* request rounds; resume finishes the same bits."""
        ref_outputs, ref_counts, ref_completed = reference
        service = ServeService(instance, config=ServeConfig(**CONFIG))  # repro: noqa[RPL012]
        router = MicroBatchRouter(service, config=RouterConfig(**ROUTER))  # repro: noqa[RPL012]
        for _ in range(rounds):
            for session in service.sessions:
                if session.status not in ("complete", "drained"):
                    router.submit(session.player)
            router.flush()
        path = save_service(tmp_path / "svc.npz", service)
        # "Kill": drop the live service entirely; restore from disk.
        restored = load_service(path)
        outputs = MicroBatchRouter(  # repro: noqa[RPL012]
            restored, config=RouterConfig(**ROUTER)
        ).run_to_completion()
        assert np.array_equal(outputs, ref_outputs)
        assert np.array_equal(restored.oracle.stats().per_player, ref_counts)
        assert restored.completed == ref_completed

    def test_resume_with_different_router_still_identical(
        self, instance, reference, tmp_path
    ):
        """The restore contract is per-service, not per-router."""
        ref_outputs, ref_counts, _ = reference
        service = ServeService(instance, config=ServeConfig(**CONFIG))  # repro: noqa[RPL012]
        router = MicroBatchRouter(service, config=RouterConfig(**ROUTER))  # repro: noqa[RPL012]
        for _ in range(5):
            for session in service.sessions:
                if session.status not in ("complete", "drained"):
                    router.submit(session.player)
            router.flush()
        restored = load_service(save_service(tmp_path / "svc.npz", service))
        outputs = MicroBatchRouter(  # repro: noqa[RPL012]
            restored, config=RouterConfig(window=3, probes_per_request=2)
        ).run_to_completion()
        assert np.array_equal(outputs, ref_outputs)
        assert np.array_equal(restored.oracle.stats().per_player, ref_counts)

    def test_finished_service_roundtrip(self, instance, reference, tmp_path):
        ref_outputs, ref_counts, ref_completed = reference
        service = ServeService(instance, config=ServeConfig(**CONFIG))  # repro: noqa[RPL012]
        MicroBatchRouter(service, config=RouterConfig(**ROUTER)).run_to_completion()  # repro: noqa[RPL012]
        restored = load_service(save_service(tmp_path / "done.npz", service))
        assert restored.finished
        assert restored.stage == "done"
        assert restored.sessions.count("complete") == N
        assert np.array_equal(restored.outputs(), ref_outputs)
        assert np.array_equal(restored.oracle.stats().per_player, ref_counts)
        assert restored.completed == ref_completed

    def test_drained_service_roundtrip(self, instance, tmp_path):
        service = ServeService(instance, config=ServeConfig(budget=80, **CONFIG))  # repro: noqa[RPL012]
        outputs = MicroBatchRouter(  # repro: noqa[RPL012]
            service, config=RouterConfig(**ROUTER)
        ).run_to_completion()
        assert service.stage == "drained"
        restored = load_service(save_service(tmp_path / "drained.npz", service))
        assert restored.stage == "drained"
        assert restored.exhausted
        assert restored.sessions.count("drained") == N
        assert np.array_equal(restored.outputs(), outputs)
        assert np.array_equal(
            restored.oracle.stats().per_player, service.oracle.stats().per_player
        )


class TestArchiveFormat:
    def _snapshot(self, instance, tmp_path):
        service = ServeService(instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2))  # repro: noqa[RPL012]
        MicroBatchRouter(service, config=RouterConfig(**ROUTER)).run_to_completion()  # repro: noqa[RPL012]
        return save_service(tmp_path / "svc.npz", service)

    def test_suffix_added(self, instance, tmp_path):
        service = ServeService(instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2))  # repro: noqa[RPL012]
        path = save_service(tmp_path / "noext", service)
        assert path.suffix == ".npz"
        assert load_service(path).n_players == N

    def test_archive_carries_current_format_version(self, instance, tmp_path):
        path = self._snapshot(instance, tmp_path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode())
        assert meta["version"] == FORMAT_VERSION
        assert meta["kind"] == "service"

    def test_kind_mismatch_rejected(self, instance, tmp_path):
        from repro.io import save_instance

        path = save_instance(tmp_path / "inst.npz", instance)
        with pytest.raises(ValueError, match="does not contain a service"):
            load_service(path)

    def test_version2_dense_hidden_still_loads(self, instance, tmp_path):
        """Format-2 archives (dense ``hidden``) restore bit-identically."""
        from repro.metrics.bitpack import unpack_rows

        path = self._snapshot(instance, tmp_path)
        reference = load_service(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        hidden_shape = meta.pop("hidden_shape")
        meta["version"] = 2
        arrays["hidden"] = unpack_rows(
            arrays.pop("hidden_packed"), int(hidden_shape[1])
        )
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        restored = load_service(path)
        assert np.array_equal(restored.outputs(), reference.outputs())
        assert np.array_equal(
            restored.oracle.stats().per_player, reference.oracle.stats().per_player
        )
        assert restored.oracle.checkpoint()["prefs"].tolist() == (
            reference.oracle.checkpoint()["prefs"].tolist()
        )

    def test_archive_hidden_is_bitpacked(self, instance, tmp_path):
        path = self._snapshot(instance, tmp_path)
        with np.load(path) as data:
            assert "hidden" not in data.files
            assert data["hidden_packed"].dtype == np.uint8
            assert data["hidden_packed"].shape == (N, (N + 7) // 8)

    def test_future_version_rejected(self, instance, tmp_path):
        path = self._snapshot(instance, tmp_path)
        _rewrite_meta(path, version=FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="format version"):
            load_service(path)

    def test_config_survives_roundtrip(self, instance, tmp_path):
        config = ServeConfig(seed=SEED, max_phases=1, d_max=2, budget=None)
        service = ServeService(instance, config=config)  # repro: noqa[RPL012]
        MicroBatchRouter(service, config=RouterConfig(**ROUTER)).run_to_completion()  # repro: noqa[RPL012]
        restored = load_service(save_service(tmp_path / "svc.npz", service))
        assert restored.config.seed == config.seed
        assert restored.config.max_phases == config.max_phases
        assert restored.config.d_max == config.d_max
        assert restored.config.budget == config.budget
        assert restored.params == service.params


class TestRuntimeArchiveConfig:
    """v4 runtime archives carry ``ServeConfig`` as a key/value dict."""

    def _saved_runtime(self, instance, tmp_path):
        from repro.serve import serve

        snap = tmp_path / "runtime"
        with serve(instance, ServeConfig(workers=1, **CONFIG, **ROUTER)) as runtime:
            runtime.save(snap)
        return snap

    def test_retired_micro_batch_key_is_dropped(self, instance, reference, tmp_path):
        """Every v4 archive written while ``ServeConfig.micro_batch``
        existed carries the key; it restores and serves the same bits."""
        from repro.serve import load_runtime

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
        from repro.serve import load_runtime

        snap = self._saved_runtime(instance, tmp_path)
        global_npz = snap / "global.npz"
        with np.load(global_npz) as data:
            config = json.loads(bytes(data["meta_json"]).decode())["config"]
        _rewrite_meta(global_npz, config={**config, "turbo_mode": True})
        with pytest.raises(ValueError, match="turbo_mode"):
            load_runtime(snap)
