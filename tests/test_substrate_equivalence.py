"""Packed storage against a test-local dense reference oracle.

The contract the packed substrate rests on: storing the hidden matrix
bit-packed and answering probes with the fused extract+post(+charge)
kernel is a *storage* change, not an algorithmic one.  Everything
observable must be preserved exactly:

* each player's outputs,
* each player's charged-probe count, and
* each player's own probe sequence (the objects it probed, in order).

The library no longer has a dense mode, so :class:`DenseOracle` — a
test-local :class:`~repro.billboard.oracle.ProbeOracle` that answers
every probe by fancy-indexing an ``int8`` copy of the hidden matrix and
posts through :meth:`Billboard.post_grades` — is the referee.  Every
algorithm branch runs on both and must agree on all three invariants;
the dense reference is also pinned to the golden seed digests
(duplicated from ``tests/test_batching_equivalence.py`` on purpose:
that file pins the library, this one pins the reference).  A second
axis pins the popcount engines: the 16-bit-LUT fallback must count
identically to ``np.bitwise_count``.  ``tests/test_substrate_model.py``
drives the oracle and billboard themselves against a dense model.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro import api
from repro.billboard.oracle import ProbeOracle
from repro.billboard.trace import ProbeTrace
from repro.core.main import (
    anytime_find_preferences,
    find_preferences,
    find_preferences_unknown_d,
)
from repro.metrics.bitpack import BitMatrix, lut_popcount, native_popcount_enabled
from repro.model.instance import Instance
from repro.workloads.planted import planted_instance

N = M = 128
ALPHA = 0.5
INSTANCE_SEED = 13
ALGO_SEED = 17

#: sha256(outputs || per-player counts) and total probes, captured from
#: the pre-batching seed code (commit b213d42) — the same constants
#: tests/test_batching_equivalence.py and tests/test_obs.py guard.
GOLDEN = {
    "zero_radius": ("9d2b88ed3cc23bca", 2048),
    "small_radius": ("c7ca0a9af69f160b", 65536),
    "large_radius": ("54bc2871ce5b84ea", 14112),
    "unknown_d": ("23dbf4633d0f463f", 166391),
}

#: (D, driver) per branch: zero_radius exercises the Select voting path,
#: large_radius exercises RSelect, unknown_d the doubling wrapper, and
#: anytime the phase loop the serving layer wraps.
_CONFIGS = {
    "zero_radius": (0, "known"),
    "small_radius": (2, "known"),
    "large_radius": (40, "known"),
    "unknown_d": (2, "unknown"),
    "anytime": (2, "anytime"),
}


class DenseOracle(ProbeOracle):
    """Test-local dense reference: the ``int8`` storage the oracle used to
    switch to.

    Probes read a dense copy of the hidden matrix and post through
    :meth:`~repro.billboard.board.Billboard.post_grades` — no packed
    extraction, no fused kernel.  Charging covers the configurations
    these tests run: every probe charged, no budget.
    """

    def __init__(self, prefs, **kwargs) -> None:
        super().__init__(prefs, **kwargs)
        if not self.charge_repeats or self.budget is not None:
            raise NotImplementedError("the dense reference models charge-every-probe runs only")
        if isinstance(prefs, Instance):
            prefs = prefs.prefs
        self.dense = prefs.unpack() if isinstance(prefs, BitMatrix) else np.array(prefs, dtype=np.int8)

    def probe(self, player: int, obj: int) -> int:
        return int(self.probe_many(np.asarray([player]), np.asarray([obj]))[0])

    def probe_many(self, players, objects):
        players = np.asarray(players, dtype=np.intp)
        objects = np.asarray(objects, dtype=np.intp)
        values = self.dense[players, objects]
        self._counts += np.bincount(players, minlength=self.n_players)
        self._batches += 1
        self.billboard.post_grades(players, objects, values)
        if self._trace is not None:
            self._trace.record_batch(players, objects, values, np.ones(players.size, dtype=bool))
        return values


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _run_config(label: str, oracle_cls=ProbeOracle):
    D, driver = _CONFIGS[label]
    inst = planted_instance(N, M, ALPHA, D, rng=INSTANCE_SEED)
    oracle = oracle_cls(inst)
    trace = ProbeTrace()
    oracle.attach_trace(trace)
    if driver == "unknown":
        result = find_preferences_unknown_d(oracle, ALPHA, rng=ALGO_SEED, d_max=4)
    elif driver == "anytime":
        result = anytime_find_preferences(oracle, rng=ALGO_SEED, d_max=4, max_phases=2)
    else:
        result = find_preferences(oracle, ALPHA, D, rng=ALGO_SEED)
    return result, oracle, trace


class TestPackedMatchesDense:
    """The packed oracle and the dense reference are observation-equivalent."""

    @pytest.mark.parametrize("label", sorted(_CONFIGS))
    def test_outputs_counts_and_per_player_sequences(self, label):
        packed_result, packed_oracle, packed_trace = _run_config(label)
        dense_result, dense_oracle, dense_trace = _run_config(label, DenseOracle)
        assert isinstance(packed_oracle._prefs, BitMatrix)

        assert np.array_equal(packed_result.outputs, dense_result.outputs)
        assert np.array_equal(
            packed_oracle.stats().per_player, dense_oracle.stats().per_player
        )
        assert np.array_equal(
            packed_oracle.billboard.revealed_values(), dense_oracle.billboard.revealed_values()
        )
        for player in range(N):
            assert np.array_equal(
                packed_trace.player_sequence(player),
                dense_trace.player_sequence(player),
            ), f"{label}: probe sequence diverged for player {player}"

    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_dense_mode_matches_seed_golden(self, label):
        # The packed library is pinned to these digests by
        # tests/test_batching_equivalence.py; pin the dense reference too
        # so a drift in either shows up as its own failure.
        result, oracle, _ = _run_config(label, DenseOracle)
        digest, total = GOLDEN[label]
        assert oracle.stats().total == total
        assert _digest(result.outputs, oracle.stats().per_player) == digest


class TestPopcountEngines:
    """Native np.bitwise_count and the 16-bit LUT count identically."""

    def test_lut_fallback_matches_seed_golden(self):
        with lut_popcount():
            assert not native_popcount_enabled()
            result, oracle, _ = _run_config("small_radius")
        digest, total = GOLDEN["small_radius"]
        assert oracle.stats().total == total
        assert _digest(result.outputs, oracle.stats().per_player) == digest

    def test_lut_toggle_restores_on_exception(self):
        before = native_popcount_enabled()
        with pytest.raises(RuntimeError):
            with lut_popcount():
                raise RuntimeError("boom")
        assert native_popcount_enabled() == before


class TestServeKillRestore:
    """The serving runtime gives the same bits on the dense reference
    oracle, including across a snapshot: archives store logical
    matrices, not storage."""

    SERVE_N = 48
    CONFIG = dict(seed=11, max_phases=2, d_max=4)
    ROUTER = dict(window=16, probes_per_request=8)

    def _service_run(self):
        from repro.serve import MicroBatchRouter, RouterConfig, ServeConfig, ServeService
        from repro.workloads.registry import make_instance

        inst = make_instance("planted", self.SERVE_N, self.SERVE_N, 0.5, 2, rng=5)
        service = ServeService(inst, config=ServeConfig(**self.CONFIG))  # repro: noqa[RPL012]
        outputs = MicroBatchRouter(  # repro: noqa[RPL012]
            service, config=RouterConfig(**self.ROUTER)
        ).run_to_completion()
        return outputs, service

    def test_dense_service_matches_packed(self, monkeypatch):
        import repro.serve.service as service_mod

        packed_outputs, packed_service = self._service_run()
        monkeypatch.setattr(service_mod, "ProbeOracle", DenseOracle)
        dense_outputs, dense_service = self._service_run()
        assert isinstance(dense_service.oracle, DenseOracle)
        assert np.array_equal(packed_outputs, dense_outputs)
        assert np.array_equal(
            packed_service.oracle.stats().per_player,
            dense_service.oracle.stats().per_player,
        )

    def test_cross_substrate_kill_restore(self, tmp_path, monkeypatch):
        """A snapshot cut on the packed oracle restores bit-identically
        onto the dense reference."""
        import repro.serve.service as service_mod
        from repro.serve import ServeConfig, load_runtime, serve
        from repro.workloads.registry import make_instance

        ref_outputs, ref_service = self._service_run()
        inst = make_instance("planted", self.SERVE_N, self.SERVE_N, 0.5, 2, rng=5)
        with serve(inst, ServeConfig(**self.CONFIG, **self.ROUTER)) as runtime:
            for _ in range(3):
                for player in runtime.open_players():
                    runtime.submit(player)
                runtime.flush()
            path = runtime.save(tmp_path / "snap")
        monkeypatch.setattr(service_mod, "ProbeOracle", DenseOracle)
        restored = load_runtime(path, workers=1)
        assert isinstance(restored.service.oracle, DenseOracle)
        assert np.array_equal(restored.run_to_completion(), ref_outputs)
        assert np.array_equal(
            restored.probe_counts(),
            ref_service.oracle.stats().per_player,
        )


class TestToggleScoping:
    """Storage is always packed.  The retired ``dense_substrate`` /
    ``packed_substrate`` toggles are deprecated no-ops on ``repro.api``:
    they warn and change nothing."""

    def test_default_is_packed(self):
        inst = planted_instance(16, 16, 0.5, 0, rng=0)
        oracle = ProbeOracle(inst)
        assert isinstance(oracle._prefs, BitMatrix)
        oracle.probe_many(np.arange(16), np.arange(16))
        # The revealed mask is derived from the grade matrix, so the
        # fused kernel's one scatter is the whole post.
        assert oracle.billboard.grade_sink() is oracle.billboard.revealed_values().base
        assert oracle.billboard.n_revealed == 16

    def test_dense_substrate_restores_on_exception(self):
        with pytest.deprecated_call(match="dense_substrate is deprecated"):
            toggle = api.dense_substrate
        with pytest.raises(RuntimeError):
            with toggle():
                raise RuntimeError("boom")
        with pytest.deprecated_call(match="packed_substrate_enabled is deprecated"):
            assert api.packed_substrate_enabled()

    def test_toggle_nests(self):
        inst = planted_instance(16, 16, 0.5, 0, rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with api.dense_substrate():
                with api.packed_substrate():
                    inner = ProbeOracle(inst)
                outer = ProbeOracle(inst)
        assert isinstance(inner._prefs, BitMatrix)
        assert isinstance(outer._prefs, BitMatrix)

    def test_storage_decision_is_construction_time(self):
        inst = planted_instance(16, 16, 0.5, 0, rng=0)
        with pytest.deprecated_call():
            with api.dense_substrate():
                oracle = ProbeOracle(inst)
        # Built inside the retired toggle, the oracle is still packed and
        # answers like the hidden matrix.
        assert isinstance(oracle._prefs, BitMatrix)
        assert oracle.probe(0, 0) == int(inst.prefs[0, 0])
