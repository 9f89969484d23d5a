"""The serving runtime's pinned contract: observation equivalence.

A :class:`ServeService` driven to completion by the micro-batching
router must be **bitwise equal** — final outputs *and* per-player probe
counts — to the offline :func:`repro.core.main.anytime_find_preferences`
for the same seed, regardless of batching window, probe grant, or
arrival order.  The router issues ``probe_many`` wavefronts only, each
taking as much of a session's owed probe run as its grant allows; a
test-local driver that answers one session at a time with scalar
``ProbeOracle.probe`` calls, one per owed object, referees that
schedule, and the lockstep engine referees every player's probe order.
These tests are the golden pin of that claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.billboard.oracle import ProbeOracle
from repro.billboard.trace import ProbeTrace
from repro.core.main import anytime_find_preferences
from repro.engine.scheduler import RoundScheduler
from repro.metrics.evaluation import evaluate
from repro.serve import MicroBatchRouter, RouterConfig, ServeConfig, ServeService
from repro.serve.sessions import ADVANCE_DONE, ADVANCE_PROBE, advance
from repro.workloads.registry import make_instance

N = 48
SEED = 11
MAX_PHASES = 2
D_MAX = 4


@pytest.fixture(scope="module")
def instance():
    return make_instance("planted", N, N, 0.5, 2, rng=5)


def _offline(instance, *, seed=SEED, budget=None):
    """The offline anytime run and its per-player probe counts."""
    oracle = ProbeOracle(instance, budget=budget)
    run = anytime_find_preferences(oracle, rng=seed, max_phases=MAX_PHASES, d_max=D_MAX)
    return run, oracle.stats().per_player.copy()


@pytest.fixture(scope="module")
def lockstep(instance):
    """The service's stages run by the lockstep engine, probes traced."""
    return _serve_lockstep(instance)


@pytest.fixture(scope="module")
def offline(instance):
    """The offline anytime reference run (same seed the service uses)."""
    run, counts = _offline(instance)
    return run.outputs, counts


def _serve(instance, *, router_config, budget=None, seed=SEED):
    service = ServeService(  # repro: noqa[RPL012]
        instance,
        config=ServeConfig(seed=seed, max_phases=MAX_PHASES, d_max=D_MAX, budget=budget),
    )
    router = MicroBatchRouter(service, config=router_config)  # repro: noqa[RPL012]
    outputs = router.run_to_completion()
    return service, outputs


def _serve_scalar(instance):
    """Test-local scalar driver: sessions run one at a time, in id order,
    each to its next wait or barrier, with one ``ProbeOracle.probe`` call
    per probe — no router, no wavefronts."""
    service = ServeService(  # repro: noqa[RPL012]
        instance, config=ServeConfig(seed=SEED, max_phases=MAX_PHASES, d_max=D_MAX)
    )
    oracle = service.oracle
    while not service.finished:
        before = service.progress_mark()
        for session in service.sessions:
            while session.status == "active":
                outcome = advance(session, oracle.billboard)
                if outcome == ADVANCE_PROBE:
                    assert session.pending_probe is not None
                    session.deliver(oracle.probe(session.player, session.pending_probe))
                elif outcome == ADVANCE_DONE:
                    assert session.output is not None
                    service.note_stage_done(session.player, session.output)
                else:
                    break
        assert service.finished or service.progress_mark() != before, "scalar driver stalled"
    return service, service.outputs()


def _serve_lockstep(instance):
    """Each stage's programs run by the lockstep engine: one probe per
    player per round, so a leaf run is probed one object per wavefront."""
    service = ServeService(  # repro: noqa[RPL012]
        instance, config=ServeConfig(seed=SEED, max_phases=MAX_PHASES, d_max=D_MAX)
    )
    trace = ProbeTrace()
    service.oracle.attach_trace(trace)
    while not service.finished:
        programs = {s.player: s.program for s in service.sessions if s.status == "active"}
        result = RoundScheduler(service.oracle, programs).run()
        for player in sorted(result.outputs):
            service.note_stage_done(player, result.outputs[player])
    return service, trace


class TestBitwiseEquivalence:
    def test_micro_batched_matches_offline(self, instance, offline):
        ref_outputs, ref_counts = offline
        service, outputs = _serve(
            instance, router_config=RouterConfig(window=16, probes_per_request=8)
        )
        assert service.stage == "done"
        assert np.array_equal(outputs, ref_outputs)
        assert np.array_equal(service.oracle.stats().per_player, ref_counts)

    def test_scalar_probe_path_matches_offline(self, instance, offline):
        """Per-probe scalar oracle calls, one session at a time — same bits."""
        ref_outputs, ref_counts = offline
        service, outputs = _serve_scalar(instance)
        assert service.oracle.batch_count == 0
        assert np.array_equal(outputs, ref_outputs)
        assert np.array_equal(service.oracle.stats().per_player, ref_counts)

    @pytest.mark.parametrize("window,grant", [(1, 1), (5, 2), (64, 128)])
    def test_schedule_insensitivity(self, instance, offline, window, grant):
        """Any window/grant combination serves the same bits."""
        ref_outputs, ref_counts = offline
        service, outputs = _serve(
            instance, router_config=RouterConfig(window=window, probes_per_request=grant)
        )
        assert np.array_equal(outputs, ref_outputs)
        assert np.array_equal(service.oracle.stats().per_player, ref_counts)

    @pytest.mark.parametrize("window", [1, 5, 16])
    @pytest.mark.parametrize("grant", [1, 3, 7, 32, 128])
    def test_split_runs_keep_each_players_probe_order(
        self, instance, offline, lockstep, window, grant
    ):
        """Grants that cut a leaf run anywhere serve every player's probes
        in the lockstep engine's order, within each request's grant."""
        ref_outputs, ref_counts = offline
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=MAX_PHASES, d_max=D_MAX)
        )
        trace = ProbeTrace()
        service.oracle.attach_trace(trace)
        router = MicroBatchRouter(  # repro: noqa[RPL012]
            service, config=RouterConfig(window=window, probes_per_request=grant)
        )
        split = False
        while not service.finished:
            for session in service.sessions:
                if session.status not in ("complete", "drained"):
                    router.submit(session.player)
            for response in router.flush():
                assert response.probes_used <= grant
            split = split or any(s.owed is not None for s in service.sessions)
        assert split or grant == 128  # some leaf run outlived its grant
        assert np.array_equal(service.outputs(), ref_outputs)
        assert np.array_equal(service.oracle.stats().per_player, ref_counts)
        lockstep_service, ref_trace = lockstep
        assert np.array_equal(lockstep_service.outputs(), ref_outputs)
        for player in range(N):
            assert np.array_equal(trace.player_sequence(player), ref_trace.player_sequence(player))

    def test_phase_alphas_match_offline(self, instance):
        service, _ = _serve(instance, router_config=RouterConfig())
        assert service.completed == [2.0**-j for j in range(MAX_PHASES)]
        assert service.phases_completed == MAX_PHASES


class TestGracefulDegradation:
    def test_budgeted_service_matches_budgeted_offline(self, instance):
        """Exhaustion cuts at the same phase barrier as the offline loop."""
        run, _ = _offline(instance, budget=80)
        service, outputs = _serve(
            instance, router_config=RouterConfig(window=16, probes_per_request=8), budget=80
        )
        assert service.stage == "drained"
        assert service.exhausted
        assert np.array_equal(outputs, run.outputs)

    def test_zero_phase_fallback_uses_revealed_entries(self, instance):
        """No phase completed: each player's revealed grades, zeros elsewhere."""
        service, outputs = _serve(instance, router_config=RouterConfig(), budget=10)
        assert service.phases_completed == 0
        mask = service.oracle.billboard.revealed_mask()
        assert mask.any()
        assert (outputs[mask] == instance.prefs[mask]).all()
        assert (outputs[~mask] == 0).all()

    def test_drained_sessions_answer_without_error(self, instance):
        service, _ = _serve(instance, router_config=RouterConfig(), budget=80)
        router = MicroBatchRouter(service)  # repro: noqa[RPL012]
        router.submit(0)
        responses = router.flush()
        assert len(responses) == 1
        assert responses[0].status == "drained"
        assert responses[0].estimate.shape == (N,)

    def test_unbudgeted_service_never_drains(self, instance):
        service, _ = _serve(instance, router_config=RouterConfig())
        assert not service.exhausted
        assert service.sessions.count("complete") == N


class TestQuality:
    def test_quality(self):
        inst = make_instance("planted", N, N, 0.5, 0, rng=7)
        _, outputs = _serve(inst, router_config=RouterConfig(), seed=8)
        report = evaluate(outputs, inst.prefs, inst.main_community().members)
        assert report.discrepancy <= 4


class TestRouterSurface:
    def test_query_does_not_advance(self, instance):
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2)
        )
        router = MicroBatchRouter(service)  # repro: noqa[RPL012]
        before = int(service.oracle.stats().per_player.sum())
        response = router.query(3)
        assert response.player == 3
        assert response.probes_used == 0
        assert int(service.oracle.stats().per_player.sum()) == before

    def test_submit_validates_player_and_grant(self, instance):
        router = MicroBatchRouter(  # repro: noqa[RPL012]
            ServeService(instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2))  # repro: noqa[RPL012]
        )
        with pytest.raises(ValueError, match="out of range"):
            router.submit(N)
        with pytest.raises(ValueError, match="must be positive"):
            router.submit(0, probes=0)

    def test_window_auto_flush(self, instance):
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2)
        )
        router = MicroBatchRouter(service, config=RouterConfig(window=4))  # repro: noqa[RPL012]
        for player in range(3):
            router.submit(player)
        assert router.pending == 3
        router.submit(3)  # fills the window
        assert router.pending == 0
        responses = router.flush()
        assert {r.player for r in responses} == {0, 1, 2, 3}

    def test_responses_carry_probe_usage(self, instance):
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2)
        )
        router = MicroBatchRouter(service, config=RouterConfig(window=N))  # repro: noqa[RPL012]
        for player in range(N):
            router.submit(player, probes=4)
        responses = router.flush()
        assert len(responses) == N
        assert all(0 <= r.probes_used <= 4 for r in responses)
        assert sum(r.probes_used for r in responses) == int(
            service.oracle.stats().per_player.sum()
        )

    def test_two_requests_of_one_player_split_its_probes(self, instance):
        """Each request reports the probes served to it: the player's
        requests share what it was served in submit order, each capped
        by its own grant, so nothing is counted twice."""
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2)
        )
        router = MicroBatchRouter(service, config=RouterConfig(window=8))  # repro: noqa[RPL012]
        router.submit(0, probes=4)
        router.submit(0, probes=4)
        responses = router.flush()
        charged = int(service.oracle.stats().per_player[0])
        assert charged > 4  # both grants were drawn on
        assert [r.player for r in responses] == [0, 0]
        assert [r.probes_used for r in responses] == [4, charged - 4]
        assert sum(r.probes_used for r in responses) == int(
            service.oracle.stats().per_player.sum()
        )

    def test_flushed_responses_carry_the_estimate(self, instance):
        """In-process flushes (auto and explicit) answer with the
        player's current estimate.  Until the first barrier that is the
        player's revealed hidden grades with zeros elsewhere, checked at
        every flush against that reference; afterwards the merged
        output."""
        service = ServeService(  # repro: noqa[RPL012]
            instance, config=ServeConfig(seed=SEED, max_phases=1, d_max=2)
        )
        router = MicroBatchRouter(service, config=RouterConfig(window=4))  # repro: noqa[RPL012]
        board = service.oracle.billboard

        def check_pre_barrier(responses):
            for response in responses:
                revealed = board.revealed_row(response.player)
                reference = np.where(revealed, instance.prefs[response.player], 0)
                assert response.estimate.dtype == np.int8
                assert np.array_equal(response.estimate, reference)
                assert np.array_equal(response.estimate, service.estimate(response.player))

        for _ in range(3):
            for player in range(6):  # one auto flush, then an explicit one
                router.submit(player)
            responses = router.flush()
            assert [r.player for r in responses] == list(range(6))
            assert service.best is None
            check_pre_barrier(responses)
        assert any(r.estimate.any() for r in responses)  # grades were revealed
        flushes = 0
        while service.best is None:  # every player, each once per flush
            for player in range(N):
                router.submit(player)
            responses = router.flush()
            if service.best is None:
                check_pre_barrier(responses)
                flushes += 1
        assert flushes > 1
        router.run_to_completion()
        router.submit(5)
        (done,) = router.flush()
        assert np.array_equal(done.estimate, service.outputs()[5])

    def test_router_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            RouterConfig(window=0)
        with pytest.raises(ValueError, match="probes_per_request"):
            RouterConfig(probes_per_request=-1)
