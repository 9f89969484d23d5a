"""Tests for the distributed §6 anytime loop.

:class:`~repro.serve.ServeService`, driven by the micro-batching router,
is the distributed loop: every player is its own program, stepped
through the engine stepper, and phases meet at a barrier.  These tests
pin it against the offline :func:`anytime_find_preferences` on
exact-community instances, with and without a probe budget.
"""

import numpy as np

from repro.billboard.oracle import ProbeOracle
from repro.core.main import anytime_find_preferences
from repro.serve import MicroBatchRouter, RouterConfig, ServeConfig, ServeService
from repro.workloads.planted import planted_instance


def _distributed(inst, *, seed, budget=None, max_phases=None, d_max=4):
    """The served anytime loop, run to completion or exhaustion."""
    service = ServeService(  # repro: noqa[RPL012]
        inst,
        config=ServeConfig(seed=seed, max_phases=max_phases, d_max=d_max, budget=budget),
    )
    router = MicroBatchRouter(service, config=RouterConfig(window=16, probes_per_request=8))  # repro: noqa[RPL012]
    return service, router.run_to_completion()


class TestUnbudgeted:
    def test_bitwise_equal_to_global(self):
        inst = planted_instance(48, 48, 0.5, 0, rng=3)
        o1 = ProbeOracle(inst)
        g = anytime_find_preferences(o1, rng=55, max_phases=2, d_max=4)
        service, e = _distributed(inst, seed=55, max_phases=2)
        assert np.array_equal(g.outputs, e)
        assert np.array_equal(o1.stats().per_player, service.oracle.stats().per_player)
        assert service.completed == g.meta["phases"]
        assert not service.exhausted


class TestBudgeted:
    def test_exhaustion_flagged_and_graceful(self):
        inst = planted_instance(48, 48, 0.5, 0, rng=9)
        service, out = _distributed(inst, seed=10, budget=120)
        assert service.exhausted
        assert service.stage == "drained"
        assert out.shape == (48, 48)

    def test_completed_phase_preserved_across_abort(self):
        # Budget large enough for phase 1 but not phase 2: the returned
        # output is phase 1's, which matches the global run bitwise
        # (phase 1's probes are identical; phase 2's partial probes do
        # not touch `best`).
        inst = planted_instance(48, 48, 0.5, 0, rng=11)
        o_probe = ProbeOracle(inst)
        full = anytime_find_preferences(o_probe, rng=12, max_phases=1, d_max=4)
        budget = full.rounds + 20  # enough for phase 1, not phase 2

        o1 = ProbeOracle(inst, budget=budget)
        g = anytime_find_preferences(o1, rng=12, d_max=4)
        service, e = _distributed(inst, seed=12, budget=budget)
        assert service.exhausted
        assert service.phases_completed == len(g.meta["phases"]) == 1
        assert np.array_equal(g.outputs, e)
