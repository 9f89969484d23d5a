"""Fault-injection tests for the round engine.

Documents the engine's failure semantics: player exceptions and budget
exhaustion propagate out of :meth:`RoundScheduler.run` (a distributed
implementation would crash the corresponding node; the simulator
surfaces it to the caller), and partial state stays consistent — a
round that exhausts the budget charges none of its probes.
"""

import numpy as np
import pytest

from repro.billboard.exceptions import BudgetExceededError
from repro.billboard.oracle import ProbeOracle
from repro.engine import Probe, RoundScheduler, Wait, run_zero_radius_engine
from repro.workloads.planted import planted_instance


def _oracle(n=4, m=8, **kw):
    rng = np.random.default_rng(0)
    return ProbeOracle(rng.integers(0, 2, (n, m), dtype=np.int8), **kw)


class TestPlayerExceptions:
    def test_player_exception_propagates(self):
        oracle = _oracle()

        def crasher():
            yield Probe(0)
            raise RuntimeError("player died")

        with pytest.raises(RuntimeError, match="player died"):
            RoundScheduler(oracle, {0: crasher()}).run()

    def test_probes_before_crash_remain_charged(self):
        oracle = _oracle()

        def crasher():
            yield Probe(0)
            yield Probe(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            RoundScheduler(oracle, {0: crasher()}).run()
        assert oracle.stats().per_player[0] == 2
        assert oracle.billboard.is_revealed(0, 0)


class TestBudgetExhaustion:
    def test_budget_error_propagates(self):
        oracle = _oracle(budget=2)

        def hungry():
            for j in range(5):
                yield Probe(j)
            return np.zeros(1)

        with pytest.raises(BudgetExceededError) as exc:
            RoundScheduler(oracle, {0: hungry()}).run()
        assert exc.value.player == 0

    def test_over_budget_round_charges_none_of_its_probes(self):
        # A round's probes are one all-or-nothing wavefront: player 1's
        # third probe exceeds the budget in round 3, so player 0's probe
        # of that round (its second, within budget) is neither charged
        # nor revealed.
        oracle = _oracle(budget=2)

        def late():
            yield Wait()
            yield Probe(0)
            yield Probe(1)
            return np.zeros(1)

        def hungry():
            for j in range(3):
                yield Probe(j)
            return np.zeros(1)

        with pytest.raises(BudgetExceededError) as exc:
            RoundScheduler(oracle, {0: late(), 1: hungry()}).run()
        assert exc.value.player == 1
        assert oracle.stats().per_player.tolist() == [1, 2, 0, 0]
        assert oracle.batch_count == 2
        assert oracle.billboard.is_revealed(0, 0)
        assert not oracle.billboard.is_revealed(0, 1)

    def test_zero_radius_engine_budget_exhaustion(self):
        inst = planted_instance(32, 32, 0.5, 0, rng=1)
        oracle = ProbeOracle(inst, budget=3)
        with pytest.raises(BudgetExceededError):
            run_zero_radius_engine(oracle, np.arange(32), 0.5, rng=2)

    def test_billboard_consistent_after_budget_crash(self):
        inst = planted_instance(32, 32, 0.5, 0, rng=3)
        oracle = ProbeOracle(inst, budget=3)
        try:
            run_zero_radius_engine(oracle, np.arange(32), 0.5, rng=4)
        except BudgetExceededError:
            pass
        mask = oracle.billboard.revealed_mask()
        vals = oracle.billboard.revealed_values()
        assert (vals[mask] == inst.prefs[mask]).all()


class TestWaitOnlyDeadlockGuard:
    def test_mutual_wait_hits_round_cap(self):
        oracle = _oracle()
        board = oracle.billboard

        def waiter(channel):
            def program():
                while not board.has_channel(channel):
                    yield Wait()
                return np.zeros(1)

            return program()

        # Two players each waiting for a channel only the other would
        # post (and never does): the scheduler's max_rounds guard fires.
        with pytest.raises(RuntimeError, match="still running"):
            RoundScheduler(oracle, {0: waiter("a"), 1: waiter("b")}).run(max_rounds=25)
