"""Tests for the probe oracle: values, accounting, budgets, billboard mirroring."""

import numpy as np
import pytest

from repro.billboard.exceptions import BudgetExceededError, ProbeError
from repro.billboard.oracle import ProbeOracle
from repro.model.instance import Instance


@pytest.fixture
def prefs():
    return np.asarray([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)


@pytest.fixture
def oracle(prefs):
    return ProbeOracle(prefs)


class TestProbe:
    def test_returns_hidden_value(self, oracle, prefs):
        for p in range(3):
            for o in range(4):
                assert oracle.probe(p, o) == prefs[p, o]

    def test_accepts_instance(self, prefs):
        oracle = ProbeOracle(Instance(prefs=prefs))
        assert oracle.n_players == 3

    def test_counts_per_player(self, oracle):
        oracle.probe(0, 0)
        oracle.probe(0, 1)
        oracle.probe(2, 3)
        stats = oracle.stats()
        assert stats.per_player.tolist() == [2, 0, 1]
        assert stats.total == 3
        assert stats.rounds == 2

    def test_repeats_charged_by_default(self, oracle):
        oracle.probe(0, 0)
        oracle.probe(0, 0)
        assert oracle.stats().per_player[0] == 2

    def test_repeats_free_when_disabled(self, prefs):
        oracle = ProbeOracle(prefs, charge_repeats=False)
        oracle.probe(0, 0)
        oracle.probe(0, 0)
        assert oracle.stats().per_player[0] == 1

    def test_bad_indices(self, oracle):
        with pytest.raises(ProbeError):
            oracle.probe(5, 0)
        with pytest.raises(ProbeError):
            oracle.probe(0, 9)
        with pytest.raises(ProbeError):
            oracle.probe(-1, 0)

    def test_mirrors_to_billboard(self, oracle):
        oracle.probe(1, 2)
        assert oracle.billboard.is_revealed(1, 2)
        assert oracle.billboard.grade(1, 2) == 0


class TestProbeMany:
    def test_values(self, oracle, prefs):
        players = np.asarray([0, 1, 2])
        objs = np.asarray([1, 0, 3])
        vals = oracle.probe_many(players, objs)
        assert vals.tolist() == [prefs[0, 1], prefs[1, 0], prefs[2, 3]]

    def test_empty_batch(self, oracle):
        assert oracle.probe_many(np.asarray([], dtype=int), np.asarray([], dtype=int)).size == 0

    def test_duplicate_pairs_each_charged(self, oracle):
        players = np.asarray([0, 0, 0])
        objs = np.asarray([1, 1, 1])
        oracle.probe_many(players, objs)
        assert oracle.stats().per_player[0] == 3

    def test_duplicates_free_when_repeats_uncharged(self, prefs):
        oracle = ProbeOracle(prefs, charge_repeats=False)
        oracle.probe_many(np.asarray([0, 0]), np.asarray([1, 1]))
        assert oracle.stats().per_player[0] == 1
        # probing again is free too
        oracle.probe_many(np.asarray([0]), np.asarray([1]))
        assert oracle.stats().per_player[0] == 1

    def test_shape_mismatch(self, oracle):
        with pytest.raises(ProbeError):
            oracle.probe_many(np.asarray([0, 1]), np.asarray([0]))

    def test_out_of_range(self, oracle):
        with pytest.raises(ProbeError):
            oracle.probe_many(np.asarray([7]), np.asarray([0]))

    @pytest.mark.parametrize(
        "players, objects, message",
        [
            ([0, -1], [1, 2], "player index out of range"),
            ([0, 3], [1, 2], "player index out of range"),
            ([-(2**62), 1], [1, 2], "player index out of range"),
            ([0, 1], [-1, 2], "object index out of range"),
            ([0, 1], [1, 4], "object index out of range"),
            ([2, 1], [1, -(2**62)], "object index out of range"),
        ],
    )
    @pytest.mark.parametrize("charge_repeats", [True, False])
    def test_out_of_range_charges_and_posts_nothing(self, prefs, players, objects, message, charge_repeats):
        oracle = ProbeOracle(prefs, charge_repeats=charge_repeats)
        with pytest.raises(ProbeError, match=message):
            oracle.probe_many(np.asarray(players), np.asarray(objects))
        assert oracle.stats().total == 0
        assert oracle.batch_count == 0
        assert not oracle.billboard.revealed_mask().any()

    def test_in_range_edges_accepted(self, oracle, prefs):
        vals = oracle.probe_many(np.asarray([0, 2]), np.asarray([3, 0]))
        assert vals.tolist() == [prefs[0, 3], prefs[2, 0]]

    def test_probe_all(self, oracle, prefs):
        vals = oracle.probe_all(1, np.arange(4))
        assert vals.tolist() == prefs[1].tolist()
        assert oracle.stats().per_player[1] == 4


class TestBudget:
    def test_budget_enforced_scalar(self, prefs):
        oracle = ProbeOracle(prefs, budget=2)
        oracle.probe(0, 0)
        oracle.probe(0, 1)
        with pytest.raises(BudgetExceededError) as exc:
            oracle.probe(0, 2)
        assert exc.value.player == 0
        assert exc.value.budget == 2

    def test_budget_enforced_batch(self, prefs):
        oracle = ProbeOracle(prefs, budget=3)
        with pytest.raises(BudgetExceededError):
            oracle.probe_many(np.zeros(4, dtype=int), np.arange(4))

    def test_other_players_unaffected(self, prefs):
        oracle = ProbeOracle(prefs, budget=1)
        oracle.probe(0, 0)
        oracle.probe(1, 0)  # independent budget

    def test_remaining(self, prefs):
        oracle = ProbeOracle(prefs, budget=5)
        oracle.probe(0, 0)
        assert oracle.remaining(0) == 4
        assert oracle.remaining(1) == 5
        unbudgeted = ProbeOracle(prefs)
        assert unbudgeted.remaining(0) == float("inf")

    def test_negative_budget_rejected(self, prefs):
        with pytest.raises(ValueError):
            ProbeOracle(prefs, budget=-1)


class TestPhases:
    def test_phase_accounting(self, oracle):
        oracle.start_phase("a")  # repro: noqa[RPL005] — exercises the manual pair API
        oracle.probe(0, 0)
        delta = oracle.finish_phase("a")  # repro: noqa[RPL005]
        assert delta.total == 1
        assert "a" in oracle.ledger

    def test_mismatched_billboard_rejected(self, prefs):
        from repro.billboard.board import Billboard

        with pytest.raises(ValueError):
            ProbeOracle(prefs, billboard=Billboard(2, 2))
