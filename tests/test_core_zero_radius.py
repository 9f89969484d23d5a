"""Tests for Algorithm Zero Radius (Fig. 2 / Theorem 3.1)."""

import math

import numpy as np
import pytest

from repro.billboard.oracle import ProbeOracle
from repro.core.params import Params
from repro.core.select import select
from repro.core.zero_radius import (
    NO_OUTPUT,
    PrimitiveSpace,
    SuperObjectSpace,
    _vote_candidates,
    zero_radius,
)
from repro.workloads.planted import planted_instance


def _probe_all(oracle, player, objects):
    """Scalar referee: one ``oracle.probe`` per object, in order."""
    return [oracle.probe(player, int(obj)) for obj in objects]


def _super_probe_all(oracle, groups, candidates, bound, player, objects):
    """Scalar referee for a super-object space: one inner ``select`` per
    super-object, probing the group's objects with ``oracle.probe``."""
    return [
        select(candidates[l], lambda j, l=l: oracle.probe(player, int(groups[l][j])), bound).index
        for l in objects
    ]


class TestPrimitiveSpace:
    def test_probe_maps_local_to_global(self):
        prefs = np.asarray([[0, 1, 0, 1]], dtype=np.int8)
        oracle = ProbeOracle(prefs)
        space = PrimitiveSpace(oracle, np.asarray([3, 1]))
        assert space.n_objects == 2
        # local 0 -> global object 3, local 1 -> global object 1
        assert space.probe_block(np.asarray([0]), np.asarray([0, 1])).tolist() == [[1, 1]]

    def test_probe_all(self):
        prefs = np.asarray([[0, 1, 1, 0]], dtype=np.int8)
        oracle = ProbeOracle(prefs)
        space = PrimitiveSpace(oracle, np.asarray([0, 2]))
        assert space.probe_block(np.asarray([0]), np.asarray([0, 1])).tolist() == [[0, 1]]

    def test_probe_block_matches_probe_all(self):
        prefs = np.random.default_rng(0).integers(0, 2, (4, 6), dtype=np.int8)
        oracle, referee = ProbeOracle(prefs), ProbeOracle(prefs)
        objects = np.asarray([0, 2, 5])
        space = PrimitiveSpace(oracle, np.arange(6))
        block = space.probe_block(np.asarray([1, 3]), objects)
        assert block.tolist() == [_probe_all(referee, p, objects) for p in (1, 3)]
        assert np.array_equal(oracle.stats().per_player, referee.stats().per_player)

    def test_probe_block_charges_each_pair(self):
        prefs = np.zeros((3, 4), dtype=np.int8)
        oracle = ProbeOracle(prefs)
        space = PrimitiveSpace(oracle, np.arange(4))
        space.probe_block(np.asarray([0, 1]), np.asarray([0, 1, 2]))
        assert oracle.stats().per_player.tolist() == [3, 3, 0]

    def test_rejects_empty_objects(self):
        oracle = ProbeOracle(np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            PrimitiveSpace(oracle, np.asarray([], dtype=int))


class TestVoteCandidates:
    def test_popular_rows_returned(self):
        rows = np.asarray([[0, 1]] * 5 + [[1, 1]] * 2)
        out = _vote_candidates(rows, 3)
        assert out.shape[0] == 1
        assert out[0].tolist() == [0, 1]

    def test_multiple_popular(self):
        rows = np.asarray([[0, 1]] * 3 + [[1, 1]] * 3)
        out = _vote_candidates(rows, 3)
        assert out.shape[0] == 2

    def test_fallback_plurality(self):
        rows = np.asarray([[0, 0], [0, 1], [1, 1], [0, 0]])
        out = _vote_candidates(rows, 3)
        assert out.shape[0] >= 1
        assert out[0].tolist() == [0, 0]

    def test_fallback_capped(self):
        # 10 all-distinct rows, min_votes 2: cap = 5 candidates.
        rows = np.arange(10)[:, None] % 2 * 0 + np.eye(10, dtype=np.int64)
        out = _vote_candidates(rows.astype(np.int16), 2)
        assert out.shape[0] <= 5


class TestZeroRadius:
    def test_exact_recovery_whole_population(self):
        inst = planted_instance(64, 64, 1.0, 0, rng=0)
        oracle = ProbeOracle(inst)
        space = PrimitiveSpace(oracle, np.arange(64))
        out = zero_radius(space, np.arange(64), 1.0, n_global=64, rng=1)
        assert np.array_equal(out, inst.prefs)

    def test_exact_recovery_community(self):
        inst = planted_instance(128, 128, 0.5, 0, rng=2)
        comm = inst.main_community()
        oracle = ProbeOracle(inst)
        space = PrimitiveSpace(oracle, np.arange(128))
        out = zero_radius(space, np.arange(128), 0.5, n_global=128, rng=3)
        assert np.array_equal(out[comm.members], inst.prefs[comm.members])

    def test_cost_below_solo(self):
        inst = planted_instance(256, 256, 0.5, 0, rng=4)
        oracle = ProbeOracle(inst)
        space = PrimitiveSpace(oracle, np.arange(256))
        zero_radius(space, np.arange(256), 0.5, n_global=256, rng=5)
        assert oracle.stats().rounds < 256 / 4

    def test_subset_of_players(self):
        inst = planted_instance(64, 32, 1.0, 0, rng=6)
        oracle = ProbeOracle(inst)
        players = np.arange(0, 64, 2)
        space = PrimitiveSpace(oracle, np.arange(32))
        out = zero_radius(space, players, 1.0, n_global=64, rng=7)
        assert np.array_equal(out[players], inst.prefs[players])
        non_players = np.arange(1, 64, 2)
        assert (out[non_players] == NO_OUTPUT).all()

    def test_subset_of_objects(self):
        inst = planted_instance(64, 64, 1.0, 0, rng=8)
        oracle = ProbeOracle(inst)
        objects = np.arange(10, 30)
        space = PrimitiveSpace(oracle, objects)
        out = zero_radius(space, np.arange(64), 1.0, n_global=64, rng=9)
        assert np.array_equal(out[:, : objects.size], inst.prefs[:, objects])

    def test_base_case_small_population(self):
        # Below the leaf threshold everyone just probes everything.
        inst = planted_instance(8, 8, 1.0, 0, rng=10)
        oracle = ProbeOracle(inst)
        space = PrimitiveSpace(oracle, np.arange(8))
        p = Params.practical().with_overrides(zr_min_leaf=16)  # force the leaf
        out = zero_radius(space, np.arange(8), 1.0, n_global=8, params=p, rng=11)
        assert np.array_equal(out, inst.prefs)
        assert oracle.stats().rounds == 8

    def test_rejects_bad_args(self):
        oracle = ProbeOracle(np.zeros((4, 4), dtype=np.int8))
        space = PrimitiveSpace(oracle, np.arange(4))
        with pytest.raises(ValueError):
            zero_radius(space, np.asarray([], dtype=int), 0.5, n_global=4)
        with pytest.raises(ValueError):
            zero_radius(space, np.arange(4), 0.0, n_global=4)

    def test_reproducible_with_seed(self):
        inst = planted_instance(64, 64, 0.5, 0, rng=12)
        outs = []
        for _ in range(2):
            oracle = ProbeOracle(inst)
            space = PrimitiveSpace(oracle, np.arange(64))
            outs.append(zero_radius(space, np.arange(64), 0.5, n_global=64, rng=13))
        assert np.array_equal(outs[0], outs[1])

    def test_non_members_get_some_output(self):
        inst = planted_instance(128, 128, 0.5, 0, rng=14)
        oracle = ProbeOracle(inst)
        space = PrimitiveSpace(oracle, np.arange(128))
        out = zero_radius(space, np.arange(128), 0.5, n_global=128, rng=15)
        assert not (out == NO_OUTPUT).any()


class TestSuperObjectSpace:
    def _setup(self):
        # 2 groups of 3 objects; candidates per group.
        prefs = np.asarray(
            [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]], dtype=np.int8
        )
        oracle = ProbeOracle(prefs)
        groups = [np.asarray([0, 1, 2]), np.asarray([3, 4, 5])]
        candidates = [
            np.asarray([[0, 0, 0], [1, 1, 1]], dtype=np.int8),
            np.asarray([[1, 1, 1], [0, 0, 0]], dtype=np.int8),
        ]
        return oracle, SuperObjectSpace(oracle, groups, candidates, bound=1)

    def test_probe_returns_best_candidate_index(self):
        oracle, space = self._setup()
        assert space.n_objects == 2
        # player 0: group0 = 000 -> candidate 0, group1 = 111 -> candidate 0;
        # player 1 is the mirror image.
        block = space.probe_block(np.asarray([0, 1]), np.asarray([0, 1]))
        assert block.tolist() == [[0, 0], [1, 1]]

    def test_probe_all(self):
        oracle, space = self._setup()
        referee = ProbeOracle(oracle.checkpoint()["prefs"])
        block = space.probe_block(np.asarray([0, 1]), np.asarray([1, 0]))
        expected = [
            _super_probe_all(referee, space.groups, space.candidates, space.bound, p, [1, 0])
            for p in (0, 1)
        ]
        assert block.tolist() == expected
        assert np.array_equal(oracle.stats().per_player, referee.stats().per_player)

    def test_probes_charged_to_player(self):
        oracle, space = self._setup()
        space.probe_block(np.asarray([0]), np.asarray([0]))
        assert oracle.stats().per_player[0] >= 1
        assert oracle.stats().per_player[1] == 0

    def test_validation(self):
        oracle = ProbeOracle(np.zeros((2, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            SuperObjectSpace(oracle, [], [], bound=0)
        with pytest.raises(ValueError):
            SuperObjectSpace(
                oracle,
                [np.asarray([0, 1])],
                [np.zeros((1, 3), dtype=np.int8)],  # width mismatch
                bound=0,
            )
        with pytest.raises(ValueError):
            SuperObjectSpace(
                oracle, [np.asarray([0])], [np.zeros((1, 1), dtype=np.int8)], bound=-1
            )

    def test_zero_radius_over_super_objects(self):
        # All players share candidate index 0 per group -> ZR over the
        # super-object space returns all-zero index vectors.
        prefs = np.tile(np.asarray([0, 0, 1, 1], dtype=np.int8), (32, 1))
        oracle = ProbeOracle(prefs)
        groups = [np.asarray([0, 1]), np.asarray([2, 3])]
        candidates = [
            np.asarray([[0, 0], [1, 1]], dtype=np.int8),
            np.asarray([[1, 1], [0, 0]], dtype=np.int8),
        ]
        space = SuperObjectSpace(oracle, groups, candidates, bound=0)
        out = zero_radius(space, np.arange(32), 1.0, n_global=32, rng=0)
        assert (out == 0).all()
