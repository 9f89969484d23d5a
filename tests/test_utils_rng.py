"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn, spawn_many, spawn_seeds


class TestAsGenerator:
    def test_none_returns_generator(self):
        gen = as_generator(None)
        assert isinstance(gen, np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=10)
        b = as_generator(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = as_generator(1).integers(0, 2**31, size=10)
        b = as_generator(2).integers(0, 2**31, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        gen = as_generator(np.random.SeedSequence(5))
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_seed(self):
        gen = as_generator(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_generator(1.5)


class TestSpawn:
    def test_spawn_returns_new_generator(self):
        parent = as_generator(0)
        child = spawn(parent)
        assert isinstance(child, np.random.Generator)
        assert child is not parent

    def test_spawn_is_deterministic_given_parent_state(self):
        c1 = spawn(as_generator(9))
        c2 = spawn(as_generator(9))
        assert np.array_equal(c1.integers(0, 1000, 10), c2.integers(0, 1000, 10))

    def test_successive_spawns_are_independent(self):
        parent = as_generator(3)
        c1, c2 = spawn(parent), spawn(parent)
        assert not np.array_equal(c1.integers(0, 2**31, 20), c2.integers(0, 2**31, 20))

    def test_child_stream_differs_from_parent_usage(self):
        # The decoupling property the Zero Radius fix relies on: a child
        # stream must not replay the parent's permutation sequence.
        parent = as_generator(7)
        child = spawn(as_generator(7))
        assert not np.array_equal(parent.permutation(100), child.permutation(100))


class TestSpawnMany:
    def test_count(self):
        kids = spawn_many(as_generator(0), 5)
        assert len(kids) == 5

    def test_zero_count(self):
        assert spawn_many(as_generator(0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_many(as_generator(0), -1)

    def test_children_pairwise_independent(self):
        kids = spawn_many(as_generator(1), 4)
        draws = [k.integers(0, 2**31, 16) for k in kids]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])


class TestSpawnSeeds:
    #: ``spawn_many(as_generator(2024), 3)``: each child's first three
    #: ``integers(0, 2**31)`` draws, then the parent's next draw —
    #: recorded before ``spawn_many`` was built on ``spawn_seeds``.
    GOLDEN_CHILD_DRAWS = [
        [1463174426, 1252388679, 139000259],
        [254632342, 1883319940, 421436539],
        [285303559, 2105528578, 631377887],
    ]
    GOLDEN_PARENT_NEXT = 1951374834

    def test_spawn_many_draws_are_pinned(self):
        parent = as_generator(2024)
        kids = spawn_many(parent, 3)
        assert [k.integers(0, 2**31, 3).tolist() for k in kids] == self.GOLDEN_CHILD_DRAWS
        assert parent.integers(0, 2**31) == self.GOLDEN_PARENT_NEXT

    def test_seeds_build_the_same_children(self):
        parent = as_generator(2024)
        seeds = spawn_seeds(parent, 3)
        kids = [as_generator(seed) for seed in seeds]
        assert [k.integers(0, 2**31, 3).tolist() for k in kids] == self.GOLDEN_CHILD_DRAWS
        assert parent.integers(0, 2**31) == self.GOLDEN_PARENT_NEXT

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_one_draw_whatever_the_count(self, count):
        a, b = as_generator(5), as_generator(5)
        seeds = spawn_seeds(a, count)
        assert seeds == b.integers(0, 2**63 - 1, size=count).tolist()
        assert all(type(seed) is int and 0 <= seed < 2**63 - 1 for seed in seeds)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_seeds(as_generator(0), -1)
