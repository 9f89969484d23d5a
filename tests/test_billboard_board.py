"""Tests for the shared billboard."""

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.utils.validation import WILDCARD


class TestConstruction:
    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            Billboard(0, 5)
        with pytest.raises(ValueError):
            Billboard(5, 0)

    def test_starts_unrevealed(self):
        b = Billboard(3, 4)
        assert b.n_revealed == 0
        assert not b.is_revealed(0, 0)


class TestGrades:
    def test_post_and_read(self):
        b = Billboard(3, 4)
        b.post_grades(np.asarray([1]), np.asarray([2]), np.asarray([1], dtype=np.int8))
        assert b.is_revealed(1, 2)
        assert b.grade(1, 2) == 1
        assert b.n_revealed == 1

    def test_hidden_grade_raises(self):
        b = Billboard(2, 2)
        with pytest.raises(KeyError):
            b.grade(0, 0)

    def test_revealed_values_hidden_marker(self):
        b = Billboard(2, 2)
        vals = b.revealed_values()
        assert (vals == WILDCARD).all()

    def test_masks_are_read_only(self):
        b = Billboard(2, 2)
        with pytest.raises(ValueError):
            b.revealed_mask()[0, 0] = True
        with pytest.raises(ValueError):
            b.revealed_values()[0, 0] = 1

    def test_batch_post(self):
        b = Billboard(4, 4)
        players = np.asarray([0, 1, 2])
        objs = np.asarray([3, 2, 1])
        vals = np.asarray([1, 0, 1], dtype=np.int8)
        b.post_grades(players, objs, vals)
        assert b.grade(0, 3) == 1
        assert b.grade(1, 2) == 0
        assert b.grade(2, 1) == 1


class TestChannels:
    def test_post_read_roundtrip(self):
        b = Billboard(2, 3)
        m = np.asarray([[0, 1, WILDCARD]], dtype=np.int8)
        b.post_vectors("sr/0", m)
        out = b.read_vectors("sr/0")
        assert np.array_equal(out, m)

    def test_read_returns_copy(self):
        b = Billboard(2, 3)
        b.post_vectors("c", np.zeros((1, 3)))
        out = b.read_vectors("c")
        out[0, 0] = 9
        assert b.read_vectors("c")[0, 0] == 0

    def test_post_copies_input(self):
        b = Billboard(2, 3)
        m = np.zeros((1, 3), dtype=np.int16)
        b.post_vectors("c", m)
        m[0, 0] = 9
        assert b.read_vectors("c")[0, 0] == 0

    def test_missing_channel(self):
        b = Billboard(2, 2)
        with pytest.raises(KeyError):
            b.read_vectors("nope")

    def test_has_and_list_channels(self):
        b = Billboard(2, 2)
        assert not b.has_channel("x")
        b.post_vectors("x", np.zeros((1, 2)))
        b.post_vectors("a", np.zeros((1, 2)))
        assert b.has_channel("x")
        assert b.channels() == ["a", "x"]

    def test_rejects_1d_vectors(self):
        b = Billboard(2, 2)
        with pytest.raises(ValueError):
            b.post_vectors("c", np.zeros(3))

    def test_overwrite_allowed(self):
        b = Billboard(2, 2)
        b.post_vectors("c", np.zeros((1, 2)))
        b.post_vectors("c", np.ones((2, 2)))
        assert b.read_vectors("c").shape == (2, 2)


class TestCheckpoint:
    def _posted(self):
        b = Billboard(3, 4)
        b.post_grades(np.asarray([0, 2]), np.asarray([1, 3]), np.asarray([1, 0], dtype=np.int8))
        b.post_vectors("zr/0/1", np.asarray([[0, 1, 1, 0]]))
        return b

    def test_roundtrip(self):
        """A checkpoint is the grade state alone: channels stay behind."""
        b = self._posted()
        revealed, values = b.checkpoint()
        assert np.array_equal(revealed, values != WILDCARD)
        r = Billboard(3, 4)
        r.restore_state(revealed, values)
        assert np.array_equal(r.revealed_values(), b.revealed_values())
        assert r.n_revealed == 2
        assert r.channels() == [] and b.channels() == ["zr/0/1"]

    @pytest.mark.parametrize("flip", [(0, 1), (1, 1)], ids=["revealed_dropped", "hidden_flagged"])
    def test_inconsistent_grades_rejected(self, flip):
        """``revealed`` disagreeing with ``values != WILDCARD`` can only
        come from a corrupt file: restore names the entry and refuses."""
        revealed, values = self._posted().checkpoint()
        revealed[flip] = not revealed[flip]
        with pytest.raises(ValueError, match=rf"inconsistent grade checkpoint: revealed\[{flip[0]}, {flip[1]}\]"):
            Billboard(3, 4).restore_state(revealed, values)

    @pytest.mark.parametrize("grade", [2, -2, 255], ids=["two", "minus_two", "wraps_to_minus_one"])
    def test_grades_outside_the_grade_set_rejected(self, grade):
        """Grades are 0/1 and hidden entries WILDCARD; anything else
        (including a value that int8 would wrap onto WILDCARD) is a
        corrupt file, and the fallback estimate's ``max(values, 0)``
        relies on it."""
        revealed, values = self._posted().checkpoint()
        values = values.astype(np.int16)
        values[0, 1] = grade
        revealed[0, 1] = grade != WILDCARD
        with pytest.raises(ValueError, match=rf"values\[0, 1\] = {grade}: grades are 0/1"):
            Billboard(3, 4).restore_state(revealed, values)
