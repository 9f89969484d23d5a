"""Tests for the order-preserving row-deduplication fast path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import rowset


def _reference(rows, return_counts=False):
    return np.unique(rows, axis=0, return_counts=return_counts)


class TestUniqueRows:
    def test_binary_rows_match_np_unique(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, (200, 33), dtype=np.int8)
        got_u, got_c = rowset.unique_rows(rows, return_counts=True)
        ref_u, ref_c = _reference(rows, return_counts=True)
        assert np.array_equal(got_u, ref_u)
        assert np.array_equal(got_c, ref_c)

    def test_small_int_offset_path(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(-3, 9, (64, 7)).astype(np.int64)
        assert np.array_equal(rowset.unique_rows(rows), _reference(rows))

    def test_wide_range_falls_back(self):
        rows = np.asarray([[0, 10**9], [-(10**9), 5], [0, 10**9]])
        assert np.array_equal(rowset.unique_rows(rows), _reference(rows))

    def test_empty_and_single(self):
        empty = np.empty((0, 5), dtype=np.int8)
        assert rowset.unique_rows(empty).shape == (0, 5)
        one = np.asarray([[1, 0, 1]], dtype=np.int8)
        assert np.array_equal(rowset.unique_rows(one), one)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_random(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, (n_rows, n_cols), dtype=np.int8)
        got_u, got_c = rowset.unique_rows(rows, return_counts=True)
        ref_u, ref_c = _reference(rows, return_counts=True)
        assert np.array_equal(got_u, ref_u)
        assert np.array_equal(got_c, ref_c)


class TestPopularAndPlurality:
    def test_popular_rows_threshold(self):
        rows = np.asarray(
            [[1, 1]] * 5 + [[0, 0]] * 3 + [[1, 0]] * 1, dtype=np.int8
        )
        # Threshold-passing rows come back in lex order (np.unique order).
        popular = rowset.popular_rows(rows, min_votes=3)
        assert [r.tolist() for r in popular] == [[0, 0], [1, 1]]

    def test_popular_rows_plurality_fallback(self):
        rows = np.asarray([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
        popular = rowset.popular_rows(rows, min_votes=2)
        assert len(popular) >= 1

    def test_plurality_row_picks_mode(self):
        rows = np.asarray([[0, 1]] * 2 + [[1, 1]] * 3, dtype=np.int8)
        assert rowset.plurality_row(rows).tolist() == [[1, 1]]
