"""Fast row-set operations: unique rows, vote counting, plurality.

The voting steps of Zero/Small Radius and the Coalesce fallbacks all
reduce to one primitive — "deduplicate the rows of a small-int matrix
and count supporters" — which NumPy spells ``np.unique(axis=0)``.  That
spelling is the profiled hot spot of population-scale runs: it sorts
rows as full-width structured scalars, so each comparison touches every
byte of both rows (at ``n = m = 2048``, ~85% of a Small Radius trial's
wall-clock goes into these sorts).

:func:`unique_rows` is a drop-in replacement that first compresses each
row into a *lexicographic-order-preserving* byte key — ``np.packbits``
for 0/1 rows (8 entries per byte), an offset ``uint8`` cast for general
small-int rows — and deduplicates the keys instead.  The key order
equals the row order, so outputs (values, ordering, counts) are
bit-for-bit identical to ``np.unique(rows, axis=0)``; matrices whose
value range does not fit a byte fall back to NumPy's path unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.bitpack import unpack_rows

__all__ = [
    "unique_rows",
    "popular_rows",
    "popular_rows_packed",
    "plurality_row",
]


def _order_preserving_keys(rows: np.ndarray) -> np.ndarray | None:
    """Compress rows to byte keys whose memcmp order equals row lex order.

    Returns ``None`` when no compact order-preserving encoding applies
    (value range wider than one byte).
    """
    lo = int(rows.min())
    hi = int(rows.max())
    if lo >= 0 and hi <= 1:
        # 0/1 rows: packbits is big-endian, so bit order == column order
        # and the zero-padded tail is shared by all rows.
        return np.packbits(rows.astype(np.uint8, copy=False), axis=1)
    if hi - lo <= 255:
        # Small-int rows (super-object indices, wildcard -1): a common
        # offset preserves all pairwise comparisons.
        return (rows - lo).astype(np.uint8)
    return None


def unique_rows(
    rows: np.ndarray, *, return_counts: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Lexicographically sorted unique rows, exactly like ``np.unique(axis=0)``.

    Parameters
    ----------
    rows:
        2-D integer matrix.
    return_counts:
        Also return the per-row multiplicities (aligned with the output).
    """
    rows = np.ascontiguousarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    keys = None
    if rows.shape[0] > 1 and rows.shape[1] > 0:
        keys = _order_preserving_keys(rows)
    if keys is None:
        return np.unique(rows, axis=0, return_counts=return_counts)

    keys = np.ascontiguousarray(keys)
    void = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    if return_counts:
        _, first, counts = np.unique(void, return_index=True, return_counts=True)
        return rows[first], counts
    _, first = np.unique(void, return_index=True)
    return rows[first]


def popular_rows(rows: np.ndarray, min_votes: int) -> np.ndarray:
    """Unique rows supported by at least *min_votes* voters.

    Off-nominal fallback (the paper's w.h.p. analysis excludes it): when
    no row reaches the threshold, the plurality rows stand — capped at
    ``|rows| // min_votes`` candidates (the same cap the threshold
    implies), so a degenerate all-distinct vote cannot explode the
    downstream ``Select`` probe cost.
    """
    uniq, counts = unique_rows(rows, return_counts=True)
    popular = uniq[counts >= min_votes]
    if popular.shape[0] == 0:
        cap = max(1, rows.shape[0] // max(min_votes, 1))
        order = np.argsort(-counts, kind="stable")
        popular = uniq[order[:cap]]
    return popular


def popular_rows_packed(packed: np.ndarray, m: int, min_votes: int) -> np.ndarray:
    """:func:`popular_rows` over rows that are already bit-packed.

    The packed bytes *are* the order-preserving keys the fast path of
    :func:`unique_rows` would compute for 0/1 rows, so the vote pipeline
    fed by :meth:`Billboard.read_first_rows_packed` dedups directly on
    them — no ``int16`` vote stack, no re-``packbits``.  Output
    (values, order, the off-nominal plurality fallback) is bit-identical
    to ``popular_rows(dense rows, min_votes)``; candidates come back
    dense ``int16``, exactly what the dense gather hands Select.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed rows must be 2-D, got shape {packed.shape}")
    if packed.shape[0] <= 1 or packed.shape[1] == 0:
        # Degenerate shapes: the dense path already handles them.
        return popular_rows(unpack_rows(packed, m, dtype=np.int16), min_votes)
    void = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(void, return_index=True, return_counts=True)
    uniq = packed[first]
    popular = uniq[counts >= min_votes]
    if popular.shape[0] == 0:
        cap = max(1, packed.shape[0] // max(min_votes, 1))
        order = np.argsort(-counts, kind="stable")
        popular = uniq[order[:cap]]
    return unpack_rows(popular, m, dtype=np.int16)


def plurality_row(rows: np.ndarray) -> np.ndarray:
    """The single most-supported row as a 1-row matrix (ties: lex-first)."""
    uniq, counts = unique_rows(rows, return_counts=True)
    return uniq[counts == counts.max()][:1]
