"""The bit-packed substrate: storage and kernels at one bit per entry.

Dense ``int8`` preference matrices and billboard channels move 8× more
bytes than the information they carry, and at serving-scale populations
the wall-clock is bandwidth-bound.  This module makes the packed
``uint8`` representation (``np.packbits`` rows, big-endian bit order —
bit ``7 - (j % 8)`` of byte ``j // 8`` is column ``j``) the system's
*native* substrate:

* **storage helpers** — :func:`pack_rows` / :func:`unpack_rows` /
  :func:`pack_vector` / :func:`unpack_vector` are the only sanctioned
  pack/unpack points (lint rule RPL010 bans ``np.unpackbits`` anywhere
  else in the library, so dense materialisation cannot silently creep
  back in);
* **word-indexed access** — :func:`extract_bits` answers
  ``matrix[rows, cols]`` reads straight from packed storage (the
  :class:`~repro.billboard.oracle.ProbeOracle` probe path);
* **Hamming kernels** — XOR + popcount row kernels
  (:func:`hamming_to_packed`, :func:`popcount_sum`) with a
  ``np.unpackbits``-free 16-bit-LUT fallback for NumPy builds without
  ``np.bitwise_count`` (force it with :func:`lut_popcount` — the CI
  fallback leg runs the golden-digest suites under it).

The oracle and the billboard always store packed; the dense reference
representation they once switched to survives only as test-local
models (``tests/test_substrate_model.py``) and bench-local seeds.

:class:`BitMatrix` wraps a packed matrix as a value type; it is the
currency between the shared-memory store, the oracle, and workloads
that keep many snapshots in memory.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.utils.validation import check_binary_matrix

__all__ = [
    "BitMatrix",
    "lut_popcount",
    "native_popcount_enabled",
    "packed_width",
    "pack_rows",
    "pack_vector",
    "unpack_rows",
    "unpack_vector",
    "extract_bits",
    "popcount_sum",
    "hamming_to_packed",
    "differing_columns",
]

#: Whether this NumPy build ships the vectorized popcount ufunc
#: (NumPy >= 2.0).  Older builds transparently use the 16-bit-LUT path.
#: ``REPRO_FORCE_LUT_POPCOUNT=1`` simulates such a build — the CI
#: fallback leg sets it to run the substrate suites on the LUT engine.
_HAS_NATIVE_POPCOUNT = (
    hasattr(np, "bitwise_count") and os.environ.get("REPRO_FORCE_LUT_POPCOUNT") != "1"
)

_state = threading.local()


# ----------------------------------------------------------------------
# popcount engine: np.bitwise_count, or the 16-bit LUT fallback
# ----------------------------------------------------------------------
def native_popcount_enabled() -> bool:
    """Whether popcounts use ``np.bitwise_count`` (vs the 16-bit LUT)."""
    return _HAS_NATIVE_POPCOUNT and not getattr(_state, "lut", False)


@contextmanager
def lut_popcount() -> Iterator[None]:
    """Force the ``np.unpackbits``-free 16-bit-LUT popcount in the block.

    The fallback is what NumPy builds without ``np.bitwise_count`` use
    unconditionally; tests and the CI fallback leg pin both engines to
    identical counts.
    """
    prev = getattr(_state, "lut", False)
    _state.lut = True
    try:
        yield
    finally:
        _state.lut = prev


_LUT16: np.ndarray | None = None


def _lut16() -> np.ndarray:
    """The 65536-entry popcount table, built once without unpackbits."""
    global _LUT16
    if _LUT16 is None:
        lut8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
        idx = np.arange(1 << 16)
        _LUT16 = (lut8[idx >> 8] + lut8[idx & 0xFF]).astype(np.uint8)
    return _LUT16


def popcount_sum(words: np.ndarray) -> np.ndarray:
    """Per-row popcount: total set bits along the last axis.

    *words* is any unsigned-integer array (``uint8`` packed rows or the
    ``uint64`` word views the blocked kernels use); the result drops the
    last axis and is ``int64``.  Dispatches to ``np.bitwise_count`` or,
    under :func:`lut_popcount` / on old NumPy, to the 16-bit LUT.
    """
    if native_popcount_enabled():
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    arr = np.ascontiguousarray(words)
    if arr.dtype != np.uint16:
        if arr.dtype == np.uint8 and arr.shape[-1] % 2:
            pad = np.zeros(arr.shape[:-1] + (1,), dtype=np.uint8)
            arr = np.concatenate([arr, pad], axis=-1)
        arr = arr.view(np.uint16)
    return _lut16()[arr].sum(axis=-1, dtype=np.int64)


# ----------------------------------------------------------------------
# pack / unpack (the API boundary; RPL010 keeps unpackbits in here)
# ----------------------------------------------------------------------
def packed_width(m: int) -> int:
    """Bytes per packed row for *m* columns: ``ceil(m / 8)``."""
    return (int(m) + 7) // 8


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a 2-D 0/1 matrix into ``(n, ceil(m / 8))`` ``uint8`` rows.

    Bit order is ``np.packbits``'s big-endian convention; the zero-padded
    tail of the last byte is shared by all rows, so packed bytes compare
    and XOR like the rows themselves.
    """
    arr = np.ascontiguousarray(rows)
    if arr.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {arr.shape}")
    return np.packbits(arr.astype(np.uint8, copy=False), axis=1)


def pack_vector(v: np.ndarray) -> np.ndarray:
    """Pack a 1-D 0/1 vector into ``ceil(m / 8)`` ``uint8`` bytes."""
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {arr.shape}")
    return np.packbits(arr.astype(np.uint8, copy=False))


def unpack_rows(packed: np.ndarray, m: int, dtype: np.dtype | type = np.int8) -> np.ndarray:
    """Unpack ``(n, ceil(m / 8))`` packed rows back to a dense ``(n, m)`` matrix."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed rows must be 2-D, got shape {packed.shape}")
    if packed.shape[1] != packed_width(m):
        raise ValueError(
            f"packed width {packed.shape[1]} does not match m={m} (need {packed_width(m)})"
        )
    if m == 0:
        return np.zeros((packed.shape[0], 0), dtype=dtype)
    return np.unpackbits(packed, axis=1, count=m).astype(dtype)


def unpack_vector(packed: np.ndarray, m: int, dtype: np.dtype | type = np.int8) -> np.ndarray:
    """Unpack a packed vector back to a dense length-*m* 0/1 vector."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 1:
        raise ValueError(f"packed vector must be 1-D, got shape {packed.shape}")
    if packed.shape[0] != packed_width(m):
        raise ValueError(
            f"packed width {packed.shape[0]} does not match m={m} (need {packed_width(m)})"
        )
    if m == 0:
        return np.zeros(0, dtype=dtype)
    return np.unpackbits(packed, count=m).astype(dtype)


def extract_bits(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix[rows, cols]`` read directly from packed rows (``int8``).

    Word-indexed bit extraction: one byte gather plus a shift/mask, no
    dense materialisation.  Bit-identical to fancy-indexing the dense
    matrix.  Dispatches through :mod:`repro.metrics.kernels` (compiled
    scatter-gather loop when the extension is available, cache-blocked
    NumPy otherwise).
    """
    from repro.metrics import kernels

    return kernels.extract_bits(packed, rows, cols)


# ----------------------------------------------------------------------
# packed Hamming kernels
# ----------------------------------------------------------------------
def hamming_to_packed(packed: np.ndarray, packed_v: np.ndarray) -> np.ndarray:
    """Hamming distance of every packed row to one packed vector."""
    return popcount_sum(np.bitwise_xor(packed, packed_v))


def differing_columns(packed: np.ndarray, m: int) -> np.ndarray:
    """Ascending column indices on which some two packed rows differ.

    The packed twin of ``X(V)`` for wildcard-free 0/1 candidate sets: a
    column distinguishes two rows iff its OR-bit and AND-bit differ.
    """
    if packed.shape[0] <= 1:
        return np.empty(0, dtype=np.intp)
    both = np.bitwise_and.reduce(packed, axis=0)
    any_ = np.bitwise_or.reduce(packed, axis=0)
    mask = unpack_vector(np.bitwise_xor(any_, both), m, dtype=np.uint8)
    return np.flatnonzero(mask)


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Packed ``uint8`` rows as zero-padded C-contiguous ``uint64`` words."""
    n, pm = packed.shape
    pad = (-pm) % 8
    if pad:
        padded = np.zeros((n, pm + pad), dtype=np.uint8)
        padded[:, :pm] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


# The row-tiled pairwise/diameter loops formerly inlined here moved to
# repro.metrics.kernels.reference (upper-triangle tiles) with a compiled
# twin in repro.metrics.kernels.compiled; BitMatrix dispatches below.


class BitMatrix:
    """An immutable bit-packed 0/1 matrix.

    Parameters
    ----------
    matrix:
        Dense ``(n, m)`` 0/1 matrix to pack.
    name:
        Name used in validation error messages (so substrate owners like
        the oracle report ``prefs must ...``, not ``matrix must ...``).
    """

    def __init__(self, matrix: np.ndarray, *, name: str = "matrix") -> None:
        dense = check_binary_matrix(matrix, name)
        self._n, self._m = dense.shape
        self._packed = pack_rows(dense)
        self._words: np.ndarray | None = None

    @classmethod
    def from_packed(cls, packed: np.ndarray, m: int, *, copy: bool = True) -> "BitMatrix":
        """Wrap already-packed rows (copied; the padding tail is re-zeroed).

        The attach path of :class:`repro.parallel.SharedInstanceHandle`:
        a worker adopts the published packed matrix without ever
        materialising the dense form.

        ``copy=False`` adopts the buffer as-is — the zero-copy attach
        path for mmap-backed dataset mirrors and freshly packed blocks
        the caller owns.  The buffer may be read-only (mmap mode ``r``);
        since an adopted tail can't be re-zeroed in place, dirty padding
        bits past column *m* are a hard error instead.
        """
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        if packed.ndim != 2:
            raise ValueError(f"packed rows must be 2-D, got shape {packed.shape}")
        if packed.shape[1] != packed_width(m):
            raise ValueError(
                f"packed width {packed.shape[1]} does not match m={m} "
                f"(need {packed_width(m)})"
            )
        self = cls.__new__(cls)
        self._n = int(packed.shape[0])
        self._m = int(m)
        tail_mask = np.uint8(0xFF << (8 - m % 8) & 0xFF)
        if copy:
            self._packed = packed.copy()
            if m % 8 and self._packed.size:
                # Zero the padding bits so XOR/popcount/equality stay exact
                # even if the source buffer carried garbage past column m.
                self._packed[:, -1] &= tail_mask
        else:
            if m % 8 and packed.size and bool((packed[:, -1] & np.uint8(~tail_mask & 0xFF)).any()):
                raise ValueError(
                    f"cannot adopt packed buffer: padding bits past column {m} "
                    "are dirty (re-pack it, or use copy=True)"
                )
            self._packed = packed
        self._words = None
        return self

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(rows, columns)``."""
        return (self._n, self._m)

    @property
    def nbytes(self) -> int:
        """Packed storage size in bytes."""
        return self._packed.nbytes

    @property
    def packed(self) -> np.ndarray:
        """Read-only view of the packed ``(n, ceil(m / 8))`` rows."""
        view = self._packed.view()
        view.flags.writeable = False
        return view

    def _word_view(self) -> np.ndarray:
        if self._words is None:
            self._words = _as_words(self._packed)
        return self._words

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def unpack(self) -> np.ndarray:
        """Back to a dense ``int8`` matrix."""
        return unpack_rows(self._packed, self._m)

    def row(self, i: int) -> np.ndarray:
        """Dense copy of row *i*."""
        if not (0 <= i < self._n):
            raise IndexError(f"row {i} out of range [0, {self._n})")
        return unpack_vector(self._packed[i], self._m)

    # ------------------------------------------------------------------
    # Hamming operations
    # ------------------------------------------------------------------
    def hamming_to_row(self, i: int) -> np.ndarray:
        """Hamming distance of every row to row *i*."""
        if not (0 <= i < self._n):
            raise IndexError(f"row {i} out of range [0, {self._n})")
        words = self._word_view()
        return popcount_sum(np.bitwise_xor(words, words[i]))

    def hamming_to_vector(self, v: np.ndarray) -> np.ndarray:
        """Hamming distance of every row to a dense 0/1 vector *v*."""
        v = np.asarray(v)
        if v.shape != (self._m,):
            raise ValueError(f"vector must have shape ({self._m},), got {v.shape}")
        pv = pack_vector(v)
        return hamming_to_packed(self._packed, pv)

    def pairwise_hamming(self) -> np.ndarray:
        """Exact all-pairs Hamming distance matrix (upper-triangle tiles).

        Dispatches through :mod:`repro.metrics.kernels`: the compiled
        backend runs an upper-triangle XOR + ``popcountll`` loop; the
        NumPy reference computes row-tiled ``j >= start`` bands and
        mirrors them — both bit-identical to the dense distance matrix
        (measured numbers in docs/performance.md).
        """
        from repro.metrics import kernels

        return kernels.pairwise_hamming_words(self._word_view())

    def diameter(self) -> int:
        """Maximum pairwise Hamming distance (tiled, no n×n matrix)."""
        if self._n <= 1:
            return 0
        from repro.metrics import kernels

        return kernels.diameter_words(self._word_view())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._packed, other._packed)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"BitMatrix(shape={self.shape}, nbytes={self.nbytes})"
