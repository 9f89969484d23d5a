"""Kernel dispatch: one namespace, two interchangeable backends.

The raw-speed frontier of the packed substrate — scattered single-bit
extraction, the n² diameter loop, and the per-probe candidate scans —
lives behind this package.  Two backends implement the same seven
kernels:

* :mod:`repro.metrics.kernels.reference` — pure NumPy, cache-blocked,
  always importable.  Its outputs define correctness.
* :mod:`repro.metrics.kernels.compiled` — a cffi extension
  (``_ckernels``) built from :mod:`repro.metrics.kernels._csrc` by
  ``pip install -e .[compiled]`` or
  ``python -m repro.metrics.kernels.build``; pinned bitwise to the
  reference by ``tests/test_kernels.py`` and the substrate-equivalence
  suite.

Selection happens **once at import time**, the way ``bitpack`` picks
between ``np.bitwise_count`` and the 16-bit LUT:

1. ``REPRO_FORCE_PY_KERNELS=1`` → NumPy reference (the CI forced-
   fallback leg);
2. ``REPRO_KERNEL_BACKEND=numpy`` → NumPy reference;
3. ``REPRO_KERNEL_BACKEND=compiled`` → compiled, building the extension
   in place if needed; *hard error* if that fails (CI legs must never
   silently measure the wrong backend);
4. default → compiled if the extension imports, else NumPy with the
   failure recorded in :func:`backend_reason` ("compiled extension not
   built" when there is no ``_ckernels`` module at all).

For in-process A/B (benchmarks, equivalence tests) the
:func:`numpy_kernels` context manager forces the reference backend on
the current thread, mirroring ``bitpack.lut_popcount``.  Introspection
— which backend, why, and the per-kernel dispatch table — is exposed
via :func:`kernel_info` and surfaced by ``repro kernels`` and
``repro.api``.
"""

from __future__ import annotations

import importlib.util
import os
import threading
import types
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.metrics.kernels import reference

__all__ = [
    "KERNEL_NAMES",
    "extract_bits",
    "fused_extract_post",
    "scatter_values",
    "diameter_words",
    "pairwise_hamming_words",
    "scan_column",
    "pair_agreements",
    "kernel_backend",
    "backend_reason",
    "dispatch_table",
    "kernel_info",
    "numpy_kernels",
    "compiled_kernels_enabled",
]

#: Every kernel routed through this dispatch layer, in docs order.
KERNEL_NAMES = (
    "extract_bits",
    "fused_extract_post",
    "scatter_values",
    "diameter_words",
    "pairwise_hamming_words",
    "scan_column",
    "pair_agreements",
)

_state = threading.local()


def _select_backend() -> tuple[types.ModuleType, str, str]:
    """Pick the active backend module once, returning (module, name, why)."""
    if os.environ.get("REPRO_FORCE_PY_KERNELS") == "1":
        return reference, "numpy", "forced by REPRO_FORCE_PY_KERNELS=1"
    requested = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
    if requested not in ("", "numpy", "compiled"):
        raise RuntimeError(
            f"REPRO_KERNEL_BACKEND={requested!r} is not one of 'numpy', 'compiled'"
        )
    if requested == "numpy":
        return reference, "numpy", "forced by REPRO_KERNEL_BACKEND=numpy"
    # Look for the extension before importing ``compiled``: importing it
    # from inside this half-initialised package when it is simply absent
    # surfaces as a misleading circular-import error.
    if importlib.util.find_spec("repro.metrics.kernels._ckernels") is None:
        if requested != "compiled":
            return reference, "numpy", "compiled extension not built"
        import_error: ImportError = ImportError("compiled extension not built")
    else:
        try:
            from repro.metrics.kernels import compiled

            return compiled, "compiled", "compiled extension (_ckernels) importable"
        except ImportError as exc:
            if requested != "compiled":
                return reference, "numpy", f"compiled extension unavailable: {exc}"
            import_error = exc
    # REPRO_KERNEL_BACKEND=compiled but no prebuilt extension: build now.
    try:
        from repro.metrics.kernels.build import build_inplace

        build_inplace()
        from repro.metrics.kernels import compiled

        return compiled, "compiled", "built in place (REPRO_KERNEL_BACKEND=compiled)"
    except (RuntimeError, ImportError) as exc:
        raise RuntimeError(
            "REPRO_KERNEL_BACKEND=compiled but the compiled backend is "
            f"unavailable (import: {import_error}; build: {exc})"
        ) from exc


_active, _BACKEND, _REASON = _select_backend()


def _impl() -> types.ModuleType:
    """The backend serving this thread (honours :func:`numpy_kernels`)."""
    if getattr(_state, "force_numpy", False):
        return reference
    return _active


# ----------------------------------------------------------------------
# introspection + A/B toggle
# ----------------------------------------------------------------------
def kernel_backend() -> str:
    """The backend serving this thread: ``"numpy"`` or ``"compiled"``."""
    if getattr(_state, "force_numpy", False):
        return "numpy"
    return _BACKEND


def backend_reason() -> str:
    """Why the import-time selection landed where it did."""
    if getattr(_state, "force_numpy", False):
        return "forced by numpy_kernels() on this thread"
    return _REASON


def compiled_kernels_enabled() -> bool:
    """Whether this thread currently dispatches to the compiled backend."""
    return kernel_backend() == "compiled"


def dispatch_table() -> dict[str, str]:
    """Per-kernel backend map, e.g. ``{"extract_bits": "compiled", ...}``.

    All kernels dispatch together today; the per-kernel shape is the
    stable introspection contract so a future mixed dispatch (one kernel
    compiled, another NumPy) needs no API change.
    """
    backend = kernel_backend()
    return {name: backend for name in KERNEL_NAMES}


def kernel_info() -> dict[str, Any]:
    """One JSON-ready report: backend, why, and the dispatch table.

    The payload behind ``repro kernels`` and the honesty metadata the
    benchmark records embed.
    """
    return {
        "backend": kernel_backend(),
        "reason": backend_reason(),
        "env": {
            "REPRO_KERNEL_BACKEND": os.environ.get("REPRO_KERNEL_BACKEND"),
            "REPRO_FORCE_PY_KERNELS": os.environ.get("REPRO_FORCE_PY_KERNELS"),
        },
        "kernels": dispatch_table(),
    }


@contextmanager
def numpy_kernels() -> Iterator[None]:
    """Force the NumPy reference backend within the block (thread-local).

    The kernel-layer twin of ``bitpack.lut_popcount``: benchmarks use it
    for in-process A/B and the equivalence tests use it to pin the
    compiled backend bitwise to the reference.
    """
    prev = getattr(_state, "force_numpy", False)
    _state.force_numpy = True
    try:
        yield
    finally:
        _state.force_numpy = prev


# ----------------------------------------------------------------------
# the dispatched kernels
# ----------------------------------------------------------------------
def extract_bits(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix[rows, cols]`` (``int8``) read from big-endian packed rows."""
    return _impl().extract_bits(packed, rows, cols)  # type: ignore[no-any-return]


def fused_extract_post(
    packed: np.ndarray,
    sink: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Extract ``matrix[rows, cols]``, scatter into *sink*, charge *counts*."""
    return _impl().fused_extract_post(packed, sink, rows, cols, counts)  # type: ignore[no-any-return]


def scatter_values(
    sink: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> None:
    """``sink[rows, cols] = values`` (later duplicates win)."""
    _impl().scatter_values(sink, rows, cols, values)


def diameter_words(words: np.ndarray) -> int:
    """Max pairwise Hamming distance over zero-padded ``uint64`` rows."""
    return int(_impl().diameter_words(words))


def pairwise_hamming_words(words: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` ``int64`` Hamming matrix from ``uint64`` rows."""
    return _impl().pairwise_hamming_words(words)  # type: ignore[no-any-return]


def scan_column(
    col: np.ndarray,
    value: int,
    wildcard: int,
    bound: int,
    disagreements: np.ndarray,
    alive: np.ndarray,
) -> int:
    """Fused Select candidate scan (in place); returns eliminations."""
    return int(_impl().scan_column(col, value, wildcard, bound, disagreements, alive))


def pair_agreements(
    col_a: np.ndarray, col_b: np.ndarray, values: np.ndarray
) -> tuple[int, int]:
    """RSelect's first-match-wins agreement tally ``(agree_a, agree_b)``."""
    agree_a, agree_b = _impl().pair_agreements(col_a, col_b, values)
    return int(agree_a), int(agree_b)
