"""Property tests pinning every kernel backend bitwise to the reference.

The dispatch layer (:mod:`repro.metrics.kernels`) promises that the
compiled backend is *observably invisible*: for any input, every backend
returns byte-identical results.  The hypothesis suites here are that
contract's referee — each kernel is driven across both backends (the
compiled one is skipped gracefully on hosts without the extension) and
against a scalar/dense model, over the shapes that historically bite
bit-packed code: tail words (widths straddling byte and 64-bit word
boundaries), duplicate probe coordinates, empty batches, single-row and
single-column matrices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import kernels
from repro.metrics.bitpack import _as_words
from repro.metrics.kernels import reference
from repro.utils.validation import WILDCARD

try:
    from repro.metrics.kernels import compiled
except ImportError:  # pragma: no cover - host without the built extension
    compiled = None

#: Both backends; the compiled leg vanishes (with a visible skip) when
#: the extension is not built rather than silently testing NumPy twice.
BACKENDS = [pytest.param(reference, id="numpy")] + (
    [pytest.param(compiled, id="compiled")]
    if compiled is not None
    else [pytest.param(None, id="compiled", marks=pytest.mark.skip("_ckernels not built"))]
)

#: Widths deliberately straddle byte (8) and word (64) boundaries so the
#: zero-padded tail bytes/words of the packed rows are always exercised.
binary_matrix = arrays(
    np.int8,
    st.tuples(st.integers(1, 12), st.integers(1, 80)),
    elements=st.integers(0, 1),
)

wide_binary_matrix = arrays(
    np.int8,
    st.tuples(st.integers(1, 6), st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130])),
    elements=st.integers(0, 1),
)


@st.composite
def matrix_and_probes(draw):
    """A dense 0/1 matrix plus a scattered (rows, cols) probe batch.

    Batches include the empty batch (k=0) and, by construction of the
    independent draws, duplicate coordinates.
    """
    dense = draw(st.one_of(binary_matrix, wide_binary_matrix))
    n, width = dense.shape
    k = draw(st.integers(0, 64))
    rows = draw(arrays(np.intp, k, elements=st.integers(0, n - 1)))
    cols = draw(arrays(np.intp, k, elements=st.integers(0, width - 1)))
    return dense, rows, cols


def _packed(dense: np.ndarray) -> np.ndarray:
    return np.packbits(dense, axis=1)


# ------------------------------------------------------------- extract


@pytest.mark.parametrize("backend", BACKENDS)
class TestExtractBits:
    @given(matrix_and_probes())
    @settings(max_examples=60)
    def test_matches_dense_fancy_indexing(self, backend, case):
        dense, rows, cols = case
        got = backend.extract_bits(_packed(dense), rows, cols)
        expected = dense[rows, cols]
        assert got.dtype == np.int8
        assert np.array_equal(got, expected)

    @given(binary_matrix)
    @settings(max_examples=20)
    def test_broadcast_like_advanced_indexing(self, backend, dense):
        n, width = dense.shape
        rows = np.arange(n, dtype=np.intp)[:, None]
        cols = np.arange(width, dtype=np.intp)[None, :]
        got = backend.extract_bits(_packed(dense), rows, cols)
        assert np.array_equal(got, dense)

    def test_single_row_and_single_column(self, backend):
        row = np.asarray([[1, 0, 1, 1, 0, 0, 1, 0, 1]], dtype=np.int8)
        cols = np.asarray([0, 8, 2, 2], dtype=np.intp)
        got = backend.extract_bits(_packed(row), np.zeros(4, dtype=np.intp), cols)
        assert got.tolist() == [1, 1, 1, 1]
        col = np.asarray([[0], [1], [1], [0], [1]], dtype=np.int8)
        rows = np.asarray([4, 0, 1, 1], dtype=np.intp)
        got = backend.extract_bits(_packed(col), rows, np.zeros(4, dtype=np.intp))
        assert got.tolist() == [1, 0, 1, 1]


@pytest.mark.parametrize("backend", BACKENDS)
class TestFusedExtractPost:
    @given(matrix_and_probes())
    @settings(max_examples=60)
    def test_matches_scalar_model(self, backend, case):
        dense, rows, cols = case
        n, width = dense.shape
        sink = np.full((n, width), WILDCARD, dtype=np.int8)
        counts = np.zeros(n, dtype=np.int64)
        values = backend.fused_extract_post(_packed(dense), sink, rows, cols, counts)

        model_sink = np.full((n, width), WILDCARD, dtype=np.int8)
        model_counts = np.zeros(n, dtype=np.int64)
        for r, c in zip(rows.tolist(), cols.tolist()):
            model_sink[r, c] = dense[r, c]  # later duplicates win
            model_counts[r] += 1
        assert np.array_equal(values, dense[rows, cols])
        assert np.array_equal(sink, model_sink)
        assert np.array_equal(counts, model_counts)

    @given(matrix_and_probes())
    @settings(max_examples=30)
    def test_counts_none_leaves_accounting_alone(self, backend, case):
        dense, rows, cols = case
        sink = np.full(dense.shape, WILDCARD, dtype=np.int8)
        values = backend.fused_extract_post(_packed(dense), sink, rows, cols, None)
        assert np.array_equal(values, dense[rows, cols])
        assert np.array_equal(sink != WILDCARD, _scatter_mask(dense.shape, rows, cols))


def _scatter_mask(shape, rows, cols):
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    return mask


# ---------------------------------------------------- diameter/pairwise


@pytest.mark.parametrize("backend", BACKENDS)
class TestDistanceKernels:
    @given(st.one_of(binary_matrix, wide_binary_matrix))
    @settings(max_examples=40)
    def test_diameter_matches_dense(self, backend, dense):
        words = _as_words(_packed(dense))
        expected = int(
            (dense[:, None, :] != dense[None, :, :]).sum(axis=2).max()
        )
        assert backend.diameter_words(words) == expected

    @given(st.one_of(binary_matrix, wide_binary_matrix))
    @settings(max_examples=40)
    def test_pairwise_matches_dense(self, backend, dense):
        words = _as_words(_packed(dense))
        expected = (dense[:, None, :] != dense[None, :, :]).sum(axis=2)
        got = backend.pairwise_hamming_words(words)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_single_row_is_degenerate_zero(self, backend):
        words = _as_words(_packed(np.ones((1, 70), dtype=np.int8)))
        assert backend.diameter_words(words) == 0
        assert backend.pairwise_hamming_words(words).tolist() == [[0]]


# ------------------------------------------------------ candidate scans


@st.composite
def scan_case(draw):
    k = draw(st.integers(1, 48))
    col = draw(arrays(np.int16, k, elements=st.sampled_from([WILDCARD, 0, 1])))
    value = draw(st.sampled_from([0, 1]))
    bound = draw(st.integers(0, 4))
    disagreements = draw(arrays(np.int64, k, elements=st.integers(0, 5)))
    alive = draw(arrays(np.bool_, k))
    return col, value, bound, disagreements, alive


@pytest.mark.parametrize("backend", BACKENDS)
class TestScanColumn:
    @given(scan_case())
    @settings(max_examples=60)
    def test_matches_scalar_model(self, backend, case):
        col, value, bound, disagreements, alive = case
        dis = disagreements.copy()
        liv = alive.copy()
        eliminated = backend.scan_column(col, value, WILDCARD, bound, dis, liv)

        model_dis = disagreements.copy()
        model_liv = alive.copy()
        model_eliminated = 0
        for i in range(col.size):
            if col[i] != WILDCARD and col[i] != value:
                model_dis[i] += 1
            if model_liv[i] and model_dis[i] > bound:
                model_liv[i] = False
                model_eliminated += 1
        assert eliminated == model_eliminated
        assert np.array_equal(dis, model_dis)
        assert np.array_equal(liv, model_liv)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPairAgreements:
    @given(
        st.integers(1, 48).flatmap(
            lambda k: st.tuples(
                arrays(np.int16, k, elements=st.sampled_from([WILDCARD, 0, 1])),
                arrays(np.int16, k, elements=st.sampled_from([WILDCARD, 0, 1])),
                arrays(np.int16, k, elements=st.integers(0, 1)),
            )
        )
    )
    @settings(max_examples=60)
    def test_first_match_wins(self, backend, case):
        col_a, col_b, values = case
        agree_a, agree_b = backend.pair_agreements(col_a, col_b, values)
        model_a = model_b = 0
        for va, vb, v in zip(col_a.tolist(), col_b.tolist(), values.tolist()):
            if va == v:
                model_a += 1
            elif vb == v:
                model_b += 1
        assert (agree_a, agree_b) == (model_a, model_b)

    def test_wide_dtypes_take_the_generic_path(self, backend):
        # int64 operands exercise the compiled wrapper's delegation (it
        # never narrows silently) and the reference's dtype-agnostic path.
        col_a = np.asarray([10**9, 2, WILDCARD], dtype=np.int64)
        col_b = np.asarray([2, 10**9, 10**9], dtype=np.int64)
        values = np.asarray([10**9, 10**9, 10**9], dtype=np.int64)
        assert backend.pair_agreements(col_a, col_b, values) == (1, 2)


# ------------------------------------------- dispatch layer + probe_many


class TestDispatchLayer:
    def test_backend_identity(self):
        assert kernels.kernel_backend() in ("numpy", "compiled")
        assert kernels.backend_reason()
        table = kernels.dispatch_table()
        assert tuple(table) == kernels.KERNEL_NAMES
        assert set(table.values()) == {kernels.kernel_backend()}

    def test_numpy_kernels_forces_reference(self):
        with kernels.numpy_kernels():
            assert kernels.kernel_backend() == "numpy"
            assert not kernels.compiled_kernels_enabled()
            assert set(kernels.dispatch_table().values()) == {"numpy"}
            info = kernels.kernel_info()
        assert info["backend"] == "numpy"
        assert set(info["env"]) == {"REPRO_KERNEL_BACKEND", "REPRO_FORCE_PY_KERNELS"}
        assert kernels.kernel_backend() in ("numpy", "compiled")

    def test_kernel_info_is_json_ready(self):
        import json

        json.dumps(kernels.kernel_info())

    def test_missing_extension_reports_not_built(self):
        """With no ``_ckernels`` module, ``repro kernels`` says so plainly."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import importlib.util\n"
            "real = importlib.util.find_spec\n"
            "def hide(name, package=None):\n"
            "    if name == 'repro.metrics.kernels._ckernels':\n"
            "        return None\n"
            "    return real(name, package)\n"
            "importlib.util.find_spec = hide\n"
            "from repro.cli import main\n"
            "main(['kernels'])\n"
        )
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("REPRO_KERNEL_BACKEND", "REPRO_FORCE_PY_KERNELS")
        }
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert "backend : numpy" in proc.stdout
        assert "reason  : compiled extension not built" in proc.stdout
        assert "circular" not in proc.stdout


@pytest.mark.skipif(compiled is None, reason="_ckernels not built")
class TestProbeManyAcrossBackends:
    """The oracle's batched fast path is backend-invariant end to end."""

    @given(st.integers(0, 2**31 - 1), st.integers(0, 400))
    @settings(max_examples=15, deadline=None)
    def test_values_counts_and_grades_match(self, seed, k):
        from repro.billboard.oracle import ProbeOracle
        from repro.workloads.registry import make_instance

        inst = make_instance("planted", 24, 37, 0.5, 2, rng=seed % 997)
        rng = np.random.default_rng(seed)
        players = rng.integers(0, 24, size=k).astype(np.intp)
        objects = rng.integers(0, 37, size=k).astype(np.intp)

        active = ProbeOracle(inst)
        got = active.probe_many(players, objects)
        with kernels.numpy_kernels():
            ref_oracle = ProbeOracle(inst)
            expected = ref_oracle.probe_many(players, objects)

        assert np.array_equal(got, expected)
        assert np.array_equal(active.stats().per_player, ref_oracle.stats().per_player)
        assert np.array_equal(
            active.billboard.revealed_mask(), ref_oracle.billboard.revealed_mask()
        )
