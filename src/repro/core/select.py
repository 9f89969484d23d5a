"""Algorithm Select — deterministic Choose-Closest with a distance bound.

Implements Fig. 3 of the paper.  Given a set ``V`` of ``k`` candidate
vectors (over ``{0, 1, ?}``; values may more generally be any small ints,
as in the super-object reuse) and a player who can probe coordinates of
its own hidden vector, Select returns the candidate closest to the
player's vector — *exactly*, provided some candidate is within the given
distance bound ``D`` (Theorem 3.2), probing at most ``k·(D+1)``
coordinates.

The procedure:

1. repeatedly probe the first not-yet-probed coordinate on which two
   surviving candidates differ (both non-"?" and unequal), discarding any
   candidate that accumulates more than ``D`` disagreements with the
   probed values;
2. stop when the surviving candidates agree on every unprobed coordinate
   (or all distinguishing coordinates are probed); output the
   lexicographically-first candidate among those closest to the player on
   the probed set.

Per the paper's remark, Select *disregards probes done before its
execution* — every probe here is a fresh, charged invocation, which is
exactly what the cost bound charges.

Off-nominal robustness (not covered by the paper's precondition): if
*every* candidate exceeds the bound, we return the best candidate over
the probed coordinates with ``exhausted=True`` instead of failing, so
outer layers with guessed bounds degrade gracefully.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.core.result import SelectOutcome
from repro.metrics import kernels
from repro.metrics.bitpack import differing_columns, pack_rows
from repro.utils.validation import WILDCARD

__all__ = ["select", "select_coroutine", "select_candidate_index", "distinguishing_coords"]


def distinguishing_coords(candidates: np.ndarray) -> np.ndarray:
    """``X(V)``: coordinates on which some two candidate rows differ.

    "Differ" is in the ``d̃`` sense: both entries non-"?" and unequal.
    Returns coordinate indices in ascending order.

    Wildcard-free 0/1 candidate sets (the vote candidates every adopter
    Selects over) take the bit-packed OR/AND-reduce path
    (:func:`repro.metrics.bitpack.differing_columns`) — identical
    indices, an eighth of the memory traffic.
    """
    cand = np.asarray(candidates)
    if cand.ndim != 2:
        raise ValueError(f"candidates must be 2-D, got shape {cand.shape}")
    if cand.shape[0] <= 1:
        return np.empty(0, dtype=np.intp)
    if (
        cand.dtype.kind in "iub"
        and cand.shape[1] > 0
        and int(cand.min()) >= 0
        and int(cand.max()) <= 1
    ):
        return differing_columns(pack_rows(cand), cand.shape[1])
    valid = cand != WILDCARD
    # A column has two differing non-? entries iff both a non-? 0/…/max
    # minimum and maximum exist and differ: mask wildcards to +inf/-inf.
    as_f = cand.astype(np.float64)
    lo = np.where(valid, as_f, np.inf).min(axis=0)
    hi = np.where(valid, as_f, -np.inf).max(axis=0)
    return np.flatnonzero(hi > lo)


#: Content-keyed memo of ``X(V)`` results.  Serving sessions run Select
#: per player but the candidate sets are shared — every adopter of a
#: vote Selects over the *same* matrix — so the serving runtime hits
#: this cache ``n - 1`` times out of ``n``; the batched drivers hit it
#: on every replayed tree node.  FIFO-capped; cached arrays are shared
#: and must not be mutated by callers.
_X_CACHE: dict[tuple[int, int, str, bytes], np.ndarray] = {}
_X_CACHE_CAP = 256


def _x_coords_cached(cand: np.ndarray) -> np.ndarray:
    if cand.shape[0] <= 1:
        return np.empty(0, dtype=np.intp)
    key = (cand.shape[0], cand.shape[1], cand.dtype.str, cand.tobytes())
    hit = _X_CACHE.get(key)
    if hit is None:
        hit = distinguishing_coords(cand)
        if len(_X_CACHE) >= _X_CACHE_CAP:
            _X_CACHE.pop(next(iter(_X_CACHE)))
        _X_CACHE[key] = hit
    return hit


def _lex_first(candidates: np.ndarray, indices: np.ndarray) -> int:
    """Index (into *candidates*) of the lexicographically-first row among *indices*."""
    best = int(indices[0])
    best_key = candidates[best].tobytes()
    for i in indices[1:]:
        key = candidates[int(i)].tobytes()
        if key < best_key:
            best, best_key = int(i), key
    return best


def select_coroutine(
    candidates: np.ndarray,
    bound: int,
) -> Generator[int, int, SelectOutcome]:
    """Algorithm Select as a coroutine: yields coordinates, receives values.

    The single source of truth for Fig. 3's logic.  :func:`select`
    drives it with a probe callable; the round engine's player programs
    drive it by forwarding the yielded coordinates as ``Probe`` actions.
    The generator's return value is the :class:`SelectOutcome`.
    """
    cand = np.ascontiguousarray(candidates)
    if cand.ndim != 2 or cand.shape[0] < 1:
        raise ValueError(f"candidates must be a non-empty 2-D matrix, got shape {cand.shape}")
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    k, L = cand.shape

    alive = np.ones(k, dtype=bool)
    disagreements = np.zeros(k, dtype=np.int64)
    probed = np.zeros(L, dtype=bool)
    n_probes = 0

    # Column-major int16 staging for the fused per-probe scan: the scan
    # kernel reads one contiguous column per probe, so the candidate
    # matrix is transposed once up front (when its values fit int16 —
    # always, for {0, 1, ?} and super-object alphabets; anything wider
    # scans the original columns through the kernel's generic path).
    scan_cols: np.ndarray | None = None
    if cand.dtype.kind in "iub" and (
        cand.size == 0 or (int(cand.min()) >= -(2**15) and int(cand.max()) < 2**15)
    ):
        scan_cols = np.asfortranarray(cand, dtype=np.int16)

    # Step 1: probe distinguishing coordinates in ascending order,
    # recomputing X(V) whenever the candidate set shrinks.
    x_coords = _x_coords_cached(cand)
    cursor = 0
    while True:
        # advance to the first unprobed coordinate of X(V)
        while cursor < x_coords.size and probed[x_coords[cursor]]:
            cursor += 1
        if cursor >= x_coords.size:
            break  # all of X(V) probed (or X(V) empty)
        j = int(x_coords[cursor])
        value = int((yield j))
        n_probes += 1
        probed[j] = True
        # Fused scan (repro.metrics.kernels.scan_column): bump every
        # contradicted candidate's disagreement count and retire those
        # that crossed the bound, in one pass over the column.
        col = scan_cols[:, j] if scan_cols is not None else cand[:, j]
        eliminated = kernels.scan_column(col, value, WILDCARD, bound, disagreements, alive)
        if eliminated:
            if not alive.any():
                break
            x_coords = _x_coords_cached(np.ascontiguousarray(cand[alive]))
            # distinguishing_coords indexes into the alive submatrix's
            # columns directly (columns are shared), so no remap needed —
            # but it returns column indices of the full matrix since we
            # passed full-width rows.
            cursor = 0

    # Step 2: among survivors, pick those closest on the probed set Y and
    # output the lexicographically first.  `disagreements` already counts
    # exactly the probed-coordinate mismatches.
    pool = np.flatnonzero(alive)
    exhausted = pool.size == 0
    if exhausted:
        pool = np.arange(k)
    dist_y = disagreements[pool]
    closest = pool[dist_y == dist_y.min()]
    winner = _lex_first(cand, closest)
    return SelectOutcome(index=winner, vector=cand[winner].copy(), probes=n_probes, exhausted=exhausted)


def select(
    candidates: np.ndarray,
    probe: Callable[[int], int],
    bound: int,
) -> SelectOutcome:
    """Run Algorithm Select (Fig. 3).

    Parameters
    ----------
    candidates:
        ``(k, L)`` integer matrix of candidate vectors; entries may be
        ``-1`` ("?").  ``k >= 1``.
    probe:
        Callable mapping a local coordinate index to the player's hidden
        value there.  Each call is one charged probe.
    bound:
        The distance bound ``D >= 0``; the guarantee requires some
        candidate within ``d̃``-distance ``D`` of the player.

    Returns
    -------
    SelectOutcome
        Chosen candidate (index + copy), probes spent, and whether the
        bound was exhausted (off-nominal).
    """
    gen = select_coroutine(candidates, bound)
    try:
        coord = next(gen)
        while True:
            coord = gen.send(probe(coord))
    except StopIteration as stop:
        return stop.value


def select_candidate_index(
    candidates: np.ndarray,
    probe: Callable[[int], int],
    bound: int,
) -> int:
    """Convenience wrapper around :func:`select` returning only the index."""
    return select(candidates, probe, bound).index

