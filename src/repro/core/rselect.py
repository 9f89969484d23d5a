"""Algorithm RSelect — randomized Choose-Closest without a distance bound.

Implements Fig. 7 / Theorem 6.1.  A round-robin tournament: for every
pair of distinct candidates, the player probes ``c·log n`` random
coordinates on which the pair's non-"?" values differ; a candidate is
declared a *loser* against the other if a ``2/3`` majority of the probed
coordinates agrees with the other.  The output is a vector with zero
losses (w.h.p. the true closest never loses, and any vector at distance
``Ω(D)`` loses to it), giving an ``O(D)``-close output with
``O(k² log n)`` probes and *no prior bound on D* — the ingredient that
lets Section 6 drop the known-``D`` assumption.

Robustness beyond the paper: if no candidate is undefeated (possible at
small sample sizes), we output the candidate with fewest losses,
breaking ties lexicographically.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.core.params import Params
from repro.core.result import SelectOutcome
from repro.metrics import kernels
from repro.metrics.bitpack import pack_rows, unpack_vector
from repro.utils.rng import as_generator
from repro.utils.validation import WILDCARD

__all__ = ["rselect", "rselect_coroutine"]


#: Content-keyed memo of the per-pair differing-coordinate arrays.  The
#: tournament's pair diffs depend only on the candidate matrix, which is
#: shared across every player the serving runtime steps over the same
#: vote — so all but the first player skip the ``O(k² L)`` scan
#: entirely.  FIFO-capped; cached arrays are shared, never mutated.
_DIFF_CACHE: dict[tuple[int, int, str, bytes], list[tuple[int, int, np.ndarray]]] = {}
_DIFF_CACHE_CAP = 64


def _pair_diffs(cand: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """``(a, b, diff)`` for every candidate pair with a non-empty diff.

    ``diff`` lists the coordinates where both entries are non-"?" and
    unequal, ascending — Fig. 7's per-match probe pool.  Wildcard-free
    0/1 candidates take the packed XOR path (bit-identical indices).
    """
    key = (cand.shape[0], cand.shape[1], cand.dtype.str, cand.tobytes())
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    k = cand.shape[0]
    binary = (
        cand.dtype.kind in "iub"
        and cand.size > 0
        and int(cand.min()) >= 0
        and int(cand.max()) <= 1
    )
    packed = pack_rows(cand) if binary else None
    table: list[tuple[int, int, np.ndarray]] = []
    for a in range(k):
        for b in range(a + 1, k):
            if packed is not None:
                # For 0/1 rows "both non-? and unequal" is exactly XOR.
                diff = np.flatnonzero(
                    unpack_vector(np.bitwise_xor(packed[a], packed[b]), cand.shape[1])
                )
            else:
                va, vb = cand[a], cand[b]
                diff = np.flatnonzero((va != WILDCARD) & (vb != WILDCARD) & (va != vb))
            if diff.size:
                table.append((a, b, diff))
    if len(_DIFF_CACHE) >= _DIFF_CACHE_CAP:
        _DIFF_CACHE.pop(next(iter(_DIFF_CACHE)))
    _DIFF_CACHE[key] = table
    return table


def rselect_coroutine(
    candidates: np.ndarray,
    n_population: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
) -> Generator[int, int, SelectOutcome]:
    """Algorithm RSelect as a coroutine: yields coordinates, receives values.

    The single source of truth for Fig. 7's logic; :func:`rselect`
    drives it with a probe callable, the round engine forwards the
    yielded coordinates as ``Probe`` actions.  Returns the
    :class:`SelectOutcome`.
    """
    cand = np.ascontiguousarray(candidates)
    if cand.ndim != 2 or cand.shape[0] < 1:
        raise ValueError(f"candidates must be a non-empty 2-D matrix, got shape {cand.shape}")
    if n_population < 1:
        raise ValueError(f"n_population must be >= 1, got {n_population}")
    p = params or Params.practical()
    gen = as_generator(rng)
    k = cand.shape[0]

    losses = np.zeros(k, dtype=np.int64)
    n_probes = 0
    budget = p.rs_num_probes(n_population)

    # Cache probed values within this invocation: probing the same
    # coordinate twice would return the same grade; the paper's probe
    # count is an upper bound and re-asking adds nothing.  Every *new*
    # coordinate is a charged probe.
    value_cache: dict[int, int] = {}

    # int16 staging for the per-match agreement kernel (candidate
    # alphabets — {0, 1, ?} and super-objects — always fit; a wider
    # matrix tallies through the kernel's generic path instead).
    cand16: np.ndarray | None = None
    if cand.dtype.kind in "iub" and (
        cand.size == 0 or (int(cand.min()) >= -(2**15) and int(cand.max()) < 2**15)
    ):
        cand16 = np.ascontiguousarray(cand, dtype=np.int16)

    # Indistinguishable pairs (empty diff) play no match, exactly as the
    # per-pair scan skipped them.
    for a, b, diff in _pair_diffs(cand):
        if diff.size <= budget:
            sample = diff
        else:
            sample = gen.choice(diff, size=budget, replace=False)
        # Collect this match's probed values first (yielding only
        # uncached coordinates, in sample order — the probe sequence is
        # identical to the scalar loop's), then tally agreements in one
        # kernel call (repro.metrics.kernels.pair_agreements keeps the
        # scalar loop's first-match-wins elif order).
        values = np.empty(sample.size, dtype=np.int64)
        for idx, j in enumerate(sample):
            j = int(j)
            if j not in value_cache:
                value_cache[j] = int((yield j))
                n_probes += 1
            values[idx] = value_cache[j]
        if cand16 is not None and (
            sample.size == 0
            or (int(values.min()) >= -(2**15) and int(values.max()) < 2**15)
        ):
            agree_a, agree_b = kernels.pair_agreements(
                cand16[a].take(sample), cand16[b].take(sample), values.astype(np.int16)
            )
        else:
            agree_a, agree_b = kernels.pair_agreements(
                cand[a].take(sample), cand[b].take(sample), values
            )
        threshold = p.rs_majority * sample.size
        if agree_a >= threshold:
            losses[b] += 1
        if agree_b >= threshold:
            losses[a] += 1

    zero_loss = np.flatnonzero(losses == 0)
    exhausted = zero_loss.size == 0
    pool = zero_loss if not exhausted else np.flatnonzero(losses == losses.min())
    # Deterministic pick among eligible candidates: lexicographically first.
    keys = [cand[int(i)].tobytes() for i in pool]
    winner = int(pool[min(range(len(keys)), key=keys.__getitem__)])
    return SelectOutcome(index=winner, vector=cand[winner].copy(), probes=n_probes, exhausted=exhausted)


def rselect(
    candidates: np.ndarray,
    probe: Callable[[int], int],
    n_population: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
) -> SelectOutcome:
    """Run Algorithm RSelect (Fig. 7).

    Parameters
    ----------
    candidates:
        ``(k, L)`` matrix over ``{0, 1, ?}`` (or small ints).
    probe:
        Coordinate-probe callable for the invoking player (charged).
    n_population:
        The ``n`` in the ``c·log n`` per-pair probe count (the global
        player population, which sets the w.h.p. confidence level).
    params:
        Constants (``rs_probes_c``, ``rs_majority``).
    rng:
        Seed or generator for the random coordinate samples.

    Returns
    -------
    SelectOutcome
        ``exhausted`` is True when no candidate was undefeated and a
        fewest-losses fallback was used.
    """
    gen = rselect_coroutine(candidates, n_population, params=params, rng=rng)
    try:
        coord = next(gen)
        while True:
            coord = gen.send(probe(coord))
    except StopIteration as stop:
        return stop.value
