"""Algorithm Small Radius — low-diameter communities (Fig. 4).

Handles any ``D`` at probing cost polynomial in ``D`` (so it is used
with ``D = O(log n)``).  One iteration:

1. randomly partition the objects into ``s = Θ(D^{3/2})`` parts (public
   coin — Lemma 4.1 guarantees that with constant probability *every*
   part has a 1/5-fraction of the community agreeing exactly on it);
2. run Zero Radius on every part with frequency ``α/5``;
3. collect the *popular* output vectors of each part (≥ ``αn/5``
   voters) and let each player adopt the closest popular vector via
   ``Select`` with bound ``D``; concatenating the parts yields the
   iteration's stitched candidate ``u_t(p)``.

``K`` independent iterations boost the constant success probability to
``1 − 2^{−Ω(K)}``; each player finally selects among its ``K`` stitched
candidates with bound ``5D`` (Lemma 4.3 proves every stitched vector of a
successful iteration is within ``5D`` of *every* community member).
Theorem 4.4: error ≤ ``5D`` w.h.p. at ``O(K·D^{3/2}(D + log n)/α)``
probing rounds.
"""

from __future__ import annotations

import numpy as np

from repro.billboard.oracle import ProbeOracle
from repro.core.batching import select_batched
from repro.core.params import Params
from repro.core.partition import partition_parts, random_partition
from repro.core.zero_radius import NO_OUTPUT, PrimitiveSpace, zero_radius
from repro.utils.rng import as_generator, spawn
from repro.utils.rowset import popular_rows

__all__ = ["small_radius"]


def _popular_rows(rows: np.ndarray, min_votes: int) -> np.ndarray:
    """Unique rows with at least *min_votes* supporters (plurality
    fallback capped at ``|rows| // min_votes``, cf. the ``5/α`` candidate
    bound in Theorem 4.4's accounting; vectorized dedup in
    :func:`repro.utils.rowset.popular_rows`)."""
    return popular_rows(np.ascontiguousarray(rows), min_votes)


def small_radius(
    oracle: ProbeOracle,
    players: np.ndarray,
    objects: np.ndarray,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    K: int | None = None,
) -> np.ndarray:
    """Run Algorithm Small Radius (Fig. 4) on an object subset.

    Parameters
    ----------
    oracle:
        The probe gate over the full hidden matrix.
    players, objects:
        Global indices of the participating players / objects (Large
        Radius invokes this on its per-group subsets; the Fig. 1 main
        algorithm passes everyone).
    alpha:
        Community frequency *within* the participating players.
    D:
        Distance bound: the target community has diameter ≤ ``D`` on the
        given objects.
    params, rng:
        Constants and public-coin generator.
    K:
        Confidence parameter (defaults to ``Θ(log n)`` via params).

    Returns
    -------
    numpy.ndarray
        ``(n_global, len(objects))`` int8 matrix of outputs in the
        *local* object order (column ``j`` is ``objects[j]``); rows of
        non-participating players hold ``NO_OUTPUT``.
    """
    players = np.asarray(players, dtype=np.intp)
    objects = np.asarray(objects, dtype=np.intp)
    if players.ndim != 1 or players.size == 0:
        raise ValueError("players must be a non-empty 1-D index array")
    if objects.ndim != 1 or objects.size == 0:
        raise ValueError("objects must be a non-empty 1-D index array")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if D < 0:
        raise ValueError(f"D must be non-negative, got {D}")
    p = params or Params.practical()
    gen = as_generator(rng)
    n_global = oracle.n_players
    L = objects.size
    K = p.sr_confidence(n_global) if K is None else int(K)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    s = min(p.sr_num_parts(D), L)
    zr_alpha = min(1.0, alpha / p.sr_alpha_div)
    pop_threshold = p.sr_popularity_threshold(alpha, players.size)

    # Step 1: K independent partition-and-solve iterations.
    stitched = np.full((K, n_global, L), NO_OUTPUT, dtype=np.int16)
    for t in range(K):
        iter_rng = spawn(gen)
        labels = random_partition(L, s, iter_rng)
        for part in partition_parts(labels, s):
            if part.size == 0:
                continue
            part_objects = objects[part]
            # Step 1b: Zero Radius on this part with frequency α/5.
            space = PrimitiveSpace(oracle, part_objects)
            with oracle.phase("small_radius/zero_radius"):
                zr_out = zero_radius(
                    space, players, zr_alpha, n_global=n_global, params=p, rng=spawn(iter_rng)
                )
            candidates = _popular_rows(zr_out[players], pop_threshold)
            # Step 1c: each player adopts the closest popular vector
            # (population-batched; per-player sequences unchanged).
            with oracle.phase("small_radius/part_select"):
                if candidates.shape[0] == 1:
                    stitched[t][np.ix_(players, part)] = candidates[0]
                else:
                    outcomes = select_batched(oracle, players, candidates, D, part_objects)
                    for player, outcome in outcomes.items():
                        stitched[t, player, part] = outcome.vector

    # Step 2: each player selects among its K stitched candidates with
    # bound 5D (Lemma 4.3); candidates are per-player, probing is batched.
    final_bound = int(np.ceil(p.sr_final_bound_mult * max(D, 1)))
    out = np.full((n_global, L), NO_OUTPUT, dtype=np.int16)
    with oracle.phase("small_radius/final_select"):
        if K == 1:
            out[players] = stitched[0, players, :]
        else:
            cand_by_player = {
                int(player): np.ascontiguousarray(stitched[:, player, :]) for player in players
            }
            outcomes = select_batched(oracle, players, cand_by_player, final_bound, objects)
            for player, outcome in outcomes.items():
                out[player] = outcome.vector
    return out.astype(np.int16)
