"""Population-batched execution drivers — the ``probe_many`` fast path.

The paper's lockstep round model (Fig. 1, Theorem 1.1) makes all
players' probes within a round independent by construction, so the
per-player inner loops of the algorithm tower can be driven as *one*
coroutine per player with the pending probes of every player issued as a
single :meth:`~repro.billboard.oracle.ProbeOracle.probe_many` batch per
step.  The drivers here are **observation-equivalent** to the sequential
per-player loops: each player's probe sequence, probe count, and outcome
are exactly those of running :func:`~repro.core.select.select` /
:func:`~repro.core.rselect.rselect` in a loop — only the interleaving
*across* players changes (which the round model treats as simultaneous
anyway).  ``tests/test_batching_equivalence.py`` pins this contract with
golden digests.

These drivers are the only way the offline tower probes: the per-player
sequential loops they replaced are gone from production code and
survive as test-local referees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.result import SelectOutcome

if TYPE_CHECKING:  # import cycle: billboard never imports core at runtime
    from repro.billboard.oracle import ProbeOracle
    from repro.core.params import Params
from repro.core.rselect import rselect_coroutine
from repro.core.select import select_coroutine

__all__ = ["select_batched", "rselect_batched"]


def _drive_batched(
    coroutines: dict[int, Generator[int, int, SelectOutcome]],
    probe_many: Callable[[np.ndarray, np.ndarray], np.ndarray],
    coord_to_object: np.ndarray | None,
) -> dict[int, SelectOutcome]:
    """Advance per-player coroutines, batching each step's pending probes.

    *probe_many* is called once per step with equal-length player/object
    arrays; per-player coroutine order (and thus each player's probe
    sequence) is preserved exactly.
    """
    outcomes: dict[int, SelectOutcome] = {}
    pending: dict[int, int] = {}
    for pl, co in coroutines.items():
        try:
            pending[pl] = next(co)
        except StopIteration as stop:
            outcomes[pl] = stop.value

    while pending:
        batch_players = np.fromiter(pending.keys(), dtype=np.intp, count=len(pending))
        coords = np.fromiter(pending.values(), dtype=np.intp, count=len(pending))
        batch_objects = coords if coord_to_object is None else coord_to_object[coords]
        values = probe_many(batch_players, batch_objects)
        next_pending: dict[int, int] = {}
        for pl, value in zip(batch_players, values):
            pl = int(pl)
            try:
                next_pending[pl] = coroutines[pl].send(int(value))
            except StopIteration as stop:
                outcomes[pl] = stop.value
        pending = next_pending
    return outcomes


def select_batched(
    oracle: ProbeOracle,
    players: np.ndarray,
    candidates: np.ndarray | Mapping[int, np.ndarray],
    bound: int,
    coord_to_object: np.ndarray,
) -> dict[int, SelectOutcome]:
    """Run one Select per player, batching probes across players.

    Every player runs the *identical* Fig. 3 procedure over the same
    candidate set (via :func:`~repro.core.select.select_coroutine`), so
    per-player outcomes and probe sequences are exactly those of calling
    :func:`~repro.core.select.select` in a loop.  The only change is
    mechanical: at each step, all players' pending coordinate probes are
    issued as one ``probe_many`` batch — the model's "players probe in
    parallel", and an order-of-magnitude fewer Python-level oracle calls
    on population-scale adoptions.

    Parameters
    ----------
    oracle:
        The probe gate — anything exposing ``probe_many(players,
        objects) -> values`` (a :class:`~repro.billboard.oracle.ProbeOracle`
        or a value-space adapter such as the super-object batcher).
    players:
        Global player indices, one Select per player.
    candidates:
        ``(k, L)`` candidate matrix shared by all players, or a mapping
        ``player -> (k_p, L)`` matrix for per-player candidate sets
        (Small Radius step 2 selects among each player's own stitched
        vectors).
    bound:
        Distance bound ``D``.
    coord_to_object:
        Length-``L`` map from candidate-column index to global object.

    Returns
    -------
    dict
        ``player -> SelectOutcome``.
    """
    players = np.asarray(players, dtype=np.intp)
    coord_to_object = np.asarray(coord_to_object, dtype=np.intp)
    per_player = isinstance(candidates, Mapping)
    if not per_player and coord_to_object.shape != (np.asarray(candidates).shape[1],):
        raise ValueError(
            f"coord_to_object must have length {np.asarray(candidates).shape[1]}, "
            f"got {coord_to_object.shape}"
        )
    coroutines: dict[int, Generator[int, int, SelectOutcome]] = {}
    for pl in players:
        cand = candidates[int(pl)] if per_player else candidates
        coroutines[int(pl)] = select_coroutine(cand, bound)
    return _drive_batched(coroutines, oracle.probe_many, coord_to_object)


def rselect_batched(
    oracle: ProbeOracle,
    players: np.ndarray,
    candidates: np.ndarray | Mapping[int, np.ndarray],
    n_population: int,
    *,
    params: Params | None = None,
    rngs: Sequence[np.random.Generator] | Mapping[int, np.random.Generator] | None = None,
    coord_to_object: np.ndarray | None = None,
) -> dict[int, SelectOutcome]:
    """Run one RSelect per player, batching probes across players.

    The batched twin of :func:`~repro.core.rselect.rselect`, with the
    same observation-equivalence contract as :func:`select_batched`:
    each player's tournament consumes its *own* generator from *rngs*,
    so coordinate samples — and therefore outcomes — are bit-identical
    to a per-player loop of :func:`~repro.core.rselect.rselect`.

    Parameters
    ----------
    oracle:
        Probe gate exposing ``probe_many``.
    players:
        Global player indices.
    candidates:
        Shared ``(k, L)`` matrix or mapping ``player -> (k_p, L)``.
    n_population:
        The ``n`` in the per-pair ``c·log n`` probe count.
    params:
        Algorithm constants (see :class:`~repro.core.params.Params`).
    rngs:
        Per-player generators: a mapping ``player -> Generator`` or a
        sequence aligned with *players*.  ``None`` gives every player a
        fresh nondeterministic stream.
    coord_to_object:
        Optional candidate-column → global-object map (identity when
        ``None``; RSelect over full rows probes global coordinates
        directly).
    """
    players = np.asarray(players, dtype=np.intp)
    per_player = isinstance(candidates, Mapping)
    if coord_to_object is not None:
        coord_to_object = np.asarray(coord_to_object, dtype=np.intp)

    def rng_for(position: int, player: int) -> np.random.Generator | None:
        if rngs is None:
            return None
        if isinstance(rngs, Mapping):
            return rngs[player]
        return rngs[position]

    coroutines: dict[int, Generator[int, int, SelectOutcome]] = {}
    for pos, pl in enumerate(players):
        cand = candidates[int(pl)] if per_player else candidates
        coroutines[int(pl)] = rselect_coroutine(
            cand, n_population, params=params, rng=rng_for(pos, int(pl))
        )
    return _drive_batched(coroutines, oracle.probe_many, coord_to_object)
