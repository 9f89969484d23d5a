"""The main algorithm (Fig. 1) and the Section 6 wrappers.

* :func:`find_preferences` — the known-``(α, D)`` dispatcher of Fig. 1:
  ``D = 0`` → Zero Radius; ``D = O(log n)`` → Small Radius; otherwise →
  Large Radius.
* :func:`find_preferences_unknown_d` — the Section 6 doubling search:
  run the main algorithm for ``D ∈ {0, 1, 2, 4, …}``, then each player
  picks among the ``O(log m)`` resulting candidate vectors with RSelect
  (which needs no distance bound).  Costs a log factor in probes and a
  constant factor in quality — the gap between Theorem 5.4 and
  Theorem 1.1.
* :func:`anytime_find_preferences` — the Section 6 "anytime algorithm":
  phase ``j`` runs the unknown-``D`` search with ``α = 2^{-j}``, merging
  each phase's output into the running best via RSelect; at any stopping
  time the output quality is close to the best achievable in the time
  spent.  Stops on probe-budget exhaustion when the oracle is budgeted.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro import obs
from repro.billboard.exceptions import BudgetExceededError
from repro.billboard.oracle import ProbeOracle
from repro.core.batching import rselect_batched
from repro.core.large_radius import large_radius
from repro.core.params import Params
from repro.core.result import RunResult
from repro.core.small_radius import small_radius
from repro.core.zero_radius import PrimitiveSpace, zero_radius
from repro.utils.rng import as_generator, spawn, spawn_seeds

__all__ = [
    "find_preferences",
    "find_preferences_unknown_d",
    "anytime_find_preferences",
    "anytime_phase_cap",
]


def find_preferences(
    oracle: ProbeOracle,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
) -> RunResult:
    """Fig. 1: solve Find Preferences with known ``α`` and ``D``.

    Returns a :class:`RunResult` whose ``outputs`` matrix covers every
    player; ``meta["branch"]`` records which algorithm ran.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if D < 0:
        raise ValueError(f"D must be non-negative, got {D}")
    p = params or Params.practical()
    gen = as_generator(rng)
    n, m = oracle.n_players, oracle.n_objects
    players = np.arange(n, dtype=np.intp)
    before = oracle.stats()

    if D == 0:
        branch = "zero_radius"
    elif D <= p.small_d_threshold(n):
        branch = "small_radius"
    else:
        branch = "large_radius"

    with obs.span(f"find_preferences/{branch}", oracle=oracle, alpha=alpha, D=D):  # repro: noqa[RPL011] — once per run, not a hot path
        if branch == "zero_radius":
            space = PrimitiveSpace(oracle, np.arange(m, dtype=np.intp))
            outputs = zero_radius(space, players, alpha, n_global=n, params=p, rng=gen).astype(np.int8)
        elif branch == "small_radius":
            outputs = small_radius(
                oracle, players, np.arange(m, dtype=np.intp), alpha, D, params=p, rng=gen
            ).astype(np.int8)
        else:
            outputs = large_radius(oracle, alpha, D, params=p, rng=gen)

    stats = oracle.stats() - before
    return RunResult(outputs=outputs, stats=stats, algorithm=branch, meta={"alpha": alpha, "D": D, "branch": branch})


def _doubling_schedule(m: int, base: float, d_max: int | None) -> list[int]:
    """``{0, 1, 2, 4, …}`` capped at ``d_max`` (default ``m``)."""
    cap = m if d_max is None else min(int(d_max), m)
    ds = [0]
    d = 1
    while d <= cap:
        ds.append(d)
        d = max(d + 1, int(math.ceil(d * base)))
    return ds


def find_preferences_unknown_d(
    oracle: ProbeOracle,
    alpha: float,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    d_max: int | None = None,
) -> RunResult:
    """Section 6: solve Find Preferences with known ``α`` but unknown ``D``.

    Runs :func:`find_preferences` for each ``D`` in the doubling schedule
    and lets each player choose among the candidate outputs with RSelect
    (Theorem 6.1 — no distance bound needed).  ``meta["schedule"]`` holds
    the ``D`` values tried; ``meta["per_d_rounds"]`` the per-version cost.
    """
    p = params or Params.practical()
    gen = as_generator(rng)
    n, m = oracle.n_players, oracle.n_objects
    before = oracle.stats()

    schedule = _doubling_schedule(m, p.unknown_d_base, d_max)
    versions: list[np.ndarray] = []
    per_d_rounds: list[int] = []
    for D in schedule:
        # One span per doubling guess; the nested find_preferences span
        # carries the branch that guess dispatched to.
        with obs.span("unknown_d/guess", oracle=oracle, D=D):
            obs.incr("doubling.iterations")
            res = find_preferences(oracle, alpha, D, params=p, rng=spawn(gen))
        versions.append(res.outputs)
        per_d_rounds.append(res.rounds)

    # Each player RSelects among its candidate vectors from all versions.
    # Per-player child streams (rather than one shared stream consumed in
    # player order) keep the randomness player-local — the property the
    # distributed engine needs to replicate runs coin-for-coin.  Only the
    # seeds are drawn here; a player's generator is built if it draws.
    stacked = np.stack(versions, axis=0)  # (n_versions, n, m)
    outputs = np.empty((n, m), dtype=np.int8)
    player_seeds = spawn_seeds(spawn(gen), n)
    with obs.span("unknown_d/rselect", oracle=oracle, versions=len(schedule)):
        cand_by_player = {
            player: np.ascontiguousarray(stacked[:, player, :]) for player in range(n)
        }
        outcomes = rselect_batched(
            oracle, np.arange(n, dtype=np.intp), cand_by_player, n, params=p, rngs=player_seeds
        )
        for player, outcome in outcomes.items():
            outputs[player] = outcome.vector

    stats = oracle.stats() - before
    return RunResult(
        outputs=outputs,
        stats=stats,
        algorithm="unknown_d",
        meta={"alpha": alpha, "schedule": schedule, "per_d_rounds": per_d_rounds},
    )


def anytime_phase_cap(n: int, max_phases: int | None) -> int:
    """Largest phase index ``j`` of the §6 anytime loop.

    Phases ``α = 2⁻ʲ`` run for ``j = 0 … cap``, stopping once
    ``2⁻ʲ n < log n``; ``max_phases`` caps the count from above.  The
    offline loop, the serving service and the sharded front end all
    read the cap from here.
    """
    cap = int(math.floor(math.log2(max(2.0, n / max(1.0, math.log(max(n, 2)))))))
    if max_phases is not None:
        cap = min(cap, max_phases - 1)
    return cap


def anytime_find_preferences(
    oracle: ProbeOracle,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    max_phases: int | None = None,
    d_max: int | None = None,
    phase_callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> RunResult:
    """Section 6: unknown ``α`` *and* ``D`` — the anytime algorithm.

    Phase ``j = 0, 1, …`` runs the unknown-``D`` search with
    ``α = 2^{-j}`` and merges the result into the running best output via
    per-player RSelect.  Phases stop when ``2^{-j} n < log n`` (the paper:
    below that a player "is better off probing all objects on his own"),
    after *max_phases*, or when a budgeted oracle raises
    :class:`BudgetExceededError` — in which case the best output of the
    *completed* phases is returned (``meta["budget_exhausted"] = True``).

    *phase_callback(j, alpha_j, outputs)* is invoked after each completed
    phase — the hook used by the E8 anytime-curve experiment.
    """
    p = params or Params.practical()
    gen = as_generator(rng)
    n, m = oracle.n_players, oracle.n_objects
    before = oracle.stats()

    max_j = anytime_phase_cap(n, max_phases)

    best: np.ndarray | None = None
    completed: list[float] = []
    exhausted = False
    for j in range(max_j + 1):
        alpha_j = 2.0 ** (-j)
        try:
            with obs.span("anytime/phase", oracle=oracle, j=j, alpha=alpha_j):
                res = find_preferences_unknown_d(oracle, alpha_j, params=p, rng=spawn(gen), d_max=d_max)
                new = res.outputs
                if best is None:
                    merged = new
                else:
                    merged = np.empty_like(new)
                    merge_seeds = spawn_seeds(spawn(gen), n)
                    cand_by_player = {
                        player: np.ascontiguousarray(np.stack([best[player], new[player]]))
                        for player in range(n)
                    }
                    outcomes = rselect_batched(
                        oracle,
                        np.arange(n, dtype=np.intp),
                        cand_by_player,
                        n,
                        params=p,
                        rngs=merge_seeds,
                    )
                    for player, outcome in outcomes.items():
                        merged[player] = outcome.vector
                best = merged
        except BudgetExceededError:
            exhausted = True
            obs.event("anytime.budget_exhausted", phase=j, alpha=alpha_j)
            break
        completed.append(alpha_j)
        if phase_callback is not None:
            phase_callback(j, alpha_j, best.copy())

    if best is None:
        # Budget died inside the very first phase: the best assumption-free
        # guess is each player's own revealed entries (already paid for and
        # posted on the billboard), zeros elsewhere.
        mask = oracle.billboard.revealed_mask()
        values = oracle.billboard.revealed_values()
        best = np.where(mask, values, 0).astype(np.int8)

    stats = oracle.stats() - before
    return RunResult(
        outputs=best,
        stats=stats,
        algorithm="anytime",
        meta={"phases": completed, "budget_exhausted": exhausted},
    )
