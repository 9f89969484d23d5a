"""Fig. 1's dispatcher and §6's unknown-``D`` search as player programs.

With the three algorithm programs in place, the *whole pipeline* runs
distributed:

* :func:`find_preferences_player` — the Fig. 1 branch (``D = 0`` →
  Zero Radius; small ``D`` → Small Radius; else Large Radius), chosen
  identically by every player from the shared parameters;
* :func:`find_preferences_unknown_d_player` — §6: run a version per
  ``D`` in the doubling schedule (each namespaced on the billboard),
  then pick among the candidate outputs with the RSelect coroutine,
  seeded from the player's own pre-drawn stream.

Both are bitwise-equal to their global twins
(:func:`repro.core.main.find_preferences` /
:func:`repro.core.main.find_preferences_unknown_d`) given the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.core.main import _doubling_schedule
from repro.core.params import Params
from repro.core.rselect import rselect_coroutine
from repro.engine.actions import probe_select
from repro.engine.coins import PublicCoins
from repro.engine.large_radius_player import LargeRadiusCoins, large_radius_player
from repro.engine.scheduler import EngineResult, RoundScheduler
from repro.engine.small_radius_player import SmallRadiusCoins, small_radius_player
from repro.engine.zero_radius_player import zero_radius_player
from repro.utils.rng import as_generator, spawn, spawn_many
from repro.utils.validation import WILDCARD

__all__ = [
    "MainCoins",
    "UnknownDCoins",
    "find_preferences_player",
    "find_preferences_unknown_d_player",
    "merge_program",
    "run_find_preferences_engine",
    "run_find_preferences_unknown_d_engine",
]


@dataclass
class MainCoins:
    """Shared randomness + branch decision of one Fig. 1 execution."""

    branch: str
    alpha: float
    D: int
    zr_tree: PublicCoins | None = None
    sr_coins: SmallRadiusCoins | None = None
    lr_coins: LargeRadiusCoins | None = None

    @classmethod
    def draw(
        cls,
        n: int,
        m: int,
        alpha: float,
        D: int,
        *,
        params: Params | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> "MainCoins":
        """Replicate :func:`repro.core.main.find_preferences`'s dispatch + draws."""
        p = params or Params.practical()
        if not (0 < alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if D < 0:
            raise ValueError(f"D must be non-negative, got {D}")
        gen = as_generator(rng)
        players = np.arange(n, dtype=np.intp)
        if D == 0:
            tree = PublicCoins.draw(players, m, alpha, n_global=n, params=p, rng=gen)
            return cls(branch="zero_radius", alpha=alpha, D=D, zr_tree=tree)
        if D <= p.small_d_threshold(n):
            sr = SmallRadiusCoins.draw(players, m, alpha, D, n_global=n, params=p, rng=gen)
            return cls(branch="small_radius", alpha=alpha, D=D, sr_coins=sr)
        lr = LargeRadiusCoins.draw(n, m, alpha, D, params=p, rng=gen)
        return cls(branch="large_radius", alpha=alpha, D=D, lr_coins=lr)


def find_preferences_player(
    player: int,
    coins: MainCoins,
    billboard: Billboard,
    n: int,
    m: int,
    *,
    params: Params | None = None,
    channel_prefix: str = "",
) -> Generator[Any, Any, np.ndarray]:
    """Build the Fig. 1 program for one player (dispatch on the shared coins)."""
    p = params or Params.practical()
    if coins.branch == "zero_radius":
        out = yield from zero_radius_player(
            player, coins.zr_tree, billboard, coins.alpha, m,
            params=p, channel_prefix=channel_prefix,
        )
        return out.astype(np.int8)
    if coins.branch == "small_radius":
        players = np.arange(n, dtype=np.intp)
        out = yield from small_radius_player(
            player, coins.sr_coins, billboard, players, np.arange(m, dtype=np.intp),
            coins.alpha, coins.D, params=p, channel_prefix=channel_prefix,
        )
        return out.astype(np.int8)
    out = yield from large_radius_player(
        player, coins.lr_coins, billboard, m, coins.alpha,
        params=p, channel_prefix=channel_prefix,
    )
    return out


@dataclass
class UnknownDCoins:
    """Shared randomness of one §6 unknown-``D`` execution."""

    schedule: list[int]
    versions: list[MainCoins]
    player_rngs: list[np.random.Generator]

    @classmethod
    def draw(
        cls,
        n: int,
        m: int,
        alpha: float,
        *,
        params: Params | None = None,
        rng: int | np.random.Generator | None = None,
        d_max: int | None = None,
    ) -> "UnknownDCoins":
        """Replicate :func:`repro.core.main.find_preferences_unknown_d`'s draws."""
        p = params or Params.practical()
        gen = as_generator(rng)
        schedule = _doubling_schedule(m, p.unknown_d_base, d_max)
        versions = [
            MainCoins.draw(n, m, alpha, D, params=p, rng=spawn(gen)) for D in schedule
        ]
        player_rngs = spawn_many(spawn(gen), n)
        return cls(schedule=schedule, versions=versions, player_rngs=player_rngs)


def find_preferences_unknown_d_player(
    player: int,
    coins: UnknownDCoins,
    billboard: Billboard,
    n: int,
    m: int,
    *,
    params: Params | None = None,
    channel_prefix: str = "",
) -> Generator[Any, Any, np.ndarray]:
    """Build the §6 unknown-``D`` program for one player."""
    p = params or Params.practical()
    candidates = np.empty((len(coins.schedule), m), dtype=np.int8)
    for i, version in enumerate(coins.versions):
        out = yield from find_preferences_player(
            player, version, billboard, n, m, params=p,
            channel_prefix=f"{channel_prefix}v{i}/",
        )
        candidates[i] = out

    sel = rselect_coroutine(
        np.ascontiguousarray(candidates), n, params=p, rng=coins.player_rngs[player]
    )
    outcome = yield from probe_select(sel, range(m))
    return outcome.vector.astype(np.int8)


def merge_program(
    player: int,
    best: np.ndarray,
    new: np.ndarray,
    n: int,
    rng: np.random.Generator,
    params: Params,
) -> Generator[Any, Any, np.ndarray]:
    """One player's §6 phase-merge program: RSelect between old and new.

    :mod:`repro.serve` runs it as the merge stage of every phase after
    the first, bitwise-equal to the offline anytime loop's batched merge.
    """
    cands = np.ascontiguousarray(np.stack([best, new]))
    sel = rselect_coroutine(cands, n, params=params, rng=rng)
    outcome = yield from probe_select(sel, range(cands.shape[1]))
    return outcome.vector.astype(np.int8)


def run_find_preferences_engine(
    oracle: ProbeOracle,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    max_rounds: int = 10_000_000,
) -> tuple[np.ndarray, EngineResult]:
    """Distributed Fig. 1 run (cf. :func:`repro.core.main.find_preferences`)."""
    p = params or Params.practical()
    n, m = oracle.n_players, oracle.n_objects
    coins = MainCoins.draw(n, m, alpha, D, params=p, rng=rng)
    programs = {
        pl: find_preferences_player(pl, coins, oracle.billboard, n, m, params=p)
        for pl in range(n)
    }
    result = RoundScheduler(oracle, programs).run(max_rounds=max_rounds)
    out = np.full((n, m), WILDCARD, dtype=np.int8)
    for pl, vec in result.outputs.items():
        out[pl] = vec
    return out, result


def run_find_preferences_unknown_d_engine(
    oracle: ProbeOracle,
    alpha: float,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    d_max: int | None = None,
    max_rounds: int = 10_000_000,
) -> tuple[np.ndarray, EngineResult]:
    """Distributed §6 unknown-``D`` run (cf. the global twin)."""
    p = params or Params.practical()
    n, m = oracle.n_players, oracle.n_objects
    coins = UnknownDCoins.draw(n, m, alpha, params=p, rng=rng, d_max=d_max)
    programs = {
        pl: find_preferences_unknown_d_player(pl, coins, oracle.billboard, n, m, params=p)
        for pl in range(n)
    }
    result = RoundScheduler(oracle, programs).run(max_rounds=max_rounds)
    out = np.full((n, m), WILDCARD, dtype=np.int8)
    for pl, vec in result.outputs.items():
        out[pl] = vec
    return out, result
