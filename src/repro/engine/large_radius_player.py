"""Algorithm Large Radius as a *player-local* program (Fig. 5, literally).

Completes the distributed-engine validation of the whole tower:

1. the player runs the Small Radius sub-program (``yield from``) for
   every object group it was assigned to and posts the group output;
2. for *every* group it waits until all that group's members posted,
   then computes Coalesce locally — deterministic on identical billboard
   state, so every player derives the same candidate sets ``B_ℓ``
   (exactly the paper's "all players apply procedure Coalesce");
3. it runs the Zero Radius program over super-objects, where probing
   super-object ``ℓ`` delegates to a Select coroutine over ``B_ℓ``
   (the §3.1 abstract Probe, engine form);
4. it stitches the chosen candidates into its final output vector.

:class:`LargeRadiusCoins` replicates the global implementation's random
draws call for call, so outputs and per-player probe counts are
**bitwise identical** to :func:`repro.core.large_radius.large_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.core.coalesce import coalesce
from repro.core.large_radius import _fallback_candidates
from repro.core.params import Params
from repro.core.partition import partition_parts, partition_players, random_partition
from repro.core.select import select_coroutine
from repro.engine.actions import Post, Probe, Wait
from repro.engine.coins import PublicCoins
from repro.engine.scheduler import EngineResult, RoundScheduler
from repro.engine.small_radius_player import SmallRadiusCoins, small_radius_player
from repro.engine.zero_radius_player import zero_radius_player
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import WILDCARD

__all__ = ["LargeRadiusCoins", "large_radius_player", "run_large_radius_engine"]


@dataclass
class LargeRadiusCoins:
    """Shared randomness of one Large Radius execution."""

    groups: list[np.ndarray]
    player_groups: list[np.ndarray]
    sr_coins: list[SmallRadiusCoins]
    super_tree: PublicCoins
    lam: int
    K: int
    sr_alpha: float
    coalesce_D: int
    select_bound: int

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
    ) -> "LargeRadiusCoins":
        """Replicate :func:`repro.core.large_radius.large_radius`'s draws."""
        p = params or Params.practical()
        gen = as_generator(rng)
        n_groups = min(p.lr_num_groups(D, n), m)
        labels = random_partition(m, n_groups, gen)
        groups = [g for g in partition_parts(labels, n_groups) if g.size > 0]
        n_groups = len(groups)
        copies = p.lr_player_copies(D, alpha, n)
        player_groups = partition_players(n, n_groups, copies, spawn(gen))

        lam = p.lr_lambda(D, n)
        sr_alpha = min(1.0, alpha / p.lr_alpha_div)
        K = p.sr_confidence(n)
        sr_coins = [
            SmallRadiusCoins.draw(
                members, group.size, sr_alpha, lam, n_global=n, params=p, rng=spawn(gen), K=K
            )
            for group, members in zip(groups, player_groups)
        ]
        super_tree = PublicCoins.draw(
            np.arange(n, dtype=np.intp), n_groups, alpha, n_global=n, params=p, rng=spawn(gen)
        )
        return cls(
            groups=groups,
            player_groups=player_groups,
            sr_coins=sr_coins,
            super_tree=super_tree,
            lam=lam,
            K=K,
            sr_alpha=sr_alpha,
            coalesce_D=math.ceil(p.lr_coalesce_mult * lam),
            select_bound=math.ceil(p.lr_select_bound_mult * lam),
        )


def large_radius_player(
    player: int,
    coins: LargeRadiusCoins,
    billboard: Billboard,
    n_objects: int,
    alpha: float,
    *,
    params: Params | None = None,
    channel_prefix: str = "",
) -> Generator[Any, Any, np.ndarray]:
    """Build the Fig. 5 program for one player (*channel_prefix*
    namespaces billboard channels so multiple instances can coexist)."""
    p = params or Params.practical()

    # Steps 1-2: run Small Radius for every group this player belongs to.
    for l, (group, members) in enumerate(zip(coins.groups, coins.player_groups)):
        idx = np.searchsorted(members, player)
        if idx >= members.size or members[idx] != player:
            continue
        sr_out = yield from small_radius_player(
            player,
            coins.sr_coins[l],
            billboard,
            members,
            group,
            coins.sr_alpha,
            coins.lam,
            params=p,
            channel_prefix=f"{channel_prefix}lr/{l}/",
        )
        yield Post(f"{channel_prefix}lr/{l}/out/{player}", sr_out)

    # Step 3: Coalesce every group's posted outputs (locally; deterministic).
    candidate_sets: list[np.ndarray] = []
    for l, members in enumerate(coins.player_groups):
        while not billboard.group_ready(f"{channel_prefix}lr/{l}/out", members.size):
            yield Wait()
        needed = [f"{channel_prefix}lr/{l}/out/{int(q)}" for q in members]
        posted = billboard.read_first_rows(needed).astype(np.int8)
        result = coalesce(posted, coins.coalesce_D, coins.sr_alpha)
        cands = result.vectors
        if cands.shape[0] == 0:
            cands = _fallback_candidates(posted)
        candidate_sets.append(cands)

    # Step 4: Zero Radius over super-objects; probing super-object l is a
    # Select coroutine over B_l (the abstract Probe of §3.1).
    def probe_super(l: int) -> Generator[Any, Any, int]:
        group = coins.groups[l]
        cands = candidate_sets[l]
        sel = select_coroutine(cands, coins.select_bound)
        try:
            coord = next(sel)
            while True:
                value = yield Probe(int(group[coord]))
                coord = sel.send(value)
        except StopIteration as stop:
            return stop.value.index

    chosen = yield from zero_radius_player(
        player,
        coins.super_tree,
        billboard,
        alpha,
        len(coins.groups),
        params=p,
        channel_prefix=f"{channel_prefix}lr/super/",
        probe_subprogram=probe_super,
    )

    out = np.full(n_objects, WILDCARD, dtype=np.int8)
    for l, group in enumerate(coins.groups):
        out[group] = candidate_sets[l][int(chosen[l])]
    return out


def run_large_radius_engine(
    oracle: ProbeOracle,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    max_rounds: int = 10_000_000,
) -> tuple[np.ndarray, EngineResult]:
    """Run the distributed Large Radius end to end (cf. the global twin)."""
    p = params or Params.practical()
    n, m = oracle.n_players, oracle.n_objects
    coins = LargeRadiusCoins.draw(n, m, alpha, D, params=p, rng=rng)
    programs = {
        pl: large_radius_player(pl, coins, oracle.billboard, m, alpha, params=p)
        for pl in range(n)
    }
    result = RoundScheduler(oracle, programs).run(max_rounds=max_rounds)
    out = np.full((n, m), WILDCARD, dtype=np.int8)
    for pl, vec in result.outputs.items():
        out[pl] = vec
    return out, result
