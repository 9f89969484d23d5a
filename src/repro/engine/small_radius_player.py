"""Algorithm Small Radius as a *player-local* program (Fig. 4, literally).

Composes the Zero Radius player program via ``yield from``: per
iteration ``t ≤ K`` the player runs Fig. 2 on each object part (public
partition), posts its per-part outputs, waits for everyone else's,
computes the popular vectors (same ``αn/5`` rule as the global
implementation), adopts the closest with the Select coroutine at bound
``D``, stitches, and finally selects among its ``K`` stitched candidates
at bound ``5D``.

The public coins (:class:`SmallRadiusCoins`) replicate the global
implementation's random draws *call for call*, so a run with the same
seed is **bitwise identical** to
:func:`repro.core.small_radius.small_radius` — asserted by the engine
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.core.params import Params
from repro.core.partition import partition_parts, random_partition
from repro.core.select import select_coroutine
from repro.core.zero_radius import NO_OUTPUT
from repro.engine.actions import Post, Wait, probe_select
from repro.engine.coins import PublicCoins
from repro.engine.scheduler import EngineResult, RoundScheduler
from repro.engine.zero_radius_player import zero_radius_player
from repro.utils.rng import as_generator, spawn

__all__ = ["SmallRadiusCoins", "small_radius_player", "run_small_radius_engine"]


@dataclass
class SmallRadiusCoins:
    """Shared randomness of one Small Radius execution.

    ``parts[t]`` is iteration *t*'s list of non-empty object parts
    (LOCAL indices into the invocation's object array) and
    ``trees[t][i]`` the Zero Radius halving tree of part *i*.
    """

    parts: list[list[np.ndarray]]
    trees: list[list[PublicCoins]]
    K: int
    s: int

    @classmethod
    def draw(
        cls,
        players: np.ndarray,
        n_objects: int,
        alpha: float,
        D: int,
        *,
        n_global: int,
        params: Params | None = None,
        rng: int | np.random.Generator | None = None,
        K: int | None = None,
    ) -> "SmallRadiusCoins":
        """Replicate the global implementation's draw sequence exactly."""
        p = params or Params.practical()
        gen = as_generator(rng)
        K = p.sr_confidence(n_global) if K is None else int(K)
        s = min(p.sr_num_parts(D), n_objects)
        zr_alpha = min(1.0, alpha / p.sr_alpha_div)
        all_parts: list[list[np.ndarray]] = []
        all_trees: list[list[PublicCoins]] = []
        for _t in range(K):
            iter_rng = spawn(gen)
            labels = random_partition(n_objects, s, iter_rng)
            parts = [part for part in partition_parts(labels, s) if part.size > 0]
            trees = [
                PublicCoins.draw(
                    players, part.size, zr_alpha, n_global=n_global, params=p, rng=spawn(iter_rng)
                )
                for part in parts
            ]
            all_parts.append(parts)
            all_trees.append(trees)
        return cls(parts=all_parts, trees=all_trees, K=K, s=s)


def small_radius_player(
    player: int,
    coins: SmallRadiusCoins,
    billboard: Billboard,
    players: np.ndarray,
    objects: np.ndarray,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    channel_prefix: str = "",
) -> Generator[Any, Any, np.ndarray]:
    """Build the Fig. 4 program for one player.

    *objects* are global indices; the returned vector is in local object
    order (column ``j`` ↔ ``objects[j]``), matching the global function.
    *channel_prefix* namespaces the billboard channels (Large Radius runs
    one Small Radius instance per object group).
    """
    p = params or Params.practical()
    L = objects.size
    pop_threshold = p.sr_popularity_threshold(alpha, players.size)
    stitched = np.full((coins.K, L), NO_OUTPUT, dtype=np.int16)

    for t in range(coins.K):
        for i, part in enumerate(coins.parts[t]):
            part_objects = objects[part]
            tree = coins.trees[t][i]

            # Step 1b: Zero Radius on this part (delegated sub-program;
            # its Probe actions carry part-local coordinates, remapped to
            # global objects here).
            sub = zero_radius_player(
                player,
                tree,
                billboard,
                min(1.0, alpha / p.sr_alpha_div),
                part.size,
                params=p,
                channel_prefix=f"{channel_prefix}sr/{t}/{i}/",
                object_map=part_objects,
            )
            my_zr = yield from sub
            yield Post(f"{channel_prefix}sr/{t}/{i}/out/{player}", my_zr)

            # Step 1b (votes): wait for every participant's part output.
            group = f"{channel_prefix}sr/{t}/{i}/out"
            while (candidates := billboard.vote(group, players, pop_threshold)) is None:
                yield Wait()

            # Step 1c: adopt the closest popular vector at bound D.
            if candidates.shape[0] == 1:
                stitched[t, part] = candidates[0]
            else:
                outcome = yield from probe_select(select_coroutine(candidates, D), part_objects)
                stitched[t, part] = outcome.vector

    # Step 2: select among the K stitched candidates at bound 5D.
    final_bound = int(np.ceil(p.sr_final_bound_mult * max(D, 1)))
    if coins.K == 1:
        return stitched[0]
    sel = select_coroutine(np.ascontiguousarray(stitched), final_bound)
    outcome = yield from probe_select(sel, objects)
    return outcome.vector


def run_small_radius_engine(
    oracle: ProbeOracle,
    players: np.ndarray,
    objects: np.ndarray,
    alpha: float,
    D: int,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    K: int | None = None,
    max_rounds: int = 10_000_000,
) -> tuple[np.ndarray, EngineResult]:
    """Run the distributed Small Radius end to end (cf. the global twin)."""
    players = np.sort(np.asarray(players, dtype=np.intp))
    objects = np.asarray(objects, dtype=np.intp)
    p = params or Params.practical()
    coins = SmallRadiusCoins.draw(
        players, objects.size, alpha, D, n_global=oracle.n_players, params=p, rng=rng, K=K
    )
    programs = {
        int(pl): small_radius_player(
            int(pl), coins, oracle.billboard, players, objects, alpha, D, params=p
        )
        for pl in players
    }
    result = RoundScheduler(oracle, programs).run(max_rounds=max_rounds)
    out = np.full((oracle.n_players, objects.size), NO_OUTPUT, dtype=np.int16)
    for pl, vec in result.outputs.items():
        out[pl] = vec
    return out, result
