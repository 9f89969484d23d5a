"""Algorithm Zero Radius as a *player-local* program (Fig. 2, literally).

Each player independently executes:

1. descend its halving-tree path (public coins) to its leaf and probe
   every leaf object — one per round, yielded as one ``ProbeEach`` run
   since the leaf is fixed by the coins before any grade comes back;
2. post its leaf vector on the billboard;
3. ascend: at each level, wait until every player of the *sibling* half
   has posted its vector for the sibling subtree, take the vote
   candidates (≥ α/2 support, same rule as the global implementation;
   computed once per posted state by :meth:`Billboard.vote`), adopt
   the closest via the Select coroutine (bound 0), post the merged
   vector for the current node, and continue to the root.

Given the same seed, the candidates, Select decisions, and outputs are
**bitwise identical** to :func:`repro.core.zero_radius.zero_radius` —
the engine tests assert exactly that.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.core.params import Params
from repro.core.select import select_coroutine
from repro.core.zero_radius import NO_OUTPUT
from repro.engine.actions import Post, Probe, ProbeEach, Wait, probe_select
from repro.engine.coins import PublicCoins
from repro.engine.scheduler import EngineResult, RoundScheduler
from repro.utils.rng import as_generator

__all__ = ["zero_radius_player", "run_zero_radius_engine"]


def _group(prefix: str, node_id: str) -> str:
    return f"{prefix}zr/{node_id or 'root'}"


def _channel(prefix: str, node_id: str, player: int) -> str:
    return f"{_group(prefix, node_id)}/{player}"


def zero_radius_player(
    player: int,
    coins: PublicCoins,
    billboard: Billboard,
    alpha: float,
    n_objects: int,
    *,
    params: Params | None = None,
    channel_prefix: str = "",
    object_map: np.ndarray | None = None,
    probe_subprogram: Any = None,
) -> Generator[Any, Any, np.ndarray]:
    """Build the Fig. 2 program for one player (read access to *billboard*).

    Parameters
    ----------
    channel_prefix:
        Namespace for billboard channels (Small Radius runs many Zero
        Radius instances; each gets its own prefix).
    object_map:
        Optional local→global object index map: ``Probe`` actions carry
        ``object_map[local]`` (Small Radius runs over object parts).
    probe_subprogram:
        Optional abstract-Probe factory ``(local_obj) -> generator``:
        probing local object *j* delegates (``yield from``) to the
        sub-generator, whose return value is the object's value — the
        engine form of §3.1's abstract ``Probe`` (Large Radius probes a
        super-object by running Select over its group's candidates).
        Mutually exclusive with *object_map*.
    """
    p = params or Params.practical()
    if probe_subprogram is not None and object_map is not None:
        raise ValueError("object_map and probe_subprogram are mutually exclusive")
    omap = np.arange(n_objects, dtype=np.intp) if object_map is None else np.asarray(object_map)
    if omap.shape != (n_objects,):
        raise ValueError(f"object_map must have shape ({n_objects},), got {omap.shape}")

    def probe_object(obj: int) -> Generator[Any, Any, int]:
        if probe_subprogram is not None:
            value = yield from probe_subprogram(obj)
            return value
        value = yield Probe(int(omap[obj]))
        return value

    values = np.full(n_objects, NO_OUTPUT, dtype=np.int16)
    path = coins.path_of(player)
    leaf = path[-1]

    # Step 1 (base case): probe every leaf object.
    if probe_subprogram is None:
        values[leaf.objects] = yield ProbeEach(omap[leaf.objects])
    else:
        for obj in leaf.objects:
            values[obj] = yield from probe_object(int(obj))
    yield Post(_channel(channel_prefix, leaf.node_id, player), values[leaf.objects])

    # Steps 2-4, ascending: adopt the sibling subtree's objects by voting.
    for depth in range(len(path) - 2, -1, -1):
        node = path[depth]
        my_child = path[depth + 1]
        sibling = coins.sibling(my_child.node_id)

        group = _group(channel_prefix, sibling.node_id)
        min_votes = p.zr_vote_threshold(alpha, sibling.players.size)
        while (candidates := billboard.vote(group, sibling.players, min_votes)) is None:
            yield Wait()
        if candidates.shape[0] == 1:
            chosen = candidates[0]
        else:
            outcome = yield from probe_select(
                select_coroutine(candidates, 0), sibling.objects, probe_object
            )
            chosen = outcome.vector
        values[sibling.objects] = chosen
        yield Post(_channel(channel_prefix, node.node_id, player), values[node.objects])

    return values


def run_zero_radius_engine(
    oracle: ProbeOracle,
    players: np.ndarray,
    alpha: float,
    *,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
    max_rounds: int = 1_000_000,
) -> tuple[np.ndarray, EngineResult]:
    """Run the distributed Zero Radius end to end.

    Returns the ``(n_global, m)`` output matrix (NO_OUTPUT for
    non-participants) plus the :class:`EngineResult` with the true
    lockstep round count.
    """
    players = np.asarray(players, dtype=np.intp)
    p = params or Params.practical()
    coins = PublicCoins.draw(
        players,
        oracle.n_objects,
        alpha,
        n_global=oracle.n_players,
        params=p,
        rng=as_generator(rng),
    )
    programs = {
        int(pl): zero_radius_player(
            int(pl), coins, oracle.billboard, alpha, oracle.n_objects, params=p
        )
        for pl in players
    }
    result = RoundScheduler(oracle, programs).run(max_rounds=max_rounds)
    out = np.full((oracle.n_players, oracle.n_objects), NO_OUTPUT, dtype=np.int16)
    for pl, vec in result.outputs.items():
        out[pl] = vec
    return out, result
