"""Population-batched execution drivers — the ``probe_many`` fast path.

The paper's lockstep round model (Fig. 1, Theorem 1.1) makes all
players' probes within a round independent by construction, so the
per-player inner loops of the algorithm tower can be driven together,
with the pending probes of every player issued as a single
:meth:`~repro.billboard.oracle.ProbeOracle.probe_many` wavefront per
step.  The drivers here are **observation-equivalent** to the sequential
per-player loops: each player's probe sequence, probe count, and outcome
are exactly those of running :func:`~repro.core.select.select` /
:func:`~repro.core.rselect.rselect` in a loop — only the interleaving
*across* players changes (which the round model treats as simultaneous
anyway).  ``tests/test_batching_equivalence.py`` pins this contract with
golden digests.

Select (Fig. 3) is deterministic: a player's next probe depends only on
the candidate set, the bound and the grades it has seen so far.  So the
players of one call form a *decision tree*, and one coroutine serves
every player at a node of it.  :func:`_drive_tree` starts one coroutine
per root (a distinct candidate matrix), probes every live player's
pending coordinate in one wavefront, and splits each node's players by
the grade they got: the first branch keeps the node's coroutine, every
other branch gets a fresh one replayed through the node's answer
history (at most ``k(D+1)`` sends).  RSelect (Fig. 7) draws from a
per-player generator, so each of its players is a root of its own and
the tree never branches.

These drivers are the only way the offline tower probes: the per-player
sequential loops they replaced are gone from production code and
survive as test-local referees.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.result import SelectOutcome

if TYPE_CHECKING:  # import cycle: billboard never imports core at runtime
    from repro.billboard.oracle import ProbeOracle
    from repro.core.params import Params
from repro.core.rselect import rselect_coroutine
from repro.core.select import select_coroutine

__all__ = ["select_batched", "rselect_batched"]

Program = Generator[int, int, SelectOutcome]


def _drive_tree(
    players: np.ndarray,
    root_of: np.ndarray,
    factories: Sequence[Callable[[], Program]],
    probe_many: Callable[[np.ndarray, np.ndarray], np.ndarray],
    coord_to_object: np.ndarray | None,
) -> dict[int, SelectOutcome]:
    """Drive a population of deterministic coroutines as a decision tree.

    *players* are distinct, in wavefront order; ``players[i]`` starts at
    root ``root_of[i]``, whose program ``factories[root_of[i]]()`` makes.
    *probe_many* is called once per step with every live player's
    pending coordinate, players in the order given.  Each player gets
    its own :class:`SelectOutcome` (and its own copy of ``vector``).
    """
    outcomes: dict[int, SelectOutcome] = {}
    if not players.size:
        return outcomes
    # Node n: a coroutine, the factory that replays it, the grades sent
    # to it since its root, and its pending coordinate.  Nodes 0..R-1
    # are the roots; a node keeps its index while it does not split.
    makers = list(factories)
    programs = [factory() for factory in makers]
    histories: list[tuple[int, ...]] = [()] * len(makers)
    coords = [-1] * len(makers)
    live = np.arange(players.size)
    # Group g holds the live players at one (node, grade): its node,
    # grade, whether it keeps the node's coroutine, and its size.  The
    # first step starts every root; a root's grade is None.
    group_of = np.asarray(root_of, dtype=np.intp)
    nodes: list[int] = list(range(len(makers)))
    grades: list[int | None] = [None] * len(makers)
    keeps = [True] * len(makers)
    sizes: list[int] = np.bincount(group_of, minlength=len(makers)).tolist()
    while True:
        group_node = [-1] * len(nodes)  # -1: the group's program finished
        results: dict[int, SelectOutcome] = {}
        # Backwards, so a node's other groups replay its history before
        # its first group advances the node's own coroutine.
        for g, n, grade, keep, size in zip(
            range(len(nodes) - 1, -1, -1), reversed(nodes), reversed(grades), reversed(keeps), reversed(sizes)
        ):
            if keep:
                node, program = n, programs[n]
            else:
                node, program = len(programs), _replay(makers[n], histories[n])
                programs.append(program)
                makers.append(makers[n])
                histories.append(())
                coords.append(-1)
            try:
                coords[node] = next(program) if grade is None else program.send(grade)
            except StopIteration as stop:
                results[g] = stop.value
                continue
            if grade is not None:
                # A node of one player never splits, so it needs no history.
                histories[node] = histories[n] + (grade,) if size > 1 else ()
            group_node[g] = node
        at = np.asarray(group_node, dtype=np.intp)[group_of]
        done = at < 0
        for player, g in zip(players[live[done]].tolist(), group_of[done].tolist()):
            r = results[g]  # each player its own outcome, and its own vector
            outcomes[player] = SelectOutcome(r.index, r.vector.copy(), r.probes, r.exhausted)
        live, at = live[~done], at[~done]
        if not live.size:
            return outcomes
        pending = np.asarray(coords, dtype=np.intp)[at]
        objects = pending if coord_to_object is None else coord_to_object[pending]
        got = np.asarray(probe_many(players[live], objects)).astype(np.int64)
        # One group per distinct (node, grade), sorted by node then grade;
        # a node's first group keeps its coroutine, the others replay it.
        _, first, group_of, counts = np.unique(
            (at.astype(np.int64) << 32) | (got & 0xFFFFFFFF),
            return_index=True, return_inverse=True, return_counts=True,
        )
        group_nodes = at[first]
        nodes, grades, sizes = group_nodes.tolist(), got[first].tolist(), counts.tolist()
        keeps = [True, *(group_nodes[1:] != group_nodes[:-1]).tolist()]


def _replay(factory: Callable[[], Program], history: tuple[int, ...]) -> Program:
    """A fresh program paused where *history*'s grades lead from its root."""
    program = factory()
    next(program)
    for grade in history:
        program.send(grade)
    return program


def select_batched(
    oracle: ProbeOracle,
    players: np.ndarray,
    candidates: np.ndarray | Mapping[int, np.ndarray],
    bound: int,
    coord_to_object: np.ndarray,
) -> dict[int, SelectOutcome]:
    """Run one Select per player, batching probes across players.

    Every player runs the *identical* Fig. 3 procedure over its
    candidate set (via :func:`~repro.core.select.select_coroutine`), so
    per-player outcomes and probe sequences are exactly those of calling
    :func:`~repro.core.select.select` in a loop.  The only change is
    mechanical: at each step, all players' pending coordinate probes are
    issued as one ``probe_many`` wavefront — the model's "players probe
    in parallel" — and players who have seen the same grades over the
    same candidates share one coroutine (see :func:`_drive_tree`), so
    the Select work is per decision-tree node, not per player.  A
    repeated player id runs one Select and probes once per step.

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
    # Distinct players in first-occurrence order, one root per distinct
    # candidate matrix: by content, not identity, since Small Radius
    # hands every player its own copy of a few shared matrices.
    distinct = players[np.sort(np.unique(players, return_index=True)[1])]
    factories: list[Callable[[], Program]] = []
    if isinstance(candidates, Mapping):
        roots: dict[tuple[object, ...], int] = {}
        root_of = np.empty(distinct.size, dtype=np.intp)
        for i, pl in enumerate(distinct.tolist()):
            cand = np.ascontiguousarray(candidates[pl])
            key = (cand.shape, cand.dtype.str, cand.tobytes())
            if key not in roots:
                roots[key] = len(factories)
                factories.append(partial(select_coroutine, cand, bound))
            root_of[i] = roots[key]
    else:
        if coord_to_object.shape != (np.asarray(candidates).shape[1],):
            raise ValueError(
                f"coord_to_object must have length {np.asarray(candidates).shape[1]}, "
                f"got {coord_to_object.shape}"
            )
        factories.append(partial(select_coroutine, candidates, bound))
        root_of = np.zeros(distinct.size, dtype=np.intp)
    return _drive_tree(distinct, root_of, factories, oracle.probe_many, coord_to_object)


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

    # One root per distinct player: each tournament draws from its own
    # stream, so no two players share a node.  A repeated player keeps
    # its first position and its last generator.
    factories: dict[int, Callable[[], Program]] = {}
    for pos, pl in enumerate(players.tolist()):
        cand = candidates[pl] if per_player else candidates
        factories[pl] = partial(
            rselect_coroutine, cand, n_population, params=params, rng=rng_for(pos, pl)
        )
    distinct = np.fromiter(factories, dtype=np.intp, count=len(factories))
    root_of = np.arange(distinct.size, dtype=np.intp)
    return _drive_tree(distinct, root_of, list(factories.values()), oracle.probe_many, coord_to_object)
