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
history (at most ``k(D+1)`` sends).

RSelect (Fig. 7) needs no coroutine here at all.  A match's samples
depend on the candidates and the player's own coins, never on the
grades that come back, so :func:`rselect_batched` draws every player's
schedule before the first wavefront and tallies every match at once,
as arrays.  :func:`~repro.core.rselect.rselect_coroutine` stays the one
Fig. 7 program for the scalar call, the engine and serving.

These drivers are the only way the offline tower probes: the per-player
sequential loops they replaced are gone from production code and
survive as test-local referees.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.core.params import Params
from repro.core.result import SelectOutcome
from repro.core.select import select_coroutine
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import WILDCARD

if TYPE_CHECKING:  # import cycle: billboard never imports core at runtime
    from repro.billboard.oracle import ProbeOracle

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
    rngs: Sequence[RngLike] | Mapping[int, RngLike] | None = None,
    coord_to_object: np.ndarray | None = None,
) -> dict[int, SelectOutcome]:
    """Run one RSelect per player, batching probes across players.

    The batched twin of :func:`~repro.core.rselect.rselect`, with the
    same observation-equivalence contract as :func:`select_batched`:
    each player's tournament consumes its *own* generator from *rngs*,
    so coordinate samples — and therefore outcomes, probe sequences and
    counts — are bit-identical to a per-player loop of
    :func:`~repro.core.rselect.rselect`.

    Fig. 7's samples depend only on the candidates and the player's
    coins, never on the grades, so the tournament runs as arrays: every
    player's samples are drawn up front (the same ``choice`` calls, in
    the same pair order), wavefront *t* probes the *t*-th new coordinate
    of every player that has more than *t*, and every match is tallied
    at once.  A repeated player id keeps its first position and its last
    generator.

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
        Per-player generators or integer seeds, each private to its
        player: a mapping ``player -> rng`` or a sequence aligned with
        *players*.  ``None`` gives every player a fresh nondeterministic
        stream.  A seed becomes a generator only if its player draws
        (some pair differs on more coordinates than a match samples).
    coord_to_object:
        Optional candidate-column → global-object map (identity when
        ``None``; RSelect over full rows probes global coordinates
        directly).
    """
    players = np.asarray(players, dtype=np.intp)
    if not players.size:
        return {}
    if n_population < 1:
        raise ValueError(f"n_population must be >= 1, got {n_population}")
    p = params or Params.practical()
    budget = p.rs_num_probes(n_population)
    if coord_to_object is not None:
        coord_to_object = np.asarray(coord_to_object, dtype=np.intp)

    # Distinct players in first-occurrence order, each with its last rng.
    listed = players.tolist()
    coins: dict[int, RngLike]
    if rngs is None:
        coins = dict.fromkeys(listed)
    elif isinstance(rngs, Mapping):
        coins = {pl: rngs[pl] for pl in listed}
    else:
        coins = {pl: rngs[pos] for pos, pl in enumerate(listed)}
    distinct = np.fromiter(coins, dtype=np.intp, count=len(coins))
    seeds = list(coins.values())
    gens: dict[int, np.random.Generator] = {}

    def draw(i: int, diff: np.ndarray) -> np.ndarray:
        if i not in gens:
            gens[i] = as_generator(seeds[i])
        return gens[i].choice(diff, size=budget, replace=False)

    # Every sample of every match, as columns: the player's position in
    # *distinct*, the coordinate, the two candidates' entries there, and
    # the match id (one per group, pair and player).  Each column starts
    # empty, so a call in which no pair differs still concatenates.
    groups = _stack_by_shape(distinct, candidates)
    columns: list[list[np.ndarray]] = [[np.empty(0, dtype=np.intp)] for _ in range(5)]
    n_matches = 0
    for positions, cand in groups:
        for a, b in _pairs(cand.shape[1]):
            row, col = _pair_samples(cand, a, b, budget, lambda r, diff: draw(int(positions[r]), diff))
            for column, values in zip(
                columns, (positions[row], col, cand[row, a, col], cand[row, b, col], n_matches + row)
            ):
                column.append(values)
            n_matches += positions.size
    who, coord, at_a, at_b, match = (np.concatenate(column) for column in columns)
    width = max(cand.shape[2] for _, cand in groups) or 1
    grade, lengths = _probe_schedules(oracle, distinct, who, coord, width, coord_to_object)

    # A sample's two entries differ, so a grade agrees with at most one
    # of them.  A side that agrees on a majority of its match's samples
    # beats the other; a match without samples is not played.
    played = np.bincount(match, minlength=n_matches)
    threshold = p.rs_majority * played
    b_loses = (played > 0) & (np.bincount(match[grade == at_a], minlength=n_matches) >= threshold)
    a_loses = (played > 0) & (np.bincount(match[grade == at_b], minlength=n_matches) >= threshold)

    outcomes: dict[int, SelectOutcome] = {}
    n_matches = 0
    for positions, cand in groups:
        losses = np.zeros(cand.shape[:2], dtype=np.int64)
        for a, b in _pairs(cand.shape[1]):
            matches = slice(n_matches, n_matches + positions.size)
            losses[:, a] += a_loses[matches]
            losses[:, b] += b_loses[matches]
            n_matches += positions.size
        winner, exhausted = _winners(cand, losses)
        for r, (pos, w, ex) in enumerate(zip(positions.tolist(), winner.tolist(), exhausted.tolist())):
            outcomes[pos] = SelectOutcome(w, cand[r, w].copy(), int(lengths[pos]), ex)
    return {int(distinct[pos]): outcomes[pos] for pos in range(distinct.size)}


def _probe_schedules(
    oracle: ProbeOracle,
    distinct: np.ndarray,
    who: np.ndarray,
    coord: np.ndarray,
    width: int,
    coord_to_object: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe every sample, player by player in wavefronts.

    Sample ``i`` is player ``distinct[who[i]]``'s coordinate
    ``coord[i]`` (below *width*); each player's samples appear in
    sample order, interleaved with other players'.  Its schedule is their coordinates at first occurrence (a
    re-asked coordinate returns the grade already seen), and wavefront
    *t* probes the *t*-th scheduled coordinate of every player with more
    than *t*, in *distinct* order.  Returns each sample's grade and each
    player's schedule length (its charged probes).
    """
    _, first, key = np.unique(who.astype(np.int64) * width + coord, return_index=True, return_inverse=True)
    scheduled = np.sort(first)
    scheduled = scheduled[np.argsort(who[scheduled], kind="stable")]  # by player, then sample order
    owner = who[scheduled]
    lengths = np.bincount(owner, minlength=distinct.size)
    rank = np.arange(scheduled.size) - (np.cumsum(lengths) - lengths)[owner]
    wave = scheduled[np.argsort(rank, kind="stable")]  # by rank, then player
    players = distinct[who[wave]]
    objects = coord[wave] if coord_to_object is None else coord_to_object[coord[wave]]
    grade = np.empty(who.size, dtype=np.int64)
    stop = 0
    for size in np.bincount(rank).tolist():
        start, stop = stop, stop + size
        grade[wave[start:stop]] = np.asarray(
            oracle.probe_many(players[start:stop], objects[start:stop])
        ).astype(np.int64)
    return grade[first[key]], lengths


def _stack_by_shape(
    distinct: np.ndarray, candidates: np.ndarray | Mapping[int, np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(positions, (P, k, L) stack)`` per candidate shape and dtype."""
    if not isinstance(candidates, Mapping):
        cand = _checked(candidates)
        return [(np.arange(distinct.size), np.broadcast_to(cand, (distinct.size, *cand.shape)))]
    members: dict[tuple[object, ...], list[int]] = {}
    mats: list[np.ndarray] = []
    for pos, pl in enumerate(distinct.tolist()):
        mats.append(_checked(candidates[pl]))
        members.setdefault((mats[-1].shape, mats[-1].dtype.str), []).append(pos)
    return [
        (np.asarray(positions, dtype=np.intp), np.stack([mats[pos] for pos in positions]))
        for positions in members.values()
    ]


def _checked(candidates: np.ndarray) -> np.ndarray:
    cand = np.ascontiguousarray(candidates)
    if cand.ndim != 2 or cand.shape[0] < 1:
        raise ValueError(f"candidates must be a non-empty 2-D matrix, got shape {cand.shape}")
    return cand


def _pairs(k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


def _pair_samples(
    cand: np.ndarray, a: int, b: int, budget: int, draw: Callable[[int, np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Every player's samples for the match ``a`` against ``b``.

    A player's diff is where both entries are non-"?" and unequal,
    ascending; a diff longer than *budget* is replaced by
    ``draw(row, diff)``.  Returns ``(rows, coordinates)``, each row's
    samples contiguous and in sample order.
    """
    va, vb = cand[:, a], cand[:, b]
    row, col = np.nonzero((va != WILDCARD) & (vb != WILDCARD) & (va != vb))
    size = np.bincount(row, minlength=cand.shape[0])
    big = np.flatnonzero(size > budget)
    if big.size:
        end = np.cumsum(size)[big]
        start = end - size[big]
        drawn = [draw(r, col[s:e]) for r, s, e in zip(big.tolist(), start.tolist(), end.tolist())]
        keep = size[row] <= budget
        row = np.concatenate([row[keep], np.repeat(big, budget)])
        col = np.concatenate([col[keep], *drawn])
    return row, col


def _winners(cand: np.ndarray, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's pick: an undefeated candidate, else one with fewest
    losses (``exhausted``); ties go to the lexicographically first
    candidate bytes, then the lowest index."""
    zero = losses == 0
    exhausted = ~zero.any(axis=1)
    eligible = np.where(exhausted[:, None], losses == losses.min(axis=1, keepdims=True), zero)
    winner = eligible.argmax(axis=1)
    tied = np.flatnonzero(eligible.sum(axis=1) > 1)
    if tied.size and cand.shape[2]:
        raw = cand[tied].view(np.uint8)  # a copy: C-contiguous
        best = winner[tied]
        for i in range(1, cand.shape[1]):
            rows = np.flatnonzero(eligible[tied, i] & (best < i))
            x, y = raw[rows, i], raw[rows, best[rows]]
            differ = x != y
            at = differ.argmax(axis=1)
            pick = np.arange(rows.size)
            best[rows[differ[pick, at] & (x[pick, at] < y[pick, at])]] = i
        winner[tied] = best
    return winner, exhausted
