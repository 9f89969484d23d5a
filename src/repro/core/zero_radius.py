"""Algorithm Zero Radius — identical-preference communities (Fig. 2).

Handles ``D = 0``: at least ``αn`` players share *exactly* the same value
vector.  The recursion randomly halves both the player set and the object
set (public coins), solves each half recursively, and then lets each half
adopt the other half's objects by **voting**: any vector output by at
least an ``α/2`` fraction of the other half becomes a candidate, and each
player picks among candidates with ``Select`` at distance bound 0.
Theorem 3.1: all community members output the exact community vector
w.h.p., at ``O(log n / α)`` probes per player.

Generalisations used by the paper itself (Section 3.1):

* **abstract Probe** — probing goes through a *valued object space*; the
  primitive space probes the oracle directly, while
  :class:`SuperObjectSpace` treats a whole object group as one "object"
  whose value is the index of the best Coalesce candidate, found by an
  inner ``Select`` (this is how Large Radius step 4 reuses Zero Radius);
* **non-binary values** — candidate vectors are small-int vectors, not
  necessarily 0/1.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro import obs
from repro.billboard.oracle import ProbeOracle
from repro.core.batching import select_batched
from repro.core.params import Params
from repro.core.partition import random_halves
from repro.core.result import SelectOutcome
from repro.utils.rng import as_generator, spawn
from repro.utils.rowset import popular_rows

__all__ = ["ValueSpace", "PrimitiveSpace", "SuperObjectSpace", "zero_radius", "NO_OUTPUT"]

#: Fill value marking "this player did not participate / no output yet".
NO_OUTPUT = np.int16(-32768)


class ValueSpace(Protocol):
    """A probe-able space of valued objects (the abstract ``Probe`` of §3.1)."""

    @property
    def n_objects(self) -> int:
        """Number of (possibly virtual) objects."""
        ...

    def probe_block(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Every player probes every object: the base case of Fig. 2."""
        ...

    def select_batched(
        self, players: np.ndarray, candidates: np.ndarray, bound: int, local_coords: np.ndarray
    ) -> dict[int, SelectOutcome]:
        """One Select per player over shared *candidates*, probes batched."""
        ...


class PrimitiveSpace:
    """Valued object space over real objects, probing the oracle directly."""

    def __init__(self, oracle: ProbeOracle, objects: np.ndarray) -> None:
        self.oracle = oracle
        self.objects = np.asarray(objects, dtype=np.intp)
        if self.objects.ndim != 1 or self.objects.size == 0:
            raise ValueError("objects must be a non-empty 1-D index array")

    @property
    def n_objects(self) -> int:
        return int(self.objects.size)

    def probe_block(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Batch base-case probing: every player probes every object.

        One vectorized oracle call instead of a per-player loop; the cost
        model is identical (each (player, object) pair is one charged
        probe).  Returns a ``(len(players), len(objects))`` value matrix.
        """
        players = np.asarray(players, dtype=np.intp)
        objects = np.asarray(objects, dtype=np.intp)
        flat_players = np.repeat(players, objects.size)
        flat_objects = np.tile(self.objects[objects], players.size)
        values = self.oracle.probe_many(flat_players, flat_objects)
        return values.reshape(players.size, objects.size)

    def select_batched(
        self, players: np.ndarray, candidates: np.ndarray, bound: int, local_coords: np.ndarray
    ) -> dict[int, SelectOutcome]:
        """Population-batched Select (see :func:`repro.core.batching.select_batched`)."""
        coord_map = self.objects[np.asarray(local_coords, dtype=np.intp)]
        return select_batched(self.oracle, players, candidates, bound, coord_map)


class SuperObjectSpace:
    """Large Radius step 4's space: one "object" per object group.

    The value of super-object ``l`` for player ``p`` is the index of the
    candidate in ``B_l`` (the group's Coalesce output) closest to ``p``'s
    hidden vector on that group; a logical probe runs ``Select`` over the
    ``B_l`` candidates with the given distance bound, costing
    ``O(|B_l| · bound)`` primitive probes.
    """

    def __init__(
        self,
        oracle: ProbeOracle,
        groups: Sequence[np.ndarray],
        candidates: Sequence[np.ndarray],
        bound: int,
    ) -> None:
        if len(groups) != len(candidates) or not groups:
            raise ValueError("groups and candidates must be equal-length and non-empty")
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        self.oracle = oracle
        self.groups = [np.asarray(g, dtype=np.intp) for g in groups]
        self.candidates = [np.ascontiguousarray(c) for c in candidates]
        for l, (g, c) in enumerate(zip(self.groups, self.candidates)):
            if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] != g.size:
                raise ValueError(f"group {l}: candidates shape {c.shape} does not match {g.size} objects")
        self.bound = int(bound)

    @property
    def n_objects(self) -> int:
        return len(self.groups)

    def probe_block(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Batch base-case probing: every player resolves every super-object.

        For each super-object the inner Selects of all players run as one
        :func:`~repro.core.batching.select_batched` drive, so the number
        of Python-level oracle calls is per *batch step*, not per player.
        Each player's probe sequence is that of a scalar loop: it
        resolves the listed super-objects in order, and the inner Select
        probes each group's coordinates in its deterministic Fig. 3
        order.
        """
        players = np.asarray(players, dtype=np.intp)
        objects = np.asarray(objects, dtype=np.intp)
        out = np.empty((players.size, objects.size), dtype=np.int16)
        for col, l in enumerate(objects):
            outcomes = select_batched(
                self.oracle, players, self.candidates[int(l)], self.bound, self.groups[int(l)]
            )
            for row, pl in enumerate(players):
                out[row, col] = outcomes[int(pl)].index
        return out

    def select_batched(
        self, players: np.ndarray, candidates: np.ndarray, bound: int, local_coords: np.ndarray
    ) -> dict[int, SelectOutcome]:
        """Population-batched Select over super-object-valued candidates.

        The outer Fig. 3 coroutines yield super-object coordinates; each
        logical probe is an inner Select over that group's Coalesce
        candidates, and the inner Selects of all players pending on the
        same group run as one batched drive.
        """
        coord_map = np.asarray(local_coords, dtype=np.intp)
        return select_batched(players=players, candidates=candidates, bound=bound,
                              coord_to_object=coord_map, oracle=_SuperBatchProbe(self))


class _SuperBatchProbe:
    """``probe_many`` adapter over a :class:`SuperObjectSpace`.

    ``probe_many(players, super_objects)`` resolves each (player,
    super-object) pair by running the group's inner Select; players
    pending on the same group are batched together.  Grouping only
    reorders work *across* players — each player's own probe stream is
    untouched, preserving observation-equivalence with a scalar
    per-player Select.
    """

    def __init__(self, space: "SuperObjectSpace") -> None:
        self.space = space

    def probe_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        values = np.empty(players.size, dtype=np.int16)
        for l in np.unique(objects):
            mask = objects == l
            outcomes = select_batched(
                self.space.oracle,
                players[mask],
                self.space.candidates[int(l)],
                self.space.bound,
                self.space.groups[int(l)],
            )
            values[mask] = [outcomes[int(p)].index for p in players[mask]]
        return values


def _vote_candidates(rows: np.ndarray, min_votes: int) -> np.ndarray:
    """Unique rows supported by at least *min_votes* voters (see
    :func:`repro.utils.rowset.popular_rows` for the off-nominal
    plurality fallback and the vectorized dedup underneath)."""
    return popular_rows(np.ascontiguousarray(rows), min_votes)


def zero_radius(
    space: ValueSpace,
    players: np.ndarray,
    alpha: float,
    *,
    n_global: int,
    params: Params | None = None,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Run Algorithm Zero Radius (Fig. 2) for a set of players.

    Parameters
    ----------
    space:
        The valued object space to solve (primitive or super-object).
    players:
        Global indices of the participating players.
    alpha:
        Frequency parameter of the target community *within* the
        participating player set.
    n_global:
        Global population size ``n`` (sets the leaf threshold and the
        w.h.p. confidence; the paper's thresholds are in terms of the
        global ``n`` even for recursive sub-calls).
    params, rng:
        Constants and the public-coin generator.

    Returns
    -------
    numpy.ndarray
        ``(n_global, space.n_objects)`` int16 matrix; rows of
        non-participating players hold :data:`NO_OUTPUT`.
    """
    players = np.asarray(players, dtype=np.intp)
    if players.ndim != 1 or players.size == 0:
        raise ValueError("players must be a non-empty 1-D index array")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    p = params or Params.practical()
    # Derive a child stream rather than consuming the caller's raw seed:
    # a workload generator seeded with the same integer would otherwise
    # share its permutation sequence with our public coins, letting the
    # first halving step accidentally reproduce (and thus split along)
    # the planted-community permutation.
    gen = spawn(as_generator(rng))
    L = space.n_objects
    out = np.full((n_global, L), NO_OUTPUT, dtype=np.int16)
    threshold = p.zr_leaf_threshold(n_global, alpha)

    def recurse(P: np.ndarray, O: np.ndarray) -> None:
        # Step 1: base case — probe everything.
        if min(P.size, O.size) < threshold:
            obs.incr("zero_radius.leaves")
            out[np.ix_(P, O)] = space.probe_block(P, O)
            return
        # Step 2: public-coin halving of players and objects.
        obs.incr("zero_radius.halvings")
        P1, P2 = random_halves(P, gen)
        O1, O2 = random_halves(O, gen)
        # Step 3: both halves recurse on their own objects.
        recurse(P1, O1)
        recurse(P2, O2)
        # Step 4: each half adopts the other half's objects by voting +
        # Select at distance bound 0.
        for adopters, voters, voted_objs in ((P1, P2, O2), (P2, P1, O1)):
            votes = out[np.ix_(voters, voted_objs)]
            min_votes = p.zr_vote_threshold(alpha, voters.size)
            candidates = _vote_candidates(votes, min_votes)
            obs.incr("zero_radius.vote_candidates", int(candidates.shape[0]))
            if candidates.shape[0] == 1:
                # A single candidate needs no probes (X(V) is empty).
                out[np.ix_(adopters, voted_objs)] = candidates[0]
                continue
            # Population-batched Select: identical per-player probe
            # sequences and outcomes, one probe_many call per step.
            outcomes = space.select_batched(adopters, candidates, 0, voted_objs)
            for player, outcome in outcomes.items():
                out[player, voted_objs] = outcome.vector

    with obs.span(
        "zero_radius",
        oracle=getattr(space, "oracle", None),
        players=int(players.size),
        objects=int(L),
    ):
        recurse(np.sort(players), np.arange(L, dtype=np.intp))
    return out
