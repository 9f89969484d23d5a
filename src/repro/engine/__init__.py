"""A literal round-synchronous execution engine.

The library's main implementations simulate the player population
*globally* (vectorized over players — fast, and information-flow
faithful).  This package provides the complementary artifact: the
paper's execution model taken literally.

* every player is an independent coroutine
  (:mod:`~repro.engine.actions` defines its action vocabulary: probe
  one object or a run of them, post a vector, wait a round);
* a :class:`~repro.engine.scheduler.RoundScheduler` advances all players
  in lockstep — per round each player performs at most one probe,
  exactly Definition 1.1's "in each round, each player reads the shared
  billboard, probes one object, and writes the result", and the round's
  probes go to the oracle as one ``probe_many`` wavefront;
* :func:`~repro.engine.stepper.advance` is the one interpreter of the
  action vocabulary — the scheduler and the serving router
  (:mod:`repro.serve`) both step programs through it;
* public coins (:mod:`~repro.engine.coins`) are a pre-drawn halving
  tree every player derives identically from the shared seed.

:mod:`~repro.engine.zero_radius_player` implements Algorithm Zero Radius
as a *player-local* program; the test suite cross-validates it **bitwise**
against the global implementation — same coins, same candidates, same
Select decisions, same outputs — which is the strongest evidence that
the fast global simulation respects the distributed model.
"""

from repro.engine.actions import Post, Probe, ProbeEach, Wait
from repro.engine.coins import HalvingNode, PublicCoins
from repro.engine.scheduler import EngineResult, RoundScheduler
from repro.engine.zero_radius_player import run_zero_radius_engine, zero_radius_player
from repro.engine.small_radius_player import (
    SmallRadiusCoins,
    run_small_radius_engine,
    small_radius_player,
)
from repro.engine.large_radius_player import (
    LargeRadiusCoins,
    large_radius_player,
    run_large_radius_engine,
)
from repro.engine.main_player import (
    MainCoins,
    UnknownDCoins,
    find_preferences_player,
    find_preferences_unknown_d_player,
    run_find_preferences_engine,
    run_find_preferences_unknown_d_engine,
)

__all__ = [
    "MainCoins",
    "UnknownDCoins",
    "find_preferences_player",
    "find_preferences_unknown_d_player",
    "run_find_preferences_engine",
    "run_find_preferences_unknown_d_engine",
    "LargeRadiusCoins",
    "large_radius_player",
    "run_large_radius_engine",
    "SmallRadiusCoins",
    "small_radius_player",
    "run_small_radius_engine",
    "Probe",
    "ProbeEach",
    "Post",
    "Wait",
    "PublicCoins",
    "HalvingNode",
    "RoundScheduler",
    "EngineResult",
    "zero_radius_player",
    "run_zero_radius_engine",
]
