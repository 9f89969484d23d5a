"""The paper's algorithm tower.

Bottom to top (each layer uses the ones below):

* :mod:`~repro.core.select` — deterministic Choose-Closest with a known
  distance bound (Fig. 3 / Theorem 3.2).
* :mod:`~repro.core.rselect` — randomized Choose-Closest without a bound
  (Fig. 7 / Theorem 6.1).
* :mod:`~repro.core.partition` — the public-coin random partitions and the
  Lemma 4.1 success predicate.
* :mod:`~repro.core.coalesce` — probe-free clustering of posted vectors
  (Fig. 6 / Theorem 5.3).
* :mod:`~repro.core.zero_radius` — identical-preference communities
  (Fig. 2 / Theorem 3.1), generalized to abstract valued object spaces so
  Large Radius can reuse it over "super-objects".
* :mod:`~repro.core.small_radius` — ``D = O(log n)`` communities
  (Fig. 4 / Theorem 4.4, Lemma 4.1).
* :mod:`~repro.core.large_radius` — arbitrary ``D`` (Fig. 5 / Thm 5.4).
* :mod:`~repro.core.main` — the Fig. 1 dispatcher, the unknown-``D``
  doubling wrapper, and the anytime unknown-``α`` loop (Section 6),
  together delivering Theorem 1.1.

All constants are exposed on :class:`~repro.core.params.Params`, with a
``paper()`` preset (literal constants) and a ``practical()`` preset
(same functional forms, laptop-scale leading constants).
"""

from repro.core.params import Params
from repro.core.result import META_KEYS, RunResult, SelectOutcome, validate_meta
from repro.core.select import select, select_candidate_index, select_coroutine
from repro.core.rselect import rselect
from repro.core.partition import (
    is_partition_successful,
    partition_players,
    random_partition,
    partition_parts,
)
from repro.core.coalesce import coalesce
from repro.core.zero_radius import PrimitiveSpace, SuperObjectSpace, zero_radius
from repro.core.small_radius import small_radius
from repro.core.large_radius import large_radius
from repro.core.main import find_preferences, find_preferences_unknown_d, anytime_find_preferences
from repro.core.virtual import find_preferences_virtual, virtual_factor
from repro.core.estimators import alpha_for_budget, budget_for_alpha, empirical_d_of_alpha

__all__ = [
    "find_preferences_virtual",
    "virtual_factor",
    "alpha_for_budget",
    "budget_for_alpha",
    "empirical_d_of_alpha",
    "Params",
    "RunResult",
    "SelectOutcome",
    "META_KEYS",
    "validate_meta",
    "select",
    "select_candidate_index",
    "select_coroutine",
    "rselect",
    "random_partition",
    "partition_parts",
    "partition_players",
    "is_partition_successful",
    "coalesce",
    "zero_radius",
    "PrimitiveSpace",
    "SuperObjectSpace",
    "small_radius",
    "large_radius",
    "find_preferences",
    "find_preferences_unknown_d",
    "anytime_find_preferences",
]
