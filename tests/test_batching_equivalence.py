"""Observation-equivalence of the batched probe drivers.

The contract the drivers rest on: population-batching probes through
``ProbeOracle.probe_many`` is a *scheduling* change, not an algorithmic
one.  Within a lockstep round every player's probes are independent, so
batching may interleave players differently but must preserve, exactly,

* each player's outputs,
* each player's charged-probe count, and
* each player's own probe sequence (the objects it probed, in order).

The per-player sequential loops the drivers replaced are no longer in
the library.  Two referees stand in for them:

* golden digests — outputs and counts captured from the pre-batching
  seed code (:data:`GOLDEN`), and every player's probe sequence
  (:data:`SEQUENCE_GOLDEN`), captured where the dense, packed,
  sequential and batched paths all still existed and all agreed;
* test-local loops of the scalar :func:`~repro.core.select.select` /
  :func:`~repro.core.rselect.rselect` (the paper's Fig. 3 and Fig. 7),
  one call per player, checked against
  :func:`~repro.core.batching.select_batched` /
  :func:`~repro.core.batching.rselect_batched`.
"""

import hashlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.billboard.oracle import ProbeOracle
from repro.billboard.trace import ProbeTrace
from repro.core import batching
from repro.core.batching import rselect_batched, select_batched
from repro.core.main import find_preferences, find_preferences_unknown_d
from repro.core.params import Params
from repro.core.rselect import rselect
from repro.core.select import select
from repro.core.zero_radius import SuperObjectSpace
from repro.metrics.bitpack import lut_popcount
from repro.utils.rng import spawn_many
from repro.utils.validation import WILDCARD
from repro.workloads.planted import planted_instance

N = M = 128
ALPHA = 0.5
INSTANCE_SEED = 13
ALGO_SEED = 17

#: sha256(outputs || per-player counts) and total probes, captured from
#: the pre-batching seed code (commit b213d42) — duplicated from
#: tests/test_obs.py on purpose: this file guards batching, that one
#: guards telemetry, and either regression should fail its own guard.
GOLDEN = {
    "zero_radius": ("9d2b88ed3cc23bca", 2048),
    "small_radius": ("c7ca0a9af69f160b", 65536),
    "large_radius": ("54bc2871ce5b84ea", 14112),
    "unknown_d": ("23dbf4633d0f463f", 166391),
}

#: :func:`sequence_digest` of every player's probe sequence, captured at
#: commit c4fa960 — the last one with the dense storage and the
#: sequential drivers, where all four combinations (dense/packed ×
#: sequential/batched), under both popcount engines, gave these values.
SEQUENCE_GOLDEN = {
    "zero_radius": "0d8b3b78f7cc4002",
    "small_radius": "043277fe9ff96618",
    "large_radius": "0425a91aeceda10a",
    "unknown_d": "52b63c2ad6058596",
}

_CONFIGS = {
    "zero_radius": (0, False),
    "small_radius": (2, False),
    "large_radius": (40, False),
    "unknown_d": (2, True),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def sequence_digest(trace: ProbeTrace, n_players: int) -> str:
    """sha256 over each player's probe sequence, length-prefixed, in player order."""
    h = hashlib.sha256()
    for player in range(n_players):
        seq = np.ascontiguousarray(trace.player_sequence(player), dtype=np.int64)
        h.update(np.int64(seq.size).tobytes())
        h.update(seq.tobytes())
    return h.hexdigest()[:16]


def _run_config(label: str):
    D, unknown = _CONFIGS[label]
    inst = planted_instance(N, M, ALPHA, D, rng=INSTANCE_SEED)
    oracle = ProbeOracle(inst)
    trace = ProbeTrace()
    oracle.attach_trace(trace)
    if unknown:
        result = find_preferences_unknown_d(oracle, ALPHA, rng=ALGO_SEED, d_max=4)
    else:
        result = find_preferences(oracle, ALPHA, D, rng=ALGO_SEED)
    return result, oracle, trace


def _assert_golden(label, result, oracle) -> None:
    digest, total = GOLDEN[label]
    assert oracle.stats().total == total
    assert _digest(result.outputs, oracle.stats().per_player) == digest


class TestBatchedMatchesSequential:
    """The batched drivers reproduce the sequential seed, player by player."""

    @pytest.mark.parametrize("label", sorted(_CONFIGS))
    def test_outputs_counts_and_per_player_sequences(self, label):
        result, oracle, trace = _run_config(label)
        _assert_golden(label, result, oracle)
        # Strongest per-player invariant: the exact object sequence each
        # player probed.  Batching interleaves players differently from
        # the sequential loops (the traces as wholes differ) but never
        # reorders, adds, or drops any single player's probes.
        assert sequence_digest(trace, N) == SEQUENCE_GOLDEN[label]
        assert np.array_equal(trace.charged_counts(N), oracle.stats().per_player)

    @pytest.mark.parametrize("mode", ["native_popcount", "lut_popcount"])
    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_both_modes_match_seed_golden(self, label, mode):
        # Both popcount engines: np.bitwise_count where NumPy has it, and
        # the 16-bit LUT every NumPy < 2.0 build uses.
        if mode == "lut_popcount":
            with lut_popcount():
                result, oracle, trace = _run_config(label)
        else:
            result, oracle, trace = _run_config(label)
        _assert_golden(label, result, oracle)
        assert sequence_digest(trace, N) == SEQUENCE_GOLDEN[label]


def _traced_oracle(prefs: np.ndarray) -> tuple[ProbeOracle, ProbeTrace]:
    oracle = ProbeOracle(prefs)
    trace = ProbeTrace()
    oracle.attach_trace(trace)
    return oracle, trace


def _near_rows(prefs: np.ndarray, k: int, flips: int, rng: np.random.Generator) -> np.ndarray:
    """*k* candidates, each a row of *prefs* with *flips* bits flipped."""
    rows = prefs[rng.integers(0, prefs.shape[0], k)].copy()
    for row in rows:
        row[rng.choice(prefs.shape[1], flips, replace=False)] ^= 1
    return rows


def _assert_same_per_player(players, outcomes, ref_outcomes, trace, ref_trace, oracle, ref_oracle):
    for pl in players:
        pl = int(pl)
        got, ref = outcomes[pl], ref_outcomes[pl]
        assert got.index == ref.index
        assert np.array_equal(got.vector, ref.vector)
        assert got.probes == ref.probes
        assert got.exhausted == ref.exhausted
        assert np.array_equal(trace.player_sequence(pl), ref_trace.player_sequence(pl))
    assert np.array_equal(oracle.stats().per_player, ref_oracle.stats().per_player)
    assert ref_oracle.stats().total > 0  # the inputs really made players probe


class TestDriversMatchScalarLoops:
    """``select_batched`` / ``rselect_batched`` against one scalar call per player."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("per_player", [False, True], ids=["shared", "per_player"])
    def test_select_batched_matches_select_loop(self, seed, per_player):
        rng = np.random.default_rng(seed)
        n, m, bound = 24, 40, 3
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        coord_to_object = rng.permutation(m)[:32]
        local = prefs[:, coord_to_object]
        players = np.sort(rng.choice(n, 17, replace=False))
        if per_player:
            candidates = {int(pl): _near_rows(local, 2 + int(pl) % 3, 2, rng) for pl in players}
        else:
            candidates = _near_rows(local, 5, 2, rng)

        oracle, trace = _traced_oracle(prefs)
        outcomes = select_batched(oracle, players, candidates, bound, coord_to_object)

        ref_oracle, ref_trace = _traced_oracle(prefs)
        ref_outcomes = {}
        for pl in players:
            cand = candidates[int(pl)] if per_player else candidates
            ref_outcomes[int(pl)] = select(
                cand,
                lambda j, _p=int(pl): ref_oracle.probe(_p, int(coord_to_object[j])),
                bound,
            )
        _assert_same_per_player(
            players, outcomes, ref_outcomes, trace, ref_trace, oracle, ref_oracle
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("per_player", [False, True], ids=["shared", "per_player"])
    def test_rselect_batched_matches_rselect_loop(self, seed, per_player):
        rng = np.random.default_rng(100 + seed)
        n, m = 20, 48
        params = Params.practical()
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        players = np.sort(rng.choice(n, 13, replace=False))
        if per_player:
            candidates = {int(pl): _near_rows(prefs, 2 + int(pl) % 3, 5, rng) for pl in players}
        else:
            candidates = _near_rows(prefs, 4, 5, rng)

        oracle, trace = _traced_oracle(prefs)
        rngs = spawn_many(np.random.default_rng(seed), players.size)
        outcomes = rselect_batched(oracle, players, candidates, n, params=params, rngs=rngs)

        ref_oracle, ref_trace = _traced_oracle(prefs)
        ref_rngs = spawn_many(np.random.default_rng(seed), players.size)
        ref_outcomes = {}
        for pos, pl in enumerate(players):
            cand = candidates[int(pl)] if per_player else candidates
            ref_outcomes[int(pl)] = rselect(
                cand,
                lambda j, _p=int(pl): ref_oracle.probe(_p, j),
                n,
                params=params,
                rng=ref_rngs[pos],
            )
        _assert_same_per_player(
            players, outcomes, ref_outcomes, trace, ref_trace, oracle, ref_oracle
        )


def _with_wildcards(rows: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    """*rows* with about *share* of their entries replaced by "?"."""
    out = rows.astype(np.int8)
    out[rng.random(out.shape) < share] = WILDCARD
    return out


class TestDecisionTreeDriver:
    """The driver shares one Select per decision-tree node; these pin
    what that sharing must not change, and the sharing itself."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bound", [1, 2])
    def test_wildcard_candidates_match_select_loop(self, seed, bound):
        rng = np.random.default_rng(300 + seed)
        n, m = 48, 40
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        players = rng.permutation(n)[:40]
        candidates = _with_wildcards(_near_rows(prefs, 6, 4, rng), 0.2, rng)
        coord_to_object = np.arange(m)

        oracle, trace = _traced_oracle(prefs)
        outcomes = select_batched(oracle, players, candidates, bound, coord_to_object)

        ref_oracle, ref_trace = _traced_oracle(prefs)
        ref_outcomes = {
            int(pl): select(candidates, lambda j, _p=int(pl): ref_oracle.probe(_p, j), bound)
            for pl in players
        }
        _assert_same_per_player(
            players, outcomes, ref_outcomes, trace, ref_trace, oracle, ref_oracle
        )
        # Every live player probes in every wavefront: one per depth.
        assert oracle.batch_count == max(o.probes for o in outcomes.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bound", [1, 2])
    def test_super_object_grades_match_select_loop(self, seed, bound):
        # Super-object grades are inner-Select indices, so a node splits
        # into more than two branches.
        rng = np.random.default_rng(400 + seed)
        n, n_groups, width = 36, 6, 8
        prefs = rng.integers(0, 2, (n, n_groups * width), dtype=np.int8)
        groups = [np.arange(l * width, (l + 1) * width) for l in range(n_groups)]
        inner = [_with_wildcards(_near_rows(prefs[:, g], 4, 1, rng), 0.1, rng) for g in groups]
        players = rng.permutation(n)[:30]
        outer = rng.integers(0, 4, (5, n_groups)).astype(np.int8)
        outer[rng.random(outer.shape) < 0.15] = WILDCARD

        oracle, trace = _traced_oracle(prefs)
        space = SuperObjectSpace(oracle, groups, inner, 1)
        outcomes = space.select_batched(players, outer, bound, np.arange(n_groups))

        ref_oracle, ref_trace = _traced_oracle(prefs)
        grades = set()

        def super_probe(player: int, l: int) -> int:
            index = select(
                inner[l], lambda j: ref_oracle.probe(player, int(groups[l][j])), 1
            ).index
            grades.add(index)
            return index

        ref_outcomes = {
            int(pl): select(outer, lambda l, _p=int(pl): super_probe(_p, l), bound)
            for pl in players
        }
        assert len(grades) > 2
        _assert_same_per_player(
            players, outcomes, ref_outcomes, trace, ref_trace, oracle, ref_oracle
        )

    def test_outcome_vectors_are_not_shared(self):
        rng = np.random.default_rng(5)
        prefs = np.tile(rng.integers(0, 2, (1, 24), dtype=np.int8), (8, 1))
        candidates = _near_rows(prefs, 3, 2, rng)
        for shared in (candidates, {pl: candidates.copy() for pl in range(8)}):
            outcomes = select_batched(ProbeOracle(prefs), np.arange(8), shared, 2, np.arange(24))
            before = {pl: o.vector.copy() for pl, o in outcomes.items()}
            outcomes[0].vector[:] = 7
            for pl in range(1, 8):
                assert np.array_equal(outcomes[pl].vector, before[pl])

    @pytest.mark.parametrize("per_player", [False, True], ids=["shared", "per_player"])
    def test_duplicate_players_select_once(self, per_player):
        rng = np.random.default_rng(6)
        prefs = rng.integers(0, 2, (6, 24), dtype=np.int8)
        candidates = _near_rows(prefs, 4, 3, rng)
        players = np.asarray([3, 1, 3, 2, 1, 3])
        cands = {pl: candidates for pl in (1, 2, 3)} if per_player else candidates
        oracle = ProbeOracle(prefs)
        wavefronts = []

        def probe_many(batch_players, objects):
            wavefronts.append(batch_players.tolist())
            return oracle.probe_many(batch_players, objects)

        recording = SimpleNamespace(probe_many=probe_many)
        outcomes = select_batched(recording, players, cands, 1, np.arange(24))

        assert sorted(outcomes) == [1, 2, 3]
        assert wavefronts and all(len(w) == len(set(w)) for w in wavefronts)
        assert all(w == [pl for pl in (3, 1, 2) if pl in w] for w in wavefronts)
        ref_oracle = ProbeOracle(prefs)
        for pl in (3, 1, 2):
            ref = select(candidates, lambda j, _p=pl: ref_oracle.probe(_p, j), 1)
            assert outcomes[pl].index == ref.index
            assert outcomes[pl].probes == ref.probes
        assert np.array_equal(oracle.stats().per_player, ref_oracle.stats().per_player)

    def test_one_coroutine_per_answer_path(self, monkeypatch):
        # The contract the speedup rests on: players who have seen the
        # same grades share one Select, so a shared-candidate call makes
        # about one coroutine per leaf of the decision tree, not one per
        # player.
        rng = np.random.default_rng(7)
        n, m = 256, 32
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        candidates = _near_rows(prefs, 4, 3, rng)
        made = []
        original = batching.select_coroutine

        def counting(*args, **kwargs):
            made.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(batching, "select_coroutine", counting)
        oracle, trace = _traced_oracle(prefs)
        select_batched(oracle, np.arange(n), candidates, 1, np.arange(m))

        paths = {
            tuple(prefs[pl, trace.player_sequence(pl)].tolist()) for pl in range(n)
        }
        assert len(made) <= len(paths) + 1
        assert len(made) < n // 4


class TestToggleScoping:
    """The retired ``sequential_probes`` / ``batched_probes`` toggles are
    deprecated no-ops on ``repro.api``: they warn, scope nothing, and
    leave every bit of a run unchanged."""

    def test_sequential_probes_restores_on_exception(self):
        with pytest.deprecated_call(match="sequential_probes is deprecated"):
            toggle = api.sequential_probes
        with pytest.raises(RuntimeError):
            with toggle():
                raise RuntimeError("boom")
        with pytest.deprecated_call(match="batching_enabled is deprecated"):
            assert api.batching_enabled()
        result, oracle, _ = _run_config("zero_radius")
        _assert_golden("zero_radius", result, oracle)

    def test_toggle_nests(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with api.sequential_probes():
                with api.batched_probes():
                    inner, inner_oracle, inner_trace = _run_config("zero_radius")
                outer, outer_oracle, outer_trace = _run_config("zero_radius")
        for result, oracle, trace in (
            (inner, inner_oracle, inner_trace),
            (outer, outer_oracle, outer_trace),
        ):
            _assert_golden("zero_radius", result, oracle)
            assert sequence_digest(trace, N) == SEQUENCE_GOLDEN["zero_radius"]
