"""Observation-equivalence of the batched probe drivers.

The contract the drivers rest on: population-batching probes through
``ProbeOracle.probe_many`` is a *scheduling* change, not an algorithmic
one.  Within a lockstep round every player's probes are independent, so
batching may interleave players differently but must preserve, exactly,

* each player's outputs,
* each player's charged-probe count, and
* each player's own probe sequence (the objects it probed, in order).

The per-player sequential loops the drivers replaced are no longer in
the library.  Three referees stand in for them:

* golden digests — outputs and counts captured from the pre-batching
  seed code (:data:`GOLDEN`), and every player's probe sequence
  (:data:`SEQUENCE_GOLDEN`), captured where the dense, packed,
  sequential and batched paths all still existed and all agreed;
* test-local loops of the scalar :func:`~repro.core.select.select` /
  :func:`~repro.core.rselect.rselect` (the paper's Fig. 3 and Fig. 7),
  one call per player, checked against
  :func:`~repro.core.batching.select_batched` /
  :func:`~repro.core.batching.rselect_batched`;
* for RSelect's wavefronts, a test-local lockstep driver of
  :func:`~repro.core.rselect.rselect_coroutine` (one ``probe_many`` per
  step, every live player's pending coordinate), and
  :data:`WAVEFRONT_GOLDEN`, every wavefront of a small anytime run.
"""

import hashlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.billboard.exceptions import BudgetExceededError
from repro.billboard.oracle import ProbeOracle
from repro.billboard.trace import ProbeTrace
from repro.core import batching
from repro.core.batching import rselect_batched, select_batched
from repro.core.main import anytime_find_preferences, find_preferences, find_preferences_unknown_d
from repro.core.params import Params
from repro.core.rselect import rselect, rselect_coroutine
from repro.core.select import select
from repro.core.zero_radius import SuperObjectSpace
from repro.metrics.bitpack import lut_popcount
from repro.utils.rng import spawn_many, spawn_seeds
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

#: Every ``probe_many`` wavefront of a small anytime run, in call
#: order: (count, :meth:`WavefrontRecorder.wavefront_digest`, sha256 of
#: outputs and per-player counts, total probes), captured at commit
#: 05a84d8, where ``rselect_batched`` still drove one Fig. 7 coroutine
#: per player.  The array driver must send the same calls, players and
#: objects.
WAVEFRONT_GOLDEN = (1649, "1ab68d2fa6702539", "0483818517e2614c", 220631)

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


class WavefrontRecorder(ProbeOracle):
    """A :class:`ProbeOracle` that hashes every wavefront it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.wavefronts = 0
        self._hash = hashlib.sha256()

    def probe_many(self, players, objects):
        who = np.ascontiguousarray(players, dtype=np.int64)
        what = np.ascontiguousarray(objects, dtype=np.int64)
        self._hash.update(np.int64(who.size).tobytes())
        self._hash.update(who.tobytes())
        self._hash.update(what.tobytes())
        self.wavefronts += 1
        return super().probe_many(players, objects)

    def wavefront_digest(self) -> str:
        return self._hash.hexdigest()[:16]


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


class TestWavefrontGolden:
    def test_anytime_wavefronts_match_golden(self):
        inst = planted_instance(64, 64, 0.25, 3, n_communities=4, rng=5)
        oracle = WavefrontRecorder(inst)
        result = anytime_find_preferences(oracle, rng=6, max_phases=3, d_max=8)
        count, waves, outcome, total = WAVEFRONT_GOLDEN
        assert oracle.wavefronts == count
        assert oracle.wavefront_digest() == waves
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(result.outputs).tobytes())
        h.update(oracle.stats().per_player.tobytes())
        assert h.hexdigest()[:16] == outcome
        assert oracle.stats().total == total


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


class _Recording:
    """Forwards ``probe_many`` to *oracle*, noting each wavefront."""

    def __init__(self, oracle: ProbeOracle) -> None:
        self.oracle = oracle
        self.wavefronts: list[tuple[list[int], list[int]]] = []

    def probe_many(self, players, objects):
        self.wavefronts.append((np.asarray(players).tolist(), np.asarray(objects).tolist()))
        return self.oracle.probe_many(players, objects)


def _lockstep_rselect(probe_many, players, candidates, n, *, params=None, rngs=None, coord_to_object=None):
    """Fig. 7 players in lockstep: one :func:`rselect_coroutine` per
    distinct player (its first position, its last rng), and each step
    one ``probe_many`` with every live player's pending coordinate, in
    player order."""
    setups = {}
    for pos, pl in enumerate(np.asarray(players).tolist()):
        cand = candidates[pl] if isinstance(candidates, dict) else candidates
        rng = None if rngs is None else rngs[pl] if isinstance(rngs, dict) else rngs[pos]
        setups[pl] = (cand, rng)
    programs = {
        pl: rselect_coroutine(cand, n, params=params, rng=rng) for pl, (cand, rng) in setups.items()
    }
    outcomes, pending = {}, {}
    for pl, program in programs.items():
        try:
            pending[pl] = next(program)
        except StopIteration as stop:
            outcomes[pl] = stop.value
    while pending:
        who = np.fromiter(pending, dtype=np.intp, count=len(pending))
        coords = np.fromiter(pending.values(), dtype=np.intp, count=len(pending))
        objects = coords if coord_to_object is None else np.asarray(coord_to_object)[coords]
        grades = np.asarray(probe_many(who, objects)).tolist()
        pending = {}
        for pl, grade in zip(who.tolist(), grades):
            try:
                pending[pl] = programs[pl].send(int(grade))
            except StopIteration as stop:
                outcomes[pl] = stop.value
    return outcomes


def _assert_rselect_matches_lockstep(
    prefs, players, candidates, n, *, rngs, coord_to_object=None, params=None, budget=None
):
    """``rselect_batched`` against :func:`_lockstep_rselect`: the same
    wavefronts (players and objects), outcomes and charges.  *rngs*
    makes a fresh set of per-player rngs for each side."""
    got = _Recording(ProbeOracle(prefs, budget=budget))
    ref = _Recording(ProbeOracle(prefs, budget=budget))
    kwargs = dict(params=params, coord_to_object=coord_to_object)
    outcomes = rselect_batched(got, players, candidates, n, rngs=rngs(), **kwargs)
    ref_outcomes = _lockstep_rselect(ref.probe_many, players, candidates, n, rngs=rngs(), **kwargs)
    assert got.wavefronts == ref.wavefronts
    assert list(outcomes) == list(dict.fromkeys(np.asarray(players).tolist()))
    assert outcomes.keys() == ref_outcomes.keys()
    for pl, ref_outcome in ref_outcomes.items():
        outcome = outcomes[pl]
        assert (outcome.index, outcome.probes, outcome.exhausted) == (
            ref_outcome.index,
            ref_outcome.probes,
            ref_outcome.exhausted,
        )
        assert outcome.vector.dtype == ref_outcome.vector.dtype
        assert np.array_equal(outcome.vector, ref_outcome.vector)
    assert np.array_equal(got.oracle.stats().per_player, ref.oracle.stats().per_player)
    return outcomes, got.wavefronts


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


    @staticmethod
    def _gens(seed, count):
        return lambda: spawn_many(np.random.default_rng(seed), count)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("per_player", [False, True], ids=["shared", "per_player"])
    def test_rselect_wildcard_candidates(self, seed, per_player):
        rng = np.random.default_rng(500 + seed)
        n, m = 20, 48
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        players = rng.permutation(n)[:15]
        if per_player:
            candidates = {
                int(pl): _with_wildcards(_near_rows(prefs, 3 + int(pl) % 3, 6, rng), 0.25, rng)
                for pl in players
            }
        else:
            candidates = _with_wildcards(_near_rows(prefs, 5, 6, rng), 0.25, rng)
        _assert_rselect_matches_lockstep(
            prefs, players, candidates, n, rngs=self._gens(seed, players.size)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rselect_coord_to_object(self, seed):
        rng = np.random.default_rng(600 + seed)
        n, m = 16, 64
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        coord_to_object = rng.permutation(m)[:40]
        players = np.arange(n)
        candidates = {int(pl): _near_rows(prefs[:, coord_to_object], 4, 7, rng) for pl in players}
        _, wavefronts = _assert_rselect_matches_lockstep(
            prefs, players, candidates, n,
            rngs=self._gens(seed, n), coord_to_object=coord_to_object,
        )
        probed = {obj for _, objects in wavefronts for obj in objects}
        assert probed <= set(coord_to_object.tolist())
        assert not probed <= set(range(40))  # objects, not coordinates

    @pytest.mark.parametrize("per_player", [False, True], ids=["shared", "per_player"])
    def test_rselect_duplicate_player_ids(self, per_player):
        rng = np.random.default_rng(7)
        prefs = rng.integers(0, 2, (6, 40), dtype=np.int8)
        candidates = _near_rows(prefs, 4, 8, rng)
        players = np.asarray([3, 1, 3, 2, 1, 3])
        cands = {pl: candidates for pl in (1, 2, 3)} if per_player else candidates
        outcomes, wavefronts = _assert_rselect_matches_lockstep(
            prefs, players, cands, 6, rngs=self._gens(8, players.size)
        )
        assert list(outcomes) == [3, 1, 2]
        assert wavefronts and all(who == [pl for pl in (3, 1, 2) if pl in who] for who, _ in wavefronts)

    def test_rselect_identical_candidates_play_no_match(self):
        rng = np.random.default_rng(9)
        prefs = rng.integers(0, 2, (8, 32), dtype=np.int8)
        row = prefs[0].copy()
        other = row.copy()
        other[:5] ^= 1
        candidates = {
            0: np.stack([row, row, row]),  # no match at all
            1: np.stack([other, row, other]),  # only the two mixed pairs play
            2: np.stack([row, row]),
        }
        recording = _Recording(ProbeOracle(prefs))
        quiet = rselect_batched(recording, np.asarray([0, 2]), candidates, 8, rngs=[1, 2])
        assert recording.wavefronts == []
        for outcome in quiet.values():
            assert (outcome.index, outcome.probes, outcome.exhausted) == (0, 0, False)
        outcomes, _ = _assert_rselect_matches_lockstep(
            prefs, np.arange(3), candidates, 8, rngs=self._gens(3, 3)
        )
        assert outcomes[1].probes == 5

    def test_rselect_single_candidate(self):
        rng = np.random.default_rng(10)
        prefs = rng.integers(0, 2, (5, 24), dtype=np.int8)
        candidates = _near_rows(prefs, 1, 3, rng)
        recording = _Recording(ProbeOracle(prefs))
        outcomes = rselect_batched(recording, np.arange(5), candidates, 5, rngs=None)
        assert recording.wavefronts == []
        for outcome in outcomes.values():
            assert (outcome.index, outcome.probes, outcome.exhausted) == (0, 0, False)
            assert np.array_equal(outcome.vector, candidates[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rselect_mixed_k_and_dtypes(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, m = 24, 40
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        players = rng.permutation(n)
        candidates = {}
        for i, pl in enumerate(players.tolist()):
            cand = _near_rows(prefs, (1, 2, 3, 6)[i % 4], 1 + i % 9, rng)
            candidates[pl] = cand.astype(np.int16) if i % 5 == 0 else cand
        _assert_rselect_matches_lockstep(
            prefs, players, candidates, n, rngs=self._gens(seed, n)
        )

    def test_rselect_ties_break_on_candidate_bytes(self):
        # Two undefeated candidates (their pair never plays: the probed
        # player's grades split evenly), so the lexicographically first
        # row wins, wildcards ("?" = -1, byte 0xFF) sorting last.
        prefs = np.zeros((2, 4), dtype=np.int8)
        candidates = {
            0: np.asarray([[1, -1, 0, 0], [1, 0, -1, 0]], dtype=np.int8),
            1: np.asarray([[0, 0, 0, 1], [0, 0, 0, 1]], dtype=np.int16),
        }
        outcomes, _ = _assert_rselect_matches_lockstep(
            prefs, np.arange(2), candidates, 2, rngs=self._gens(0, 2)
        )
        assert outcomes[0].index == 1 and outcomes[0].probes == 0
        assert outcomes[1].index == 0

    def test_rselect_budgeted_oracle_stops_on_the_same_wavefront(self):
        rng = np.random.default_rng(11)
        n, m = 20, 48
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        candidates = {pl: _near_rows(prefs, 2 + pl % 4, 6, rng) for pl in range(n)}
        rngs = self._gens(12, n)
        free = rselect_batched(ProbeOracle(prefs), np.arange(n), candidates, n, rngs=rngs())
        budget = sorted(o.probes for o in free.values())[n // 2]
        sides = []
        for driver in ("array", "lockstep"):
            recording = _Recording(ProbeOracle(prefs, budget=budget))
            with pytest.raises(BudgetExceededError) as exc:
                if driver == "array":
                    rselect_batched(recording, np.arange(n), candidates, n, rngs=rngs())
                else:
                    _lockstep_rselect(recording.probe_many, np.arange(n), candidates, n, rngs=rngs())
            sides.append((exc.value.player, recording.wavefronts, recording.oracle.stats().per_player))
        (player, waves, counts), (ref_player, ref_waves, ref_counts) = sides
        assert player == ref_player
        assert waves == ref_waves
        assert np.array_equal(counts, ref_counts)
        assert 0 < len(waves) < max(o.probes for o in free.values())

    def test_rselect_seeds_match_generators(self):
        rng = np.random.default_rng(13)
        n, m = 20, 48
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        candidates = {pl: _near_rows(prefs, 4, 6, rng) for pl in range(n)}
        runs = []
        for make in (spawn_seeds, spawn_many):
            recording = _Recording(ProbeOracle(prefs))
            outcomes = rselect_batched(
                recording, np.arange(n), candidates, n, rngs=make(np.random.default_rng(14), n)
            )
            runs.append(([(o.index, o.probes) for o in outcomes.values()], recording.wavefronts))
        assert runs[0] == runs[1]

    def test_rselect_builds_a_generator_only_for_players_that_draw(self):
        # Budget ceil(2 log2 16) = 8.  Rows one flip off the same row
        # differ on at most 2 coordinates; rows 5 flips off random rows
        # differ on about half of them.
        rng = np.random.default_rng(15)
        n, m = 16, 48
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        close = {pl: _near_rows(prefs[[pl]], 3, 1, rng) for pl in range(0, n, 2)}
        far = {pl: _near_rows(prefs, 4, 5, rng) for pl in range(1, n, 2)}
        seeds = dict.fromkeys(close, object())  # as_generator would raise on these
        seeds.update(zip(far, spawn_seeds(np.random.default_rng(16), len(far))))
        outcomes = rselect_batched(ProbeOracle(prefs), np.arange(n), {**close, **far}, n, rngs=seeds)
        assert all(0 < outcomes[pl].probes <= 6 for pl in close)
        unusable = dict.fromkeys(range(n), object())
        with pytest.raises(TypeError, match="cannot interpret"):
            rselect_batched(ProbeOracle(prefs), np.arange(n), {**close, **far}, n, rngs=unusable)

    def test_rselect_without_rngs_matches_lockstep_when_nobody_draws(self):
        rng = np.random.default_rng(17)
        n, m = 16, 48
        prefs = rng.integers(0, 2, (n, m), dtype=np.int8)
        candidates = {
            pl: _with_wildcards(_near_rows(prefs[[pl]], 4, 2, rng), 0.1, rng) for pl in range(n)
        }
        _assert_rselect_matches_lockstep(prefs, np.arange(n), candidates, n, rngs=lambda: None)


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
