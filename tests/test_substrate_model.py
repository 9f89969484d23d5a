"""The probe oracle and billboard against a dense test-local model.

:class:`~repro.billboard.oracle.ProbeOracle` stores the hidden matrix
bit-packed and answers every batch with one fused extract+post(+charge)
kernel; :class:`~repro.billboard.board.Billboard` derives its revealed
mask from the grade matrix and packs 0/1 vector posts.  None of that
may be observable.  :class:`DenseModel` is the referee: a dense value
matrix, an explicit revealed mask and per-player counts, updated by the
paper's cost model in a few plain lines.

Hypothesis drives both over random sequences of scalar probes, batch
probes (empty batches and duplicate pairs included), vector posts (0/1
posts the board packs, posts with wildcards or wide values it keeps
dense) and checkpoint → restore round trips (a checkpoint carries the
grades and charges, not the channels: a restored board starts with
none), under both charging modes and with or without a per-player
budget.  After every step the whole
observable state must agree: returned grades, budget refusals (which
leave the state untouched), counts, the revealed mask and values, and
every posted channel through each read path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.billboard.board import Billboard
from repro.billboard.exceptions import BudgetExceededError
from repro.billboard.oracle import ProbeOracle
from repro.metrics.bitpack import unpack_rows
from repro.utils.validation import WILDCARD


class DenseModel:
    """Dense reference state: values, explicit mask, counts, channels."""

    def __init__(self, prefs: np.ndarray, budget: int | None, charge_repeats: bool) -> None:
        self.prefs = prefs.astype(np.int8)
        self.budget = budget
        self.charge_repeats = charge_repeats
        n, m = prefs.shape
        self.values = np.full((n, m), WILDCARD, dtype=np.int8)
        self.mask = np.zeros((n, m), dtype=bool)
        self.counts = np.zeros(n, dtype=np.int64)
        self.channels: dict[str, np.ndarray] = {}

    def probe_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Charge, check the budget (refusing leaves no trace), reveal."""
        charged = np.zeros(players.size, dtype=bool)
        seen: set[tuple[int, int]] = set()
        for i, (p, o) in enumerate(zip(players.tolist(), objects.tolist())):
            # Without repeat charging only the first reveal of a hidden
            # entry costs; later duplicates hit the just-posted grade.
            charged[i] = self.charge_repeats or (not self.mask[p, o] and (p, o) not in seen)
            seen.add((p, o))
        new_counts = self.counts + np.bincount(players[charged], minlength=self.counts.size)
        if self.budget is not None:
            over = np.flatnonzero(new_counts > self.budget)
            if over.size:
                raise BudgetExceededError(int(over[0]), self.budget)
        self.counts = new_counts
        self.mask[players, objects] = True
        self.values[players, objects] = self.prefs[players, objects]
        return self.prefs[players, objects]


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from([1, 3, 8, 9, 17]))
    prefs = draw(arrays(np.int8, (n, m), elements=st.integers(0, 1)))
    budget = draw(st.one_of(st.none(), st.integers(0, 6)))
    charge_repeats = draw(st.booleans())
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    channel = st.sampled_from(["zr/0/0", "zr/0/1", "zr/1/0", "lr/2"])
    op = st.one_of(
        st.tuples(st.just("probe"), cell),
        # A handful of cells drawn from a tiny grid: duplicates are common.
        st.tuples(st.just("probe_many"), st.lists(cell, max_size=10)),
        st.tuples(
            st.just("post"),
            channel,
            st.integers(1, 3),
            st.sampled_from(["binary", "wildcard", "wide"]),
            st.integers(0, 2**16),
        ),
        st.tuples(st.just("checkpoint")),
    )
    ops = draw(st.lists(op, max_size=25))
    return prefs, budget, charge_repeats, ops


def _post_matrix(rows: int, m: int, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 2, (rows, m)).astype(np.int16)
    if kind == "wildcard":
        mat[0, rng.integers(0, m)] = WILDCARD
    elif kind == "wide":
        mat[-1, rng.integers(0, m)] = 5
    return mat


def _assert_agrees(oracle: ProbeOracle, model: DenseModel) -> None:
    board = oracle.billboard
    assert np.array_equal(oracle.stats().per_player, model.counts)
    assert np.array_equal(board.revealed_mask(), model.mask)
    assert np.array_equal(board.revealed_values(), model.values)
    assert board.n_revealed == int(model.mask.sum())
    for p in range(model.mask.shape[0]):
        assert np.array_equal(board.revealed_row(p), model.mask[p])
        expected = float("inf") if model.budget is None else model.budget - model.counts[p]
        assert oracle.remaining(p) == expected
    players, objects = np.nonzero(np.ones_like(model.mask))
    assert np.array_equal(board.is_revealed_many(players, objects), model.mask.ravel())
    assert board.channels() == sorted(model.channels)
    for name, mat in model.channels.items():
        got = board.read_vectors(name)
        assert got.dtype == np.int16 and np.array_equal(got, mat)
    if model.channels:
        names = sorted(model.channels)
        firsts = np.stack([model.channels[name][0] for name in names])
        assert np.array_equal(board.read_first_rows(names), firsts)
        packed = board.read_first_rows_packed(names)
        if all(((mat == 0) | (mat == 1)).all() for mat in model.channels.values()):
            assert packed is not None
            assert np.array_equal(unpack_rows(packed[0], packed[1], dtype=np.int16), firsts)
        else:
            assert packed is None


class TestOracleBillboardModel:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_matches_dense_model(self, scenario):
        prefs, budget, charge_repeats, ops = scenario
        m = prefs.shape[1]
        oracle = ProbeOracle(prefs, budget=budget, charge_repeats=charge_repeats)
        model = DenseModel(prefs, budget, charge_repeats)
        for op in ops:
            kind = op[0]
            if kind in ("probe", "probe_many"):
                cells = [op[1]] if kind == "probe" else op[1]
                players = np.asarray([c[0] for c in cells], dtype=np.intp)
                objects = np.asarray([c[1] for c in cells], dtype=np.intp)
                try:
                    expected = model.probe_many(players, objects)
                except BudgetExceededError as refused:
                    with pytest.raises(BudgetExceededError) as raised:
                        if kind == "probe":
                            oracle.probe(int(players[0]), int(objects[0]))
                        else:
                            oracle.probe_many(players, objects)
                    assert raised.value.player == refused.player
                else:
                    if kind == "probe":
                        got = np.asarray([oracle.probe(int(players[0]), int(objects[0]))])
                    else:
                        got = oracle.probe_many(players, objects)
                        assert got.dtype == np.int8
                    assert np.array_equal(got, expected)
            elif kind == "post":
                _, name, rows, post_kind, seed = op
                mat = _post_matrix(rows, m, post_kind, seed)
                oracle.billboard.post_vectors(name, mat)
                model.channels[name] = mat.copy()
            else:
                ckpt = oracle.checkpoint()
                revealed, values = oracle.billboard.checkpoint()
                assert np.array_equal(ckpt["prefs"], model.prefs)
                assert np.array_equal(revealed, model.mask)
                assert np.array_equal(values, model.values)
                board = Billboard(*prefs.shape)
                board.restore_state(revealed, values)
                oracle = ProbeOracle.restore(
                    ckpt["prefs"],
                    ckpt["counts"],
                    billboard=board,
                    budget=budget,
                    charge_repeats=charge_repeats,
                )
                model.channels.clear()
            _assert_agrees(oracle, model)

    def test_duplicate_pairs_charge_once_without_repeat_charging(self):
        prefs = np.asarray([[1, 0, 1], [0, 1, 1]], dtype=np.int8)
        oracle = ProbeOracle(prefs, charge_repeats=False)
        model = DenseModel(prefs, None, False)
        players = np.asarray([0, 0, 1, 0, 1])
        objects = np.asarray([2, 2, 0, 2, 0])
        assert np.array_equal(oracle.probe_many(players, objects), model.probe_many(players, objects))
        assert oracle.stats().per_player.tolist() == [1, 1]
        _assert_agrees(oracle, model)
