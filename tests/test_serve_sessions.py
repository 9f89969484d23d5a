"""Unit tests for the session layer: ``Session``, ``advance``, ``SessionStore``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.billboard.oracle import ProbeOracle
from repro.engine.actions import Post, Probe, ProbeEach, Wait
from repro.serve.sessions import (
    ADVANCE_DONE,
    ADVANCE_PROBE,
    ADVANCE_WAIT,
    Session,
    SessionStore,
    advance,
)


def _board(n=4, m=4):
    return Billboard(n, m)


def probe_then_return(grades):
    """Program probing objects 0..k-1, recording grades, returning them."""

    def program():
        seen = []
        for obj in range(len(grades)):
            seen.append((yield Probe(obj)))
        return np.asarray(seen, dtype=np.int8)

    return program()


class TestAdvance:
    def test_probe_suspends_and_deliver_resumes(self):
        session = Session(player=0, program=probe_then_return([1, 0]), status="active")
        board = _board()
        assert advance(session, board) == ADVANCE_PROBE
        assert session.pending_probe == 0
        session.deliver(1)
        assert session.probes == 1
        assert advance(session, board) == ADVANCE_PROBE
        assert session.pending_probe == 1
        session.deliver(0)
        assert advance(session, board) == ADVANCE_DONE
        assert np.array_equal(session.output, np.asarray([1, 0], dtype=np.int8))
        assert session.program is None

    def test_posts_processed_inline_and_counted(self):
        def program():
            yield Post("me/result", np.asarray([1, -1, 0, 1], dtype=np.int8))
            yield Wait()
            return np.zeros(4, dtype=np.int8)

        session = Session(player=1, program=program(), status="active")
        board = _board()
        # The post is free: advance runs through it to the Wait.
        assert advance(session, board) == ADVANCE_WAIT
        assert session.posts == 1
        assert board.has_channel("me/result")
        assert advance(session, board) == ADVANCE_DONE

    def test_deliver_without_pending_probe_raises(self):
        session = Session(player=0, program=probe_then_return([1]), status="active")
        with pytest.raises(RuntimeError, match="no pending probe"):
            session.deliver(1)

    def test_advance_with_undelivered_probe_raises(self):
        session = Session(player=0, program=probe_then_return([1]), status="active")
        advance(session, _board())
        with pytest.raises(RuntimeError, match="awaits a probe grade"):
            advance(session, _board())

    def test_advance_without_program_raises(self):
        with pytest.raises(RuntimeError, match="no live program"):
            advance(Session(player=0), _board())

    def test_unknown_action_raises(self):
        def program():
            yield "not an action"
            return np.zeros(4, dtype=np.int8)

        session = Session(player=0, program=program(), status="active")
        with pytest.raises(TypeError, match="unknown action"):
            advance(session, _board())


def probe_run_then_return(objects, resumed=None):
    """Program probing *objects* as one run, returning their grades."""

    def program():
        grades = yield ProbeEach(np.asarray(objects))
        if resumed is not None:
            resumed.append(True)
        return grades

    return program()


class TestProbeRuns:
    def test_partly_delivered_run_stays_owed(self):
        resumed = []
        session = Session(player=0, program=probe_run_then_return([2, 0, 3], resumed), status="active")
        board = _board()
        assert advance(session, board) == ADVANCE_PROBE
        assert session.pending_probe == 2
        assert session.owed_objects(32).tolist() == [2, 0, 3]
        assert session.owed_objects(2).tolist() == [2, 0]
        session.deliver(np.asarray([1, 0], dtype=np.int8))
        # Part of the run is still owed: the program is not resumed.
        assert advance(session, board) == ADVANCE_PROBE
        assert not resumed
        assert session.pending_probe == 3
        assert session.owed_objects(32).tolist() == [3]
        session.deliver(1)
        assert session.probes == 3
        assert session.owed is None
        assert advance(session, board) == ADVANCE_DONE
        assert resumed
        assert session.output.dtype == np.int8
        assert session.output.tolist() == [1, 0, 1]

    def test_scalar_probes_answer_a_run_one_object_at_a_time(self):
        """The scalar referee's stepping: one ``ProbeOracle.probe`` per owed object."""
        hidden = np.asarray([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int8)
        oracle = ProbeOracle(hidden)
        session = Session(player=1, program=probe_run_then_return([3, 1, 2]), status="active")
        calls = 0
        while advance(session, oracle.billboard) == ADVANCE_PROBE:
            session.deliver(oracle.probe(session.player, session.pending_probe))
            calls += 1
        assert calls == 3
        assert oracle.batch_count == 0
        assert session.output.tolist() == hidden[1, [3, 1, 2]].tolist()

    def test_overlong_delivery_raises(self):
        session = Session(player=0, program=probe_run_then_return([0, 1]), status="active")
        advance(session, _board())
        with pytest.raises(RuntimeError, match="owes 2 grades, was handed 3"):
            session.deliver(np.asarray([1, 1, 0]))
        assert session.probes == 0

    def test_empty_run_is_answered_inline(self):
        session = Session(player=0, program=probe_run_then_return([]), status="active")
        assert advance(session, _board()) == ADVANCE_DONE
        assert session.output.size == 0
        assert session.probes == 0

    def test_negative_object_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ProbeEach(np.asarray([0, -1]))


class TestSessionStore:
    def test_population_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SessionStore(0)

    def test_iteration_in_player_order(self):
        store = SessionStore(5)
        assert [s.player for s in store] == [0, 1, 2, 3, 4]
        assert len(store) == 5
        assert store[3].player == 3

    def test_load_stage_activates(self):
        store = SessionStore(3)
        assert store.count("barrier") == 3
        store.load_stage({p: probe_then_return([1]) for p in range(3)})
        assert store.count("active") == 3
        assert store.active_players() == [0, 1, 2]

    def test_load_stage_resets_session_state(self):
        store = SessionStore(2)
        store.load_stage({0: probe_then_return([1])})
        advance(store[0], _board())
        assert store[0].pending_probe is not None
        store.load_stage({0: probe_then_return([0])})
        assert store[0].pending_probe is None
        assert store[0].output is None
        assert store[0].status == "active"

    def test_load_stage_clears_partly_delivered_run(self):
        store = SessionStore(1)
        store.load_stage({0: probe_run_then_return([0, 1, 2])})
        advance(store[0], _board())
        store[0].deliver(1)
        assert store[0].owed_objects(32).tolist() == [1, 2]
        store.load_stage({0: probe_run_then_return([3])})
        assert store[0].owed is None
        assert store[0].pending_probe is None
        assert advance(store[0], _board()) == ADVANCE_PROBE
        assert store[0].pending_probe == 3

    @pytest.mark.parametrize("status", ["complete", "drained"])
    def test_freeze_clears_partly_delivered_run(self, status):
        store = SessionStore(1)
        store.load_stage({0: probe_run_then_return([0, 1, 2])})
        advance(store[0], _board())
        store[0].deliver(np.asarray([0, 1]))
        store.freeze(status)
        assert store[0].owed is None
        assert store[0].pending_probe is None
        with pytest.raises(RuntimeError, match="no pending probe"):
            store[0].deliver(1)

    @pytest.mark.parametrize("status", ["complete", "drained"])
    def test_freeze_closes_programs(self, status):
        store = SessionStore(2)
        store.load_stage({p: probe_then_return([1]) for p in range(2)})
        store.freeze(status)
        assert store.count(status) == 2
        assert all(s.program is None for s in store)
        assert store.active_players() == []

    def test_freeze_rejects_other_statuses(self):
        with pytest.raises(ValueError, match="freeze status"):
            SessionStore(1).freeze("active")
