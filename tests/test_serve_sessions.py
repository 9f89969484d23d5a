"""Unit tests for the session layer: ``Session``, ``advance``, ``SessionStore``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.engine.actions import Post, Probe, Wait
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
