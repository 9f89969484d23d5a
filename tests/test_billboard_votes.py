"""The billboard's vote cache is observationally a fresh vote.

:meth:`Billboard.vote` answers every reader of a channel group from one
cached computation per ``(group, min_votes)`` and group epoch, and
:meth:`Billboard.group_ready` replaces the per-name readiness scan with
one counter compare.  Both are pinned here against the uncached
definitions they replace, over random interleavings of posts,
overwrites, dense (wildcard-carrying) posts, stray channels,
``Billboard.restore`` and ``SharedBillboard`` log installs and
checkpoint restores:

* the cached candidates equal ``popular_rows(read_first_rows(needed),
  min_votes)`` and are read-only;
* readiness equals ``has_channels(needed)`` whenever the group holds
  only the voters' channels (a voter subset or a stray poster makes the
  count overshoot);
* a group whose count includes a channel outside the voter set never
  votes over the wrong rows: it raises ``KeyError``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.postlog import PostLog, SharedBillboard
from repro.obs.metrics import MetricRegistry, collecting
from repro.utils.rowset import popular_rows
from repro.utils.validation import WILDCARD

N, M = 8, 6
GROUP = "phase0/zr/L"
VOTERS = np.arange(4, dtype=np.intp)
STRANGER = 7  # posts into the group without being one of its voters

_POST = st.tuples(
    st.just("post"),
    st.integers(0, 3),  # voter
    st.integers(0, 3),  # row pattern: few patterns, so votes repeat
    st.booleans(),  # dense: carry a wildcard so the channel is stored int16
)
_OPS = st.lists(
    st.one_of(
        _POST,
        _POST,
        st.tuples(st.just("stranger")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("sync")),
        st.tuples(st.just("restore_state")),
    ),
    min_size=1,
    max_size=24,
)


def _row(pattern: int, dense: bool) -> np.ndarray:
    row = np.zeros((1, M), dtype=np.int16)
    row[0, : pattern + 1] = 1
    if dense:
        row[0, -1] = WILDCARD
    return row


def _names(players: np.ndarray) -> list[str]:
    return [f"{GROUP}/{int(q)}" for q in players]


def _check(board: Billboard) -> None:
    in_group = {name for name in board.channels() if name.rpartition("/")[0] == GROUP}
    for players in (VOTERS, VOTERS.copy(), VOTERS[:2]):
        needed = _names(players)
        posted = board.has_channels(needed)
        if in_group <= set(needed):
            assert board.group_ready(GROUP, players.size) == posted
        for min_votes in (1, 2, 3):
            if posted:
                fresh = popular_rows(board.read_first_rows(needed), min_votes)
                for _ in range(2):  # a miss, then a hit
                    got = board.vote(GROUP, players, min_votes)
                    assert got is not None
                    assert got.dtype == fresh.dtype
                    assert np.array_equal(got, fresh)
                    assert not got.flags.writeable
            elif board.group_ready(GROUP, players.size):
                with pytest.raises(KeyError):
                    board.vote(GROUP, players, min_votes)
            else:
                assert board.vote(GROUP, players, min_votes) is None


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_cached_votes_match_fresh_votes(ops):
    log = PostLog.create(1 << 16)
    try:
        plain = Billboard(N, M)
        writer = SharedBillboard(N, M, log=log, shard=0, n_shards=2)
        replica = SharedBillboard(N, M, log=log, shard=1, n_shards=2)
        for op in ops:
            if op[0] == "post":
                _, voter, pattern, dense = op
                for board in (plain, writer):
                    board.post_vectors(f"{GROUP}/{voter}", _row(pattern, dense))
            elif op[0] == "stranger":
                for board in (plain, writer):
                    board.post_vectors(f"{GROUP}/{STRANGER}", _row(0, False))
            elif op[0] == "restore":
                plain = Billboard.restore(*plain.checkpoint())
            elif op[0] == "sync":
                replica.sync()
            else:
                replica.restore_state(*writer.checkpoint())
            for board in (plain, writer, replica):
                _check(board)
    finally:
        log.close()


class TestVote:
    def test_waits_until_every_voter_posted(self):
        board = Billboard(N, M)
        board.post_vectors(f"{GROUP}/0", _row(0, False))
        assert board.vote(GROUP, VOTERS[:2], 1) is None
        assert not board.group_ready(GROUP, 2)
        board.post_vectors(f"{GROUP}/1", _row(0, False))
        assert board.group_ready(GROUP, 2)
        assert np.array_equal(board.vote(GROUP, VOTERS[:2], 1), _row(0, False))

    def test_overwrite_invalidates_the_cached_vote(self):
        board = Billboard(N, M)
        board.post_vectors(f"{GROUP}/0", _row(0, False))
        first = board.vote(GROUP, VOTERS[:1], 1)
        assert board.vote(GROUP, VOTERS[:1], 1) is first
        board.post_vectors(f"{GROUP}/0", _row(2, False))
        assert board.group_ready(GROUP, 1) and not board.group_ready(GROUP, 2)
        assert np.array_equal(board.vote(GROUP, VOTERS[:1], 1), _row(2, False))

    def test_over_counted_group_raises_key_error(self):
        board = Billboard(N, M)
        for q in (0, 1, STRANGER):
            board.post_vectors(f"{GROUP}/{q}", _row(q % 2, False))
        assert board.group_ready(GROUP, 3)
        with pytest.raises(KeyError, match=f"{GROUP}/2"):
            board.vote(GROUP, VOTERS[:3], 1)

    def test_counters_record_computes_and_hits(self):
        board = Billboard(N, M)
        for q in VOTERS:
            board.post_vectors(f"{GROUP}/{int(q)}", _row(0, False))
        registry = MetricRegistry()
        with collecting(registry):
            for _ in range(3):
                board.vote(GROUP, VOTERS, 2)
        counters = registry.snapshot()["counters"]
        assert counters["board.vote_computes_total"] == 1
        assert counters["board.vote_cache_hits_total"] == 2
