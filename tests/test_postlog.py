"""The post log's pinned contract: epoch-stamped serializable reads.

The append-only shared-memory log (:mod:`repro.billboard.postlog`) is
the spine the sharded runtime's billboard replication rests on, so its
guarantees are pinned directly:

* a record is either invisible or complete — the committed watermark is
  the only publication point, and torn bytes past it are never read
  (crash-mid-append recovery);
* reads between two syncs observe one epoch, and every shard's view is
  a prefix of the same serial order (the log order) — checked as a
  hypothesis property over arbitrary interleavings;
* posts never silently drop: an overflowing append raises;
* barrier and exhaustion markers ride the log after a shard's posts,
  so marker visibility implies post visibility;
* a posted channel is one immutable record shared by reference: no
  channel array can be written, and a replica installs the poster's
  packed bytes as they are;
* post records carry ``seq`` 0, as the markers do: nothing reads it.
"""

from __future__ import annotations

import os
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard, _Channel
from repro.billboard.postlog import (
    KIND_BARRIER,
    KIND_DENSE,
    KIND_EXHAUSTED,
    KIND_PACKED,
    PostLog,
    SharedBillboard,
    default_log_capacity,
)
from repro.sanitize.postlog import SanitizedPostLog

N, M = 8, 12


@pytest.fixture
def log():
    log = PostLog.create(1 << 16)
    yield log
    log.close()


def _boards(log: PostLog, n_shards: int) -> list[SharedBillboard]:
    return [
        SharedBillboard(N, M, log=log, shard=shard, n_shards=n_shards)
        for shard in range(n_shards)
    ]


class TestPostLog:
    def test_append_read_roundtrip(self, log):
        payload = np.arange(2 * M, dtype=np.int16).tobytes()
        log.append(KIND_DENSE, 0, "chan/a", 1, payload, rows=2, m=M)
        log.append(KIND_BARRIER, 1, "phase0/merge", 0)
        epoch, records = log.read(0)
        assert epoch == log.committed
        assert [r.kind for r in records] == [KIND_DENSE, KIND_BARRIER]
        assert records[0].channel == "chan/a"
        assert records[0].shard == 0
        assert records[0].payload == payload
        assert records[1].channel == "phase0/merge"

    def test_incremental_read_returns_new_records_only(self, log):
        log.append(KIND_EXHAUSTED, 0, "", 0)
        epoch, first = log.read(0)
        assert len(first) == 1
        log.append(KIND_BARRIER, 0, "tag", 0)
        epoch2, second = log.read(epoch)
        assert len(second) == 1
        assert second[0].kind == KIND_BARRIER
        assert epoch2 > epoch

    def test_committed_watermark_is_monotonic(self, log):
        marks = [log.committed]
        for i in range(4):
            log.append(KIND_BARRIER, 0, f"tag{i}", 0)
            marks.append(log.committed)
        assert marks == sorted(marks)
        assert len(set(marks)) == len(marks)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_racing_reader_never_sees_a_half_stored_watermark(self):
        """A reader in another process sees only watermarks a writer stored:
        never 0 once one landed, never one below an earlier read."""
        log = PostLog.create(1 << 20)
        try:
            pid = os.fork()
            if pid == 0:  # writer: publish rising watermarks for a while
                try:
                    new, t0 = 8, time.monotonic()
                    while time.monotonic() - t0 < 0.5 and new < log.capacity:
                        PostLog._publish(log, new - 8, new)
                        new += 8
                finally:
                    os._exit(0)
            seen, bad = 0, []
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                now = log.committed
                if now < seen:
                    bad.append((seen, now))
                seen = max(seen, now)
            assert not bad[:5]
        finally:
            log.close()

    def test_overflow_raises_instead_of_dropping(self):
        log = PostLog.create(64)
        try:
            with pytest.raises(RuntimeError, match="post log full"):
                for i in range(16):
                    log.append(KIND_BARRIER, 0, f"tag{i}", 0)
        finally:
            log.close()

    def test_torn_bytes_past_watermark_are_invisible(self, log):
        """A writer killed mid-append leaves garbage the epoch hides."""
        log.append(KIND_BARRIER, 0, "committed", 0)
        epoch = log.committed
        # Simulate a torn append: a half-written record body past the
        # watermark, never published.
        torn = struct.pack("<IHHIIQI4x", 4096, KIND_DENSE, 9, 99, 99, 7, 3)
        offset = 32 + epoch  # header size + committed bytes
        log._shm.buf[offset : offset + len(torn)] = torn
        assert log.committed == epoch
        _, records = log.read(0)
        assert [r.channel for r in records] == ["committed"]
        # The next real append overwrites the torn bytes wholesale.
        log.append(KIND_BARRIER, 1, "recovered", 0)
        _, records = log.read(0)
        assert [r.channel for r in records] == ["committed", "recovered"]
        assert records[1].shard == 1

    def test_own_shard_skip_returns_the_foreign_records(self, log):
        """Skipping a shard's own posts drops exactly those records: the
        other shard's posts, every marker and the epoch are unchanged."""
        a, b = _boards(log, 2)
        a.post_vectors("pref/0", np.ones((1, M), dtype=np.int16))
        after_first = log.committed
        b.post_vectors("pref/1", np.zeros((2, M), dtype=np.int16))
        a.post_vectors("score/0", np.full((1, M), 3, dtype=np.int16))
        a.post_barrier("phase0/main")
        b.post_vectors("score/1", np.full((1, M), -1, dtype=np.int16))
        b.post_exhausted()
        epoch, every = log.read(0)
        assert len(every) == 6
        for shard in (0, 1):
            own_posts = [
                r for r in every if r.shard == shard and r.kind in (KIND_PACKED, KIND_DENSE)
            ]
            skipped_epoch, records = log.read(0, skip_shard=shard)
            assert skipped_epoch == epoch
            assert records == [r for r in every if r not in own_posts]
            # Incrementally too: from the cursor after the first record.
            assert log.read(after_first, skip_shard=shard)[1] == [
                r for r in every[1:] if r not in own_posts
            ]

    @pytest.mark.parametrize("base", [PostLog, SanitizedPostLog])
    def test_own_shard_skip_still_checks_every_header(self, base):
        """The sanitizer's read hooks see a skipped record's header too."""

        class Recording(base):
            seen: list[int] = []

            def _check_record(self, pos, epoch, size, kind, rows, m, name_len):
                super()._check_record(pos, epoch, size, kind, rows, m, name_len)
                self.seen.append(pos)

        log = Recording.create(1 << 16)
        try:
            a, b = _boards(log, 2)
            a.post_vectors("pref/0", np.ones((1, M), dtype=np.int16))
            a.post_vectors("score/0", np.full((1, M), 3, dtype=np.int16))
            b.post_vectors("pref/1", np.zeros((1, M), dtype=np.int16))
            a.post_barrier("tag")
            Recording.seen.clear()  # the sanitizer checks each record on append too
            log.read(0)
            every = list(Recording.seen)
            Recording.seen.clear()
            assert len(log.read(0, skip_shard=0)[1]) == 2
            assert Recording.seen == every
            assert len(every) == 4
        finally:
            log.close()

    def test_attach_same_process_borrows_creators_mapping(self, log):
        other = PostLog.attach(log.name)
        assert other.committed == log.committed
        log.append(KIND_BARRIER, 0, "tag", 0)
        assert other.committed == log.committed  # same buffer, no copy
        other.close()  # borrowed: must not tear down the creator's mapping
        assert log.read(0)[1][0].channel == "tag"

    def test_attach_unknown_name_raises(self):
        with pytest.raises(FileNotFoundError):
            PostLog.attach("repro-no-such-log")

    def test_create_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity must be positive"):
            PostLog.create(0)

    def test_default_capacity_scales_and_bounds(self):
        small = default_log_capacity(8, 8)
        big = default_log_capacity(2048, 2048)
        assert small >= 1 << 22
        assert big > small


class TestSharedBillboard:
    def test_foreign_posts_visible_after_sync(self, log):
        a, b = _boards(log, 2)
        rows = np.zeros((1, M), dtype=np.int16)
        rows[0, :3] = 1
        a.post_vectors("pref/0", rows)
        assert not b.has_channel("pref/0")
        assert b.sync() == 1
        assert np.array_equal(b.read_vectors("pref/0"), a.read_vectors("pref/0"))

    def test_dense_posts_replicate_bitwise(self, log):
        a, b = _boards(log, 2)
        rows = np.array([[3, -2, 7] + [0] * (M - 3)], dtype=np.int16)
        a.post_vectors("scores/0", rows)
        b.sync()
        assert np.array_equal(b.read_vectors("scores/0"), rows)

    def test_local_posts_not_reinstalled_on_sync(self, log):
        (a,) = _boards(log, 1)
        a.post_vectors("pref/0", np.ones((1, M), dtype=np.int16))
        assert a.sync() == 0  # own record skipped: installed on the write path

    def test_barrier_completes_when_every_shard_posts(self, log):
        a, b = _boards(log, 2)
        a.post_barrier("phase0/split")
        a.sync()
        assert not a.barrier_complete("phase0/split")
        b.post_barrier("phase0/split")
        a.sync()
        b.sync()
        assert a.barrier_complete("phase0/split")
        assert b.barrier_complete("phase0/split")

    def test_barrier_marker_is_idempotent(self, log):
        (a,) = _boards(log, 1)
        a.post_barrier("tag")
        epoch = log.committed
        a.post_barrier("tag")  # no second record
        assert log.committed == epoch

    def test_marker_visibility_implies_post_visibility(self, log):
        """Posts precede the poster's marker in the log, so any reader
        that sees the marker has already installed the posts."""
        a, b = _boards(log, 2)
        a.post_vectors("pref/0", np.ones((1, M), dtype=np.int16))
        a.post_barrier("phase0/merge")
        b.post_barrier("phase0/merge")
        b.sync()
        assert b.barrier_complete("phase0/merge")
        assert b.has_channel("pref/0")

    def test_exhaustion_marker_propagates(self, log):
        a, b = _boards(log, 2)
        assert not b.exhausted_seen
        a.post_exhausted()
        b.sync()
        assert b.exhausted_seen

    def test_restore_state_rejects_inconsistent_grades(self, log):
        """A checkpoint whose mask disagrees with its wildcard-filled
        values is corrupt; the shard refuses it instead of guessing."""
        (board,) = _boards(log, 1)
        values = np.full((N, M), -1, dtype=np.int8)
        values[2, 5] = 1
        revealed = values != -1
        board.restore_state(revealed, values)
        assert board.is_revealed(2, 5) and board.n_revealed == 1
        revealed[3, 4] = True  # flagged revealed, but still a wildcard
        with pytest.raises(ValueError, match=r"inconsistent grade checkpoint: revealed\[3, 4\]"):
            board.restore_state(revealed, values)


_PACKED_ROWS = (np.arange(3 * M).reshape(3, M) % 3 == 0).astype(np.int8)
_DENSE_ROWS = np.array([[3, -2, 7] + [0] * (M - 3), [-1] * M], dtype=np.int16)


@pytest.fixture(params=["Billboard", "SharedBillboard"])
def sharing(request, log):
    """``(board, install)``: ``install(name, rows)`` stores a channel
    the way this kind of board takes in one it did not post (the one
    write into the channel dict for a plain board, a foreign post plus
    a sync for a shard's)."""
    if request.param == "Billboard":
        board = Billboard(N, M)

        def install(name, rows):
            board._store(name, _Channel.of(rows))

        return board, install
    board, peer = _boards(log, 2)

    def install(name, rows):
        peer.post_vectors(name, rows)
        board.sync()

    return board, install


class TestSharedChannels:
    """A posted channel is one immutable record, shared, never copied."""

    def test_channel_arrays_are_read_only(self, sharing):
        board, install = sharing
        board.post_vectors("g/0", _PACKED_ROWS)
        board.post_vectors("g/1", _DENSE_ROWS)
        install("g/2", _PACKED_ROWS)
        install("g/3", _DENSE_ROWS)
        for name in ("g/0", "g/1", "g/2", "g/3"):
            channel = board._channels[name]
            stored = channel.packed if channel.packed is not None else channel.dense
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 1
        for name in ("g/1", "g/3"):
            with pytest.raises(ValueError, match="read-only"):
                board._channels[name].first_row()[0] = 0
        copy = board.read_vectors("g/1")
        copy[0, 0] = 0  # readers still get writable copies
        assert np.array_equal(board.read_vectors("g/1"), _DENSE_ROWS)

    def test_installed_packed_record_is_the_posters(self, log):
        a, b = _boards(log, 2)
        a.post_vectors("pref/0", _PACKED_ROWS)
        b.sync()
        mine, theirs = a._channels["pref/0"], b._channels["pref/0"]
        assert theirs.dense is None and theirs.m == mine.m == M
        assert theirs.packed.tobytes() == mine.packed.tobytes()
        assert np.array_equal(b.read_vectors("pref/0"), _PACKED_ROWS)
        assert np.array_equal(b.read_first_rows(["pref/0"]), a.read_first_rows(["pref/0"]))
        packed_b, m_b = b.read_first_rows_packed(["pref/0"])
        packed_a, m_a = a.read_first_rows_packed(["pref/0"])
        assert m_a == m_b and np.array_equal(packed_a, packed_b)


# One post: (shard, channel suffix, first cell value).  Channels are
# single-writer (the name embeds the shard), matching production use.
_POSTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(posts=_POSTS, sync_after=st.integers(min_value=0, max_value=12))
def test_interleaved_posts_serialize_in_log_order(posts, sync_after):
    """Property: any interleaving of single-writer posts reads back as
    one serial order — the log order — on every shard, and a reader
    that syncs mid-stream observes exactly a prefix of that order."""
    log = PostLog.create(1 << 16)
    try:
        boards = _boards(log, 3)
        reference = Billboard(N, M)  # applies the log order directly
        prefix = Billboard(N, M)
        for i, (shard, chan, value) in enumerate(posts):
            rows = np.full((1, M), value, dtype=np.int16)
            rows[0, 0] = (i + value) % 2  # vary content across reposts
            name = f"pref/{shard}/{chan}"
            boards[shard].post_vectors(name, rows)
            reference.post_vectors(name, rows)
            if i < sync_after:
                prefix.post_vectors(name, rows)
        _, records = log.read(0)
        assert len(records) == len(posts)
        assert all(r.kind == KIND_PACKED for r in records)  # 0/1 rows pack
        assert all(r.seq == 0 for r in records)  # reposts included
        for board in boards:
            board.sync()
        for name in reference.channels():
            expected = reference.read_vectors(name)
            for board in boards:
                assert np.array_equal(board.read_vectors(name), expected)
        # Prefix consistency: a reader that stops after the first
        # `sync_after` records sees exactly the state of that prefix of
        # the serial order — never a reordering, never a partial post.
        mid_board = SharedBillboard(N, M, log=log, shard=2, n_shards=3)
        for rec in records[:sync_after]:
            mid_board._install(rec)
        assert sorted(mid_board.channels()) == sorted(prefix.channels())
        for name in prefix.channels():
            assert np.array_equal(
                mid_board.read_vectors(name), prefix.read_vectors(name)
            )
    finally:
        log.close()
