"""Tests for the REPRO_SANITIZE runtime sanitizer and its harness.

The two seeded bugs from the issue are pinned here: a post-log variant
that stores the watermark *before* the record body must be rejected
(writer-side at its own commit point, reader-side under adversarial
interleaving), while the stock protocol must replay clean under every
enumerated schedule.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.billboard.postlog import (
    _REC,
    KIND_BARRIER,
    KIND_PACKED,
    PostLog,
    SharedBillboard,
    _align8,
)
from repro.sanitize import (
    InterleavingHarness,
    SanitizeError,
    SanitizedPostLog,
    interleavings,
    is_enabled,
    stepped_append,
    stepped_read,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def log():
    log = PostLog.create(1 << 14)
    yield log
    log.close()


@pytest.fixture
def sanitized_log():
    log = SanitizedPostLog.create(1 << 14)
    yield log
    log.close()


# ----------------------------------------------------- the env switch


def test_env_gating(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not is_enabled()
    plain = PostLog.create(1 << 12)
    assert type(plain) is PostLog
    plain.close()

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert is_enabled()
    checked = PostLog.create(1 << 12)
    try:
        assert type(checked) is SanitizedPostLog
        # attach (same-process borrow) inherits the sanitized class too
        reader = PostLog.attach(checked.name)
        assert type(reader) is SanitizedPostLog
    finally:
        checked.close()

    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not is_enabled()


# ------------------------------------------------- writer-side checks


def test_sanitized_log_passes_correct_protocol(sanitized_log):
    payload = bytes(range(16))
    sanitized_log.append(KIND_PACKED, 0, "chan", 1, payload, rows=1, m=128)
    sanitized_log.append(KIND_BARRIER, 1, "stage", 0)
    epoch, records = sanitized_log.read(0)
    assert len(records) == 2
    assert records[0].payload == payload
    assert records[1].kind == KIND_BARRIER


class _WatermarkFirstLog(SanitizedPostLog):
    """The seeded bug: publishes the watermark before the record body."""

    def _append(self, kind, shard, channel, seq, payload, rows, m):
        name_b = channel.encode("utf-8")
        size = _align8(_REC.size + len(name_b) + len(payload))
        committed = self.committed
        self._publish(committed, committed + size)  # BUG: bytes not down yet
        self._write_body(committed, size, kind, shard, seq, name_b, payload, rows, m)


def test_watermark_first_variant_rejected_at_commit():
    bug = _WatermarkFirstLog.create(1 << 12)
    try:
        with pytest.raises(SanitizeError, match="not down before commit|size field"):
            bug.append(KIND_PACKED, 0, "chan", 1, b"\x01" * 4, rows=1, m=32)
    finally:
        bug.close()


def test_lost_update_detected(sanitized_log):
    sanitized_log.append(KIND_BARRIER, 0, "a", 0)
    # Re-publishing from a stale base watermark = two writers raced.
    with pytest.raises(SanitizeError, match="lost update"):
        sanitized_log._publish(0, 8)


def test_watermark_must_advance(sanitized_log):
    with pytest.raises(SanitizeError, match="positive multiple of 8"):
        sanitized_log._publish(0, 0)
    with pytest.raises(SanitizeError, match="positive multiple of 8"):
        sanitized_log._publish(0, 12)


# ------------------------------------------------- reader-side checks


def test_reader_rejects_epoch_regression(sanitized_log):
    sanitized_log.append(KIND_BARRIER, 0, "a", 0)
    sanitized_log.read(0)
    # Corrupt the segment: rewind the watermark behind the reader's back.
    struct.pack_into("<Q", sanitized_log._shm.buf, 16, 0)
    with pytest.raises(SanitizeError, match="epoch regressed"):
        sanitized_log.read(0)


def test_epoch_regression_names_segment_and_pids(sanitized_log):
    sanitized_log.append(KIND_BARRIER, 0, "a", 0)
    sanitized_log.read(0)
    seen = sanitized_log.committed
    struct.pack_into("<Q", sanitized_log._shm.buf, 16, 0)
    with pytest.raises(SanitizeError) as exc:
        sanitized_log.read(0)
    pid = os.getpid()
    assert str(exc.value) == (
        f"epoch regressed on this handle: {seen} -> 0 (post-log segment "
        f"{sanitized_log.name!r}, handle opened by pid {pid}, read in pid {pid})"
    )


def test_reader_rejects_record_straddling_epoch(log):
    """A sanitized reader on a *plain* log whose watermark ran ahead of
    the record bytes — the cross-process torn-write picture."""
    log.append(KIND_BARRIER, 0, "a", 0)
    reader = PostLog.attach(log.name)  # plain borrow...
    checked = SanitizedPostLog(reader._shm, owner=False, borrowed=True)
    # Push the watermark past the committed bytes (zeros follow).
    struct.pack_into("<Q", log._shm.buf, 16, log.committed + 64)
    with pytest.raises(SanitizeError, match="invalid size|straddles"):
        checked.read(0)


# ------------------------------------------------ interleaving harness


def test_interleavings_enumeration():
    assert list(interleavings({"w": 2, "r": 1})) == [
        ("r", "w", "w"),
        ("w", "r", "w"),
        ("w", "w", "r"),
    ]
    assert len(list(interleavings({"w": 3, "r": 2}))) == 10  # C(5,2)


def test_stock_protocol_clean_under_all_schedules():
    """Crash-safety, exhaustively: under every interleaving of a
    sanitized append (3 steps) with two epoch reads, each read observes
    either nothing or the complete record — never a torn state."""
    state: dict[str, PostLog] = {}
    results: list = []
    payload = b"\xab" * 8

    def reset() -> None:
        if "log" in state:
            state["log"].close()
        state["log"] = SanitizedPostLog.create(1 << 12)
        results.clear()

    harness = InterleavingHarness(
        {
            "writer": lambda: stepped_append(
                state["log"], KIND_PACKED, 0, "chan", 1, payload, rows=1, m=64
            ),
            "reader": lambda: stepped_read(state["log"], results),
            "reader2": lambda: stepped_read(state["log"], results),
        },
        reset=reset,
    )
    record_size = _align8(_REC.size + len(b"chan") + len(payload))
    schedules = list(interleavings({"writer": 3, "reader": 2, "reader2": 2}))
    assert len(schedules) == 210  # 7! / (3! 2! 2!)
    for schedule in schedules:
        outcome = harness.run(schedule)
        assert outcome.error is None, (outcome.schedule, outcome.error)
        for epoch, records in results:  # the reads of THIS schedule
            assert (epoch, len(records)) in ((0, 0), (record_size, 1)), schedule
    state["log"].close()


def test_buggy_writer_caught_by_sanitized_reader_under_interleaving():
    """Reader-side detection: a *raw* watermark-first writer (no writer
    checks to save it) is caught by the sanitized reader on exactly the
    schedules where the torn window is observed."""
    state: dict[str, PostLog] = {}
    results: list = []

    def buggy_append():
        log = state["raw"]
        name_b = b"chan"
        size = _align8(_REC.size + len(name_b) + 8)
        committed = log.committed
        yield "reserve"
        log._publish(committed, committed + size)  # BUG: publish first
        yield "publish"
        log._write_body(committed, size, KIND_PACKED, 0, 1, name_b, b"\x01" * 8, 1, 64)
        yield "body"

    def reset() -> None:
        if "seg" in state:
            state["seg"].close()
        # create() may hand back a sanitized log when REPRO_SANITIZE=1 is
        # already in the environment (the CI sanitizer leg) — write
        # through an explicitly *plain* borrow so the buggy writer stays
        # unchecked and the reader alone must catch the tear.
        state["seg"] = PostLog.create(1 << 12)
        state["raw"] = PostLog(state["seg"]._shm, owner=False, borrowed=True)
        state["reader"] = SanitizedPostLog(state["seg"]._shm, owner=False, borrowed=True)
        results.clear()

    harness = InterleavingHarness(
        {
            "writer": buggy_append,
            "reader": lambda: stepped_read(state["reader"], results),
        },
        reset=reset,
    )
    outcomes = list(harness.run_all({"writer": 3, "reader": 2}))
    caught = [o for o in outcomes if isinstance(o.error, SanitizeError)]
    # The torn window is any schedule whose read lands after "publish"
    # but before "body" — at least one enumeration must hit it.
    assert caught, "no schedule observed the torn write"
    for outcome in caught:
        labels = [label for _, label in outcome.trace]
        # The failing read raised between the buggy publish and the body
        # write — the torn window, exactly.
        assert "publish" in labels and "body" not in labels, outcome.trace
    state["seg"].close()


# -------------------------------------- sanitized end-to-end behaviour


def test_shared_billboard_round_trip_sanitized(monkeypatch):
    """Two shards replicating through a sanitized log behave identically
    to the plain protocol — the checks are pure assertions."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    log = PostLog.create(1 << 16)
    assert type(log) is SanitizedPostLog
    try:
        a = SharedBillboard(4, 8, log=log, shard=0, n_shards=2)
        b = SharedBillboard(4, 8, log=PostLog.attach(log.name), shard=1, n_shards=2)
        a.post_vectors("p0", np.array([[0, 1, 0, 1, 1, 0, 1, 0]], dtype=np.int16))
        b.post_vectors("p1", np.array([[1, 1, 1, 0, 0, 0, 0, 1]], dtype=np.int16))
        a.post_barrier("stage-0")
        b.post_barrier("stage-0")
        a.sync()
        b.sync()
        assert a.barrier_complete("stage-0") and b.barrier_complete("stage-0")
        np.testing.assert_array_equal(a.read_vectors("p1"), b.read_vectors("p1"))
        np.testing.assert_array_equal(a.read_vectors("p0"), b.read_vectors("p0"))
    finally:
        log.close()


def test_serve_smoke_bitwise_equal_under_sanitizer():
    """The acceptance gate in miniature: a small serve-to-completion run
    produces byte-identical results with and without REPRO_SANITIZE=1."""
    script = (
        "import json, sys\n"
        "from repro.serve import ServeConfig, serve\n"
        "from repro.workloads.registry import make_instance\n"
        "inst = make_instance('planted', 24, 24, 0.5, 2, rng=5)\n"
        "cfg = ServeConfig(seed=3, max_phases=2, d_max=4, workers=2, window=8, probes_per_request=8)\n"
        "with serve(inst, cfg) as rt:\n"
        "    out = rt.run_to_completion()\n"
        "sys.stdout.write(json.dumps(out.tolist()))\n"
    )
    runs = {}
    for mode in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), REPRO_SANITIZE=mode)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = proc.stdout
    assert runs["0"] and runs["0"] == runs["1"]
