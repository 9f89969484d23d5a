"""Append-only shared-memory post log: the billboard's cross-shard spine.

The billboard is the one piece of state the sharded serving runtime
(:mod:`repro.serve.sharded`) must share between worker processes, and
its in-process write path — a mutable dict of channels — does not
survive that move.  This module replaces it for cross-shard visibility
with a classic single-log design:

* **Append-only log.**  Every post is appended to one fixed-capacity
  ``multiprocessing.shared_memory`` segment as a self-delimiting record
  (packed 0/1 rows whenever the billboard would store them packed,
  dense ``int16`` otherwise).  Appends serialise on one lock;
  channels are single-writer (names embed the posting player id), so
  the log order is an interleaving of every shard's program order.

* **Epoch-stamped commits.**  The header carries a *committed*
  watermark (bytes of fully written records).  An append writes its
  record body first and advances the watermark last, so a record is
  either invisible or complete — a writer killed mid-append leaves
  torn bytes *past* the watermark that the next append simply
  overwrites.  The watermark is the epoch: one aligned 8-byte read.

* **Lock-free reads.**  :meth:`PostLog.read` snapshots the watermark
  once and parses records up to it — no lock, no waiting on writers.
  :class:`SharedBillboard` applies those records to its private
  in-process :class:`~repro.billboard.board.Billboard` on
  :meth:`~SharedBillboard.sync`, so ``read_vectors`` /
  ``read_first_rows`` / ``read_first_rows_packed`` between two syncs
  all observe one consistent epoch, and every shard's view equals a
  prefix of the same serial order (the log order).

Barrier markers and the budget-exhausted marker ride the same log
(kinds 3/4): because a shard appends all its stage posts *before* its
barrier marker, seeing the marker implies seeing the posts — the
property the sharded phase barriers rest on.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.billboard.board import Billboard, _Channel
from repro.metrics.bitpack import packed_width

__all__ = [
    "KIND_BARRIER",
    "KIND_DENSE",
    "KIND_EXHAUSTED",
    "KIND_PACKED",
    "PostLog",
    "PostRecord",
    "SharedBillboard",
    "default_log_capacity",
]

_MAGIC = 0x52504C4F47763401  # "RPLOGv4" + format nibble
# magic, capacity, committed, reserved; after create, committed is read
# and written in native order as one item (PostLog._watermark).
_HEADER = struct.Struct("<QQQQ")
_REC = struct.Struct("<IHHIIQI4x")  # size, kind, shard, rows, m, seq (0), name_len

#: Record kinds.
KIND_PACKED = 1  # bit-packed 0/1 rows (uint8 payload, packed_width(m) per row)
KIND_DENSE = 2  # dense int16 rows
KIND_BARRIER = 3  # stage-barrier marker; channel field holds the tag
KIND_EXHAUSTED = 4  # probe budget tripped somewhere in the shard set
_POST_KINDS = (KIND_PACKED, KIND_DENSE)


def _align8(size: int) -> int:
    return (size + 7) & ~7


def _log_class(cls: type["PostLog"]) -> type["PostLog"]:
    """The class :meth:`PostLog.create`/:meth:`PostLog.attach` build.

    ``REPRO_SANITIZE=1`` swaps in the watermark-protocol-checking
    subclass (:class:`repro.sanitize.postlog.SanitizedPostLog`) for
    every log in the process — the sharded runtime then runs all its
    appends and epoch reads under assertion, with zero import cost (and
    zero hot-path branching beyond the subclass dispatch) when off.  An
    explicit subclass call (``SanitizedPostLog.create(...)``) always
    wins over the environment.
    """
    if cls is not PostLog:
        return cls
    if os.environ.get("REPRO_SANITIZE", "") in ("", "0"):
        return cls
    from repro.sanitize.postlog import SanitizedPostLog

    return SanitizedPostLog


# Logs created by THIS process (and, under fork, inherited from the
# parent).  Attachers that find the name here reuse the creator's own
# mapping — same rationale as ``repro.parallel.shared._LOCAL_SEGMENTS``:
# on Python < 3.13 a same-process attach registers the segment with the
# resource tracker, so attach + unregister would strip the creator's
# registration and make the eventual unlink double-unregister.
_LOCAL_LOGS: dict[str, shared_memory.SharedMemory] = {}


def default_log_capacity(n_players: int, n_objects: int) -> int:
    """Generous static bound on one run's post-log bytes.

    Sized from the anytime loop's posting profile — a handful of
    single-row channels per player per phase, ≈ ``log2 n`` phases —
    with a wide margin; an overflowing run raises (posts are never
    dropped) and can pass an explicit ``ServeConfig.log_capacity``.
    """
    phases = max(4, int(np.log2(max(2, n_players))) + 2)
    per_row = packed_width(n_objects) + 192
    return max(1 << 22, 32 * n_players * per_row * phases)


@dataclass(frozen=True)
class PostRecord:
    """One committed log record, decoded."""

    kind: int
    shard: int
    channel: str
    seq: int
    rows: int
    m: int
    payload: bytes


class PostLog:
    """Fixed-capacity append-only record log in shared memory.

    ``lock`` (a ``multiprocessing.Lock`` shared by all writers) guards
    appends; reads never take it.  Single-process use may omit it.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        *,
        owner: bool,
        lock: Any = None,
        borrowed: bool = False,
    ) -> None:
        magic, capacity, _, _ = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            if not borrowed:
                shm.close()
            raise ValueError(f"shared segment {shm.name!r} is not a post log")
        self._shm = shm
        self._owner = owner
        self._borrowed = borrowed
        self._lock = lock
        self._capacity = int(capacity)

    @classmethod
    def create(cls, capacity: int, *, lock: Any = None) -> "PostLog":
        """Allocate a fresh log able to hold *capacity* record bytes."""
        if capacity <= 0:
            raise ValueError(f"log capacity must be positive, got {capacity}")
        capacity = _align8(capacity)
        shm = shared_memory.SharedMemory(create=True, size=_HEADER.size + capacity)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, capacity, 0, 0)
        _LOCAL_LOGS[shm.name] = shm
        return _log_class(cls)(shm, owner=True, lock=lock)

    @classmethod
    def attach(cls, name: str, *, lock: Any = None) -> "PostLog":
        """Attach to an existing log by segment name (workers).

        A log created by this process (or inherited through fork) is
        read through the creator's existing mapping; only a foreign
        process actually re-attaches.
        """
        local = _LOCAL_LOGS.get(name)
        if local is not None:
            return _log_class(cls)(local, owner=False, lock=lock, borrowed=True)
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
        except TypeError:  # Python < 3.13: no track kwarg
            shm = shared_memory.SharedMemory(name=name)
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - best-effort on exotic platforms
                pass
        return _log_class(cls)(shm, owner=False, lock=lock)

    @property
    def name(self) -> str:
        """Shared-memory segment name (pass to :meth:`attach`)."""
        return str(self._shm.name)

    @property
    def capacity(self) -> int:
        """Record-region size in bytes."""
        return self._capacity

    @property
    def committed(self) -> int:
        """The epoch: bytes of fully committed records (one atomic read)."""
        return int(self._watermark()[0])

    def _watermark(self) -> memoryview:
        """The header's committed field as one native 8-byte item.

        Not ``struct``: ``pack_into`` zeroes its target before writing
        it, and both it and ``unpack_from`` move a ``<Q`` byte by byte,
        so a reader racing the writer saw 0 or a torn watermark.  A
        memoryview item is copied whole, as one aligned 8-byte access.
        """
        return self._shm.buf[16:24].cast("Q")

    def append(
        self,
        kind: int,
        shard: int,
        channel: str,
        seq: int,
        payload: bytes = b"",
        *,
        rows: int = 0,
        m: int = 0,
    ) -> None:
        """Append one record: body first, watermark last (crash-safe)."""
        if self._lock is not None:
            with self._lock:
                self._append(kind, shard, channel, seq, payload, rows, m)
        else:
            self._append(kind, shard, channel, seq, payload, rows, m)

    def _append(
        self, kind: int, shard: int, channel: str, seq: int, payload: bytes, rows: int, m: int
    ) -> None:
        name_b = channel.encode("utf-8")
        size = _align8(_REC.size + len(name_b) + len(payload))
        committed = self.committed
        if committed + size > self._capacity:
            raise RuntimeError(
                f"post log full: {committed + size} bytes needed, capacity {self._capacity} "
                f"(raise ServeConfig.log_capacity)"
            )
        self._write_body(committed, size, kind, shard, seq, name_b, payload, rows, m)
        self._publish(committed, committed + size)

    # The two halves of the commit protocol, split so the sanitizer
    # (and its interleaving harness) can override / step between them.
    # Protocol order is load-bearing: _write_body lands every record
    # byte past the watermark, _publish's aligned 8-byte store is the
    # one and only commit point.

    def _write_body(
        self,
        committed: int,
        size: int,
        kind: int,
        shard: int,
        seq: int,
        name_b: bytes,
        payload: bytes,
        rows: int,
        m: int,
    ) -> None:
        offset = _HEADER.size + committed
        buf = self._shm.buf
        _REC.pack_into(buf, offset, size, kind, shard, rows, m, seq, len(name_b))
        start = offset + _REC.size
        buf[start : start + len(name_b)] = name_b
        start += len(name_b)
        buf[start : start + len(payload)] = payload

    def _publish(self, old: int, new: int) -> None:
        self._watermark()[0] = new

    def read(self, start: int, *, skip_shard: int | None = None) -> tuple[int, list[PostRecord]]:
        """Parse the committed records in ``[start, epoch)``; lock-free.

        Returns ``(epoch, records)``; pass the returned epoch as the
        next call's *start* to read incrementally.  Post records (packed
        or dense) appended by shard *skip_shard* are passed over before
        their name and payload are decoded; markers are always returned,
        and every header still goes through the sanitizer hooks.
        """
        epoch = self.committed
        self._observe_epoch(epoch)
        records: list[PostRecord] = []
        buf = self._shm.buf
        pos = start
        while pos < epoch:
            offset = _HEADER.size + pos
            size, kind, shard, rows, m, seq, name_len = _REC.unpack_from(buf, offset)
            self._check_record(pos, epoch, size, kind, rows, m, name_len)
            pos += size
            if shard == skip_shard and kind in _POST_KINDS:
                continue
            if kind == KIND_PACKED:
                payload_len = rows * packed_width(m)
            elif kind == KIND_DENSE:
                payload_len = rows * m * 2
            else:
                payload_len = 0
            name_start = offset + _REC.size
            channel = bytes(buf[name_start : name_start + name_len]).decode("utf-8")
            payload_start = name_start + name_len
            payload = bytes(buf[payload_start : payload_start + payload_len])
            records.append(
                PostRecord(
                    kind=int(kind),
                    shard=int(shard),
                    channel=channel,
                    seq=int(seq),
                    rows=int(rows),
                    m=int(m),
                    payload=payload,
                )
            )
        return epoch, records

    # Read-side sanitizer hooks: no-ops here, overridden by
    # repro.sanitize.postlog.SanitizedPostLog under REPRO_SANITIZE=1.

    def _observe_epoch(self, epoch: int) -> None:
        """Called with each snapshot of the watermark before parsing."""

    def _check_record(
        self, pos: int, epoch: int, size: int, kind: int, rows: int, m: int, name_len: int
    ) -> None:
        """Called per record header before its bytes are interpreted."""

    def close(self) -> None:
        """Detach; the owner also unlinks the segment.

        Borrowed handles (same-process attaches) leave the creator's
        mapping alone — the creator's own :meth:`close` reaps it.
        """
        if self._borrowed:
            return
        try:
            self._shm.close()
        finally:
            if self._owner:
                _LOCAL_LOGS.pop(self._shm.name, None)
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"PostLog(name={self.name!r}, committed={self.committed}, capacity={self._capacity})"


class SharedBillboard(Billboard):
    """A per-shard billboard whose posts replicate through a :class:`PostLog`.

    Each worker holds one instance: local posts are appended to the log
    *and* installed locally; :meth:`sync` pulls foreign records up to
    the current epoch and installs them, so all read methods inherited
    from :class:`Billboard` observe a consistent prefix of the log's
    serial order.  Revealed grades need no replication — the oracle
    only reveals entries of players the local shard owns, and programs
    only read their own grades.
    """

    def __init__(
        self, n_players: int, n_objects: int, *, log: PostLog, shard: int, n_shards: int
    ) -> None:
        super().__init__(n_players, n_objects)
        self._log = log
        self._shard = int(shard)
        self._n_shards = int(n_shards)
        self._cursor = 0
        self._barriers: dict[str, set[int]] = {}
        self._exhausted_seen = False
        self._retired: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # write path: log first, then install locally
    # ------------------------------------------------------------------
    def post_vectors(self, channel: str, matrix: np.ndarray) -> None:
        staged = _Channel.of(matrix)
        if staged.packed is not None:
            kind, rows, payload = KIND_PACKED, staged.packed.shape[0], staged.packed.tobytes()
        else:
            assert staged.dense is not None
            kind, rows, payload = KIND_DENSE, staged.dense.shape[0], staged.dense.tobytes()
        self._log.append(kind, self._shard, channel, 0, payload, rows=rows, m=staged.m)
        self._store_post(channel, staged)

    def post_barrier(self, tag: str) -> None:
        """Announce this shard reached stage barrier *tag* (idempotent)."""
        if self._shard in self._barriers.get(tag, ()):
            return
        self._barriers.setdefault(tag, set()).add(self._shard)
        self._log.append(KIND_BARRIER, self._shard, tag, 0)

    def post_exhausted(self) -> None:
        """Announce the probe budget tripped (freezes every shard)."""
        self._exhausted_seen = True
        self._log.append(KIND_EXHAUSTED, self._shard, "", 0)

    # ------------------------------------------------------------------
    # read path: pull one epoch, install foreign records
    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Install all records committed since the last sync.

        Returns the number of records processed (foreign posts plus any
        markers); this shard's own posts, already installed on the local
        write path, are skipped by :meth:`PostLog.read` unparsed.  Reads
        are lock-free; between two syncs every billboard read observes
        the same epoch.
        """
        epoch, records = self._log.read(self._cursor, skip_shard=self._shard)
        self._cursor = epoch
        for rec in records:
            if rec.kind in _POST_KINDS:
                self._install(rec)
            elif rec.kind == KIND_BARRIER:
                self._barriers.setdefault(rec.channel, set()).add(rec.shard)
            elif rec.kind == KIND_EXHAUSTED:
                self._exhausted_seen = True
            else:  # pragma: no cover - format corruption
                raise ValueError(f"unknown post-log record kind {rec.kind}")
        return len(records)

    def retire(self, prefix: str) -> None:
        """Retire *prefix* here and in every later :meth:`sync`.

        A barrier retires a phase only once all its posts are installed,
        but a drained shard retires its interrupted phase while other
        shards may still be posting to it: those records must not come
        back.
        """
        super().retire(prefix)
        self._retired = (prefix,)

    def _install(self, rec: PostRecord) -> None:
        """Install one foreign post exactly as the poster stored it.

        The payload *is* the poster's stored array, so it is wrapped as
        a channel in place (read-only, over the record's bytes), never
        unpacked and repacked.  Posts to a retired phase are dropped.
        """
        if rec.channel.startswith(self._retired):
            return
        if rec.kind == KIND_PACKED:
            shape = (rec.rows, packed_width(rec.m))
            channel = _Channel(rec.m, packed=np.frombuffer(rec.payload, np.uint8).reshape(shape))
        else:
            dense = np.frombuffer(rec.payload, np.int16).reshape(rec.rows, rec.m)
            channel = _Channel(rec.m, dense=dense)
        self._store(rec.channel, channel)

    def barrier_complete(self, tag: str) -> bool:
        """Whether every shard has announced barrier *tag*."""
        return len(self._barriers.get(tag, ())) >= self._n_shards

    @property
    def epoch(self) -> int:
        """The log's committed watermark now (one 8-byte read): every
        post and marker any shard appends moves it."""
        return self._log.committed

    @property
    def exhausted_seen(self) -> bool:
        """Whether any shard announced budget exhaustion."""
        return self._exhausted_seen

    @property
    def shard(self) -> int:
        """This shard's id."""
        return self._shard
