"""The watermark-protocol-checking post log (``REPRO_SANITIZE=1``).

:class:`SanitizedPostLog` is a drop-in :class:`~repro.billboard.postlog.PostLog`
subclass that turns the commit protocol's informal guarantees into
hard assertions, on both sides of the shared segment:

**Writer side** (checked in :meth:`_publish`, *before* the watermark
store becomes visible to any reader):

* the watermark only ever advances, by a positive 8-byte-aligned step;
* the segment's current watermark equals the value the append started
  from — a mismatch means two writers raced past the lock (or a caller
  bypassed it);
* *bytes land first*: the record body in ``[old, new)`` must already
  re-parse completely — valid kind, self-consistent size, channel name
  that decodes, payload that fits — because the moment the watermark
  moves, a reader is entitled to interpret those bytes.  A variant
  that stores the watermark before the body (the classic torn-write
  bug) fails here deterministically, no adversarial scheduling needed.

**Reader side** (checked via the read hooks):

* the observed epoch never regresses on a given handle and never
  exceeds the segment capacity;
* every record parsed sits entirely below the epoch snapshot — a
  record straddling the watermark means the reader is interpreting
  uncommitted bytes;
* record headers are sane: positive aligned size, known kind, payload
  length consistent with the size field.

All violations raise :class:`SanitizeError` (an ``AssertionError``
subclass: sanitizer findings are contract violations, not operational
errors, and ``except Exception`` recovery paths in the runtime still
propagate them in spirit — nothing catches bare ``AssertionError``).

The class is instantiated automatically by ``PostLog.create``/
``attach`` when ``REPRO_SANITIZE=1`` (see ``_log_class`` in the
billboard module), so the whole sharded runtime — every worker's
appends and every epoch read — runs under these checks with no call
sites changed.
"""

from __future__ import annotations

import os
import struct
from typing import Any

from repro.billboard.postlog import (
    _HEADER,
    _REC,
    KIND_BARRIER,
    KIND_DENSE,
    KIND_EXHAUSTED,
    KIND_PACKED,
    PostLog,
)
from repro.metrics.bitpack import packed_width

__all__ = ["SanitizeError", "SanitizedPostLog"]

_KNOWN_KINDS = frozenset({KIND_PACKED, KIND_DENSE, KIND_BARRIER, KIND_EXHAUSTED})


class SanitizeError(AssertionError):
    """A watermark-protocol violation detected by the sanitizer."""


class SanitizedPostLog(PostLog):
    """A :class:`PostLog` whose commit protocol is assertion-checked."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Highest epoch this handle has observed (reader monotonicity).
        self._last_epoch = 0
        #: The process that opened this handle: a handle inherited across
        #: a fork reports both pids when its epoch regresses.
        self._opened_pid = os.getpid()

    # ------------------------------------------------------------------
    # writer side: bytes-land-first, monotonic watermark
    # ------------------------------------------------------------------
    def _publish(self, old: int, new: int) -> None:
        if new <= old or (new - old) % 8 != 0:
            raise SanitizeError(
                f"watermark step must be a positive multiple of 8: {old} -> {new}"
            )
        current = self.committed
        if current != old:
            raise SanitizeError(
                f"lost update: append started at watermark {old} but the segment "
                f"is at {current} — writers raced past the append lock"
            )
        self._check_committed_record(old, new)
        super()._publish(old, new)

    def _check_committed_record(self, old: int, new: int) -> None:
        """Re-parse the record in ``[old, new)``: its bytes must be down."""
        buf = self._shm.buf
        offset = _HEADER.size + old
        try:
            size, kind, _shard, rows, m, _seq, name_len = _REC.unpack_from(buf, offset)
        except struct.error as exc:
            raise SanitizeError(f"record header at {old} does not parse: {exc}") from exc
        if size != new - old:
            raise SanitizeError(
                f"record size field {size} at {old} disagrees with the published "
                f"watermark step {new - old}: body bytes are not down before commit"
            )
        self._check_record(old, new, size, kind, rows, m, name_len)
        name_start = offset + _REC.size
        try:
            bytes(buf[name_start : name_start + name_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SanitizeError(
                f"channel name bytes at {old} are not valid UTF-8 — "
                f"the record body was not written before the watermark"
            ) from exc

    # ------------------------------------------------------------------
    # reader side: epoch monotonicity, records strictly below the epoch
    # ------------------------------------------------------------------
    def _observe_epoch(self, epoch: int) -> None:
        if epoch < self._last_epoch:
            raise SanitizeError(
                f"epoch regressed on this handle: {self._last_epoch} -> {epoch} "
                f"(post-log segment {self.name!r}, handle opened by pid "
                f"{self._opened_pid}, read in pid {os.getpid()})"
            )
        if epoch > self.capacity or epoch % 8 != 0:
            raise SanitizeError(f"implausible epoch {epoch} (capacity {self.capacity})")
        self._last_epoch = epoch

    def _check_record(
        self, pos: int, epoch: int, size: int, kind: int, rows: int, m: int, name_len: int
    ) -> None:
        if size <= 0 or size % 8 != 0:
            raise SanitizeError(
                f"record at {pos} has invalid size {size}: reading bytes the "
                f"writer never committed (watermark published before the body?)"
            )
        if pos + size > epoch:
            raise SanitizeError(
                f"record at {pos} (size {size}) straddles the epoch {epoch}: "
                f"a reader is interpreting uncommitted bytes"
            )
        if kind not in _KNOWN_KINDS:
            raise SanitizeError(f"record at {pos} has unknown kind {kind}")
        if kind == KIND_PACKED:
            payload_len = rows * packed_width(m)
        elif kind == KIND_DENSE:
            payload_len = rows * m * 2
        else:
            payload_len = 0
        if _REC.size + name_len + payload_len > size:
            raise SanitizeError(
                f"record at {pos}: name ({name_len}) + payload ({payload_len}) "
                f"overflow the size field {size}"
            )
