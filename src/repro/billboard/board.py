"""The shared billboard.

The model (Section 1.1) lets every player read everything ever posted:
probe results ("the eBay ranking matrix") and other players' output
vectors (``w(p)`` "is accessible to all players").  The billboard stores

* **revealed grades**: a dense value matrix (entries only the owning
  player could have revealed, enforced by the oracle) whose revealed
  mask is *derived* (``values != WILDCARD``; grades are 0/1, so the
  wildcard fill marks exactly the hidden entries) — one matrix, one
  scatter per probe batch — and :meth:`Billboard.grade_sink` lets the
  oracle extract and post a probe batch in one kernel pass
  (:func:`repro.metrics.kernels.fused_extract_post`), and
* **posted vector channels**: named matrices of intermediate outputs
  (e.g. the per-part Zero Radius results that Small Radius votes over,
  or the Small Radius outputs that Coalesce clusters).

Wildcards ("?" = -1) are allowed in posted vectors but not in revealed
grades.

Storage: 0/1 posts (the vote channels — by far the most numerous) are
stored bit-packed and unpacked only at the read boundary; posts
carrying wildcards, ``NO_OUTPUT`` fills, or super-object values stay
dense ``int16``.  The data alone decides; readers see identical
matrices either way, and the packed vote pipeline —
:meth:`Billboard.read_first_rows_packed` feeding
:func:`repro.utils.rowset.popular_rows_packed` — never materialises the
``int16`` vote stack at all.  A stored channel is immutable (its
arrays are read-only), so post-log replicas share it by reference.

Votes: channels are grouped by name prefix (``…zr/<node>/<player>``
belongs to group ``…zr/<node>``).  Each group counts its distinct
posted channels, so "has every voter posted?" is one integer compare,
and carries an epoch bumped by every store into it.  A vote is a
deterministic function of the group's posted rows, so
:meth:`Billboard.vote` computes it once and serves the cached,
read-only candidates to every later reader until the epoch moves —
local computation over the billboard is free in the paper's model, and
n players re-deriving the same vote was pure overhead.

Retirement: once no program can read a name prefix again (the serving
runtime's phase barriers, whose channels are all ``phase<j>/…``),
:meth:`Billboard.retire` drops its channels and groups, so a
checkpoint is the grade matrix alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.metrics import kernels
from repro.metrics.bitpack import pack_rows, unpack_rows
from repro.utils import rowset
from repro.utils.validation import WILDCARD

__all__ = ["Billboard"]


class _Channel:
    """One posted-vector channel: bit-packed 0/1 rows or dense ``int16``.

    The packed form is chosen at post time from the data alone (integer
    dtype, every entry 0/1); everything observable — read copies and
    first-row gathers — unpacks back to the exact ``int16`` matrix the
    dense form stores.

    A channel is immutable: both arrays are read-only from construction
    and an overwrite stores a new channel.  So a post-log append and a
    replica's install share the one record instead of copying or
    converting it.
    """

    __slots__ = ("dense", "packed", "m")

    def __init__(
        self, m: int, packed: np.ndarray | None = None, dense: np.ndarray | None = None
    ) -> None:
        self.m = int(m)
        self.packed = packed
        self.dense = dense
        for arr in (packed, dense):
            if arr is not None:
                arr.flags.writeable = False

    @classmethod
    def of(cls, matrix: np.ndarray) -> "_Channel":
        """The channel posting *matrix* stores (a packed or dense copy)."""
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise ValueError(f"posted vectors must be 2-D, got shape {arr.shape}")
        m = int(arr.shape[1])
        if (
            arr.size > 0
            and arr.dtype.kind in "iub"
            and int(arr.min()) >= 0
            and int(arr.max()) <= 1
        ):
            return cls(m, packed=pack_rows(arr))
        return cls(m, dense=np.array(arr, dtype=np.int16, copy=True))

    def matrix(self) -> np.ndarray:
        """Fresh dense ``int16`` copy of the posted matrix."""
        if self.dense is not None:
            return self.dense.copy()
        assert self.packed is not None
        return unpack_rows(self.packed, self.m, dtype=np.int16)

    def first_row(self) -> np.ndarray:
        """Dense ``int16`` first row (raises ``IndexError`` when empty)."""
        if self.dense is not None:
            return self.dense[0]
        assert self.packed is not None
        return unpack_rows(self.packed[:1], self.m, dtype=np.int16)[0]


def _stack_first_rows_packed(chans: list[_Channel]) -> np.ndarray | None:
    """The first rows of *chans* stacked still packed, one row each.

    ``None`` when any channel is stored dense or the widths differ.
    """
    first = chans[0]
    if first.packed is None or any(ch.packed is None or ch.m != first.m for ch in chans):
        return None
    packed = np.empty((len(chans), first.packed.shape[1]), dtype=np.uint8)
    for i, ch in enumerate(chans):
        assert ch.packed is not None
        packed[i] = ch.packed[0]
    return packed


class _Group:
    """One channel group: distinct posted channels, epoch, cached votes.

    ``votes`` maps ``min_votes`` to ``(epoch, players, candidates)``;
    an entry is valid while the group's epoch still equals its own.
    """

    __slots__ = ("posted", "epoch", "votes")

    def __init__(self) -> None:
        self.posted = 0
        self.epoch = 0
        self.votes: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}


class Billboard:
    """Public shared state for one algorithm run over an ``n × m`` instance."""

    def __init__(self, n_players: int, n_objects: int) -> None:
        if n_players <= 0 or n_objects <= 0:
            raise ValueError(f"population must be positive, got n={n_players}, m={n_objects}")
        self.n_players = int(n_players)
        self.n_objects = int(n_objects)
        # The revealed mask is derived from the value matrix (grades are
        # 0/1, WILDCARD marks hidden), so a probe batch is one scatter.
        self._values = np.full((n_players, n_objects), WILDCARD, dtype=np.int8)
        self._channels: dict[str, _Channel] = {}
        self._groups: dict[str, _Group] = {}

    # ------------------------------------------------------------------
    # revealed grades
    # ------------------------------------------------------------------
    def post_grades(self, players: np.ndarray, objects: np.ndarray, values: np.ndarray) -> None:
        """Record revealed grades (called by the oracle after each probe batch).

        *values* are 0/1 grades — never :data:`WILDCARD`, which is what
        lets the board equate "revealed" with "non-wildcard".
        """
        kernels.scatter_values(
            self._values, players, objects, np.asarray(values, dtype=np.int8)
        )

    def grade_sink(self) -> np.ndarray:
        """The writable grade matrix for the oracle's fused probe path.

        A probe batch *is* one scatter of 0/1 values into this matrix,
        so the oracle fuses extraction and posting into a single kernel
        pass (:func:`repro.metrics.kernels.fused_extract_post`) instead
        of calling :meth:`post_grades`.
        """
        return self._values

    def is_revealed(self, player: int, obj: int) -> bool:
        """Whether ``(player, obj)`` has ever been probed."""
        return bool(self._values[player, obj] != WILDCARD)

    def is_revealed_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Per-pair revealed flags for a probe batch (fresh bool array).

        The batch twin of :meth:`is_revealed` — a k-element gather, so
        the oracle's ``charge_repeats=False`` path never materialises
        the full ``(n, m)`` mask.
        """
        return np.not_equal(self._values[players, objects], WILDCARD)

    def grade(self, player: int, obj: int) -> int:
        """The revealed grade of ``(player, obj)``; raises ``KeyError`` if hidden."""
        if not self.is_revealed(player, obj):
            raise KeyError(f"grade ({player}, {obj}) has not been revealed")
        return int(self._values[player, obj])

    def revealed_mask(self) -> np.ndarray:
        """Read-only ``(n, m)`` revealed-entry mask.

        A fresh array computed as ``values != WILDCARD``.  Per-player
        hot paths should prefer :meth:`revealed_row` /
        :meth:`is_revealed_many`, which never build the full mask.
        """
        mask = np.not_equal(self._values, WILDCARD)
        mask.flags.writeable = False
        return mask

    def revealed_row(self, player: int) -> np.ndarray:
        """Read-only revealed flags of one player's row."""
        row = np.not_equal(self._values[player], WILDCARD)
        row.flags.writeable = False
        return row

    def revealed_values(self) -> np.ndarray:
        """Read-only ``(n, m)`` matrix of revealed grades (hidden entries = -1)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def n_revealed(self) -> int:
        """Total number of revealed entries."""
        return int(np.count_nonzero(self._values != WILDCARD))

    # ------------------------------------------------------------------
    # posted vector channels
    # ------------------------------------------------------------------
    def post_vectors(self, channel: str, matrix: np.ndarray) -> None:
        """Publish a matrix of vectors under *channel* (overwrites)."""
        self._store_post(channel, _Channel.of(matrix))

    def _store_post(self, name: str, channel: _Channel) -> None:
        """Count one post and :meth:`_store` it (every poster's last step)."""
        obs.incr("billboard.vector_posts")
        metrics.incr("board.vector_posts_total")
        self._store(name, channel)

    def _store(self, name: str, channel: _Channel) -> None:
        """Install *channel* under *name*: the one write into the channel dict.

        Counts a new name towards its group and bumps the group epoch on
        every store (first post, overwrite, log install), which
        invalidates the group's cached votes.
        """
        group_name = name.rpartition("/")[0]
        group = self._groups.get(group_name)
        if group is None:
            group = self._groups[group_name] = _Group()
        if name not in self._channels:
            group.posted += 1
        group.epoch += 1
        self._channels[name] = channel

    def retire(self, prefix: str) -> None:
        """Drop every channel named ``prefix…`` and the groups they form.

        For names no program will read again: a serving phase barrier
        retires its phase's ``phase<j>/`` channels.  Cached votes go
        with their groups, so a later post under a retired name starts
        a fresh group, and a read of one raises ``KeyError``.  *prefix*
        must end in ``/``, so every group it touches is retired whole.
        """
        if not prefix.endswith("/"):
            raise ValueError(f"retire prefix must end in '/', got {prefix!r}")
        self._channels = {n: ch for n, ch in self._channels.items() if not n.startswith(prefix)}
        self._groups = {g: e for g, e in self._groups.items() if not f"{g}/".startswith(prefix)}

    def read_vectors(self, channel: str) -> np.ndarray:
        """Read the matrix posted under *channel* (copy, so readers can't mutate)."""
        if channel not in self._channels:
            raise KeyError(f"no vectors posted under channel {channel!r}")
        obs.incr("billboard.vector_reads")
        metrics.incr("board.vector_reads_total")
        return self._channels[channel].matrix()

    def has_channel(self, channel: str) -> bool:
        """Whether *channel* has been posted."""
        return channel in self._channels

    def has_channels(self, channels: Iterable[str]) -> bool:
        """Whether every named channel has been posted."""
        store = self._channels
        return all(channel in store for channel in channels)

    def group_ready(self, group: str, size: int) -> bool:
        """Whether *size* distinct channels ``group/…`` have been posted."""
        entry = self._groups.get(group)
        return entry is not None and entry.posted >= size

    def vote(self, group: str, players: np.ndarray, min_votes: int) -> np.ndarray | None:
        """Popular first rows of the channels ``group/<q>``, *q* in *players*.

        Returns ``None`` until the group holds ``players.size`` posted
        channels (the caller yields a ``Wait``), else the unique rows
        with at least *min_votes* supporters, as a read-only matrix
        (:func:`repro.utils.rowset.popular_rows`, plurality fallback
        included).  The result is cached per ``(group, min_votes)`` and
        reused while the group's epoch and the voter set are unchanged.
        A miss gathers the named channels, so a group that counts a
        channel outside *players* raises ``KeyError`` rather than
        voting over the wrong rows.
        """
        entry = self._groups.get(group)
        if entry is None or entry.posted < players.size:
            return None
        cached = entry.votes.get(min_votes)
        if (
            cached is not None
            and cached[0] == entry.epoch
            and (cached[1] is players or np.array_equal(cached[1], players))
        ):
            metrics.incr("board.vote_cache_hits_total")
            return cached[2]
        needed = [f"{group}/{int(q)}" for q in players]
        gathered = self.read_first_rows_packed(needed)
        if gathered is not None:
            candidates = rowset.popular_rows_packed(gathered[0], gathered[1], min_votes)
        else:
            candidates = rowset.popular_rows(self.read_first_rows(needed), min_votes)
        candidates.flags.writeable = False
        entry.votes[min_votes] = (entry.epoch, players, candidates)
        metrics.incr("board.vote_computes_total")
        return candidates

    def read_first_rows(self, channels: Sequence[str]) -> np.ndarray:
        """Stack the first row of each named channel into one fresh matrix.

        The batched form of the ``read_vectors(ch)[0]`` gather loop the
        player programs vote over: one counter bump and one allocation
        for the whole wavefront instead of a full-matrix copy per
        channel.  Values are bitwise identical to the scalar loop, and
        ``np.stack`` allocates the result, so callers still cannot
        mutate board state.
        """
        chans = self._gather_channels(channels)
        packed = _stack_first_rows_packed(chans)
        if packed is not None:
            out = unpack_rows(packed, chans[0].m, dtype=np.int16)
        else:
            out = np.stack([ch.first_row() for ch in chans])
        obs.incr("billboard.vector_reads", len(chans))
        metrics.incr("board.vector_reads_total", len(chans))
        return out

    def read_first_rows_packed(self, channels: Sequence[str]) -> tuple[np.ndarray, int] | None:
        """Packed twin of :meth:`read_first_rows`: ``(packed rows, m)``.

        Returns the gathered first rows still bit-packed — the input
        :func:`repro.utils.rowset.popular_rows_packed` dedups without
        ever materialising the ``int16`` vote stack — or ``None`` when
        any requested channel is stored dense or widths differ, in which
        case the caller falls back to :meth:`read_first_rows` (no
        counter was bumped yet).  On the packed path the
        ``billboard.vector_reads`` counter advances exactly as the dense
        gather would.
        """
        chans = self._gather_channels(channels)
        packed = _stack_first_rows_packed(chans)
        if packed is None:
            return None
        obs.incr("billboard.vector_reads", len(chans))
        metrics.incr("board.vector_reads_total", len(chans))
        return packed, chans[0].m

    def _gather_channels(self, channels: Sequence[str]) -> list[_Channel]:
        store = self._channels
        try:
            chans = [store[channel] for channel in channels]
        except KeyError:
            missing = next(ch for ch in channels if ch not in store)
            raise KeyError(f"no vectors posted under channel {missing!r}") from None
        if not chans:
            raise ValueError("read_first_rows needs at least one channel")
        return chans

    def channels(self) -> list[str]:
        """All posted channel names."""
        return sorted(self._channels)

    # ------------------------------------------------------------------
    # checkpoint / restore (service snapshots)
    # ------------------------------------------------------------------
    def checkpoint(self) -> tuple[np.ndarray, np.ndarray]:
        """The grade state at this cut: ``(revealed, values)``, both copies.

        The sanctioned export for :mod:`repro.serve.snapshot`.  Posted
        channels are not part of it: a serving phase barrier retires
        every channel its phase posted (:meth:`retire`), so at a cut the
        board holds none a later phase could read.  The mask is exported
        explicitly (``values != WILDCARD``), so archives carry the
        logical state, not the storage.
        """
        return np.not_equal(self._values, WILDCARD), self._values.copy()

    def restore_state(self, revealed: np.ndarray, values: np.ndarray) -> None:
        """Install :meth:`checkpoint` output into this board (arrays are copied).

        The one restore path of every board: a shard's
        :class:`~repro.billboard.postlog.SharedBillboard` installs the
        global checkpoint locally without logging it (every worker
        installs the same state, so nothing needs replicating).

        Any state this class can produce holds only 0/1 grades and
        :data:`WILDCARD` and satisfies ``revealed == (values !=
        WILDCARD)``, so a checkpoint that breaks either can only come
        from a corrupt file: raise rather than guess what was meant.
        """
        revealed_arr = np.asarray(revealed, dtype=bool)
        values_raw = np.asarray(values)
        shape = (self.n_players, self.n_objects)
        if revealed_arr.shape != shape or values_raw.shape != shape:
            raise ValueError(
                f"revealed/values shapes {revealed_arr.shape} and {values_raw.shape} "
                f"do not match the board {shape}"
            )
        out_of_range = (values_raw < WILDCARD) | (values_raw > 1)
        if out_of_range.any():
            player, obj = (int(i) for i in np.argwhere(out_of_range)[0])
            raise ValueError(
                f"grade checkpoint holds values[{player}, {obj}] = {values_raw[player, obj]}: "
                f"grades are 0/1 and hidden entries {WILDCARD}"
            )
        values_arr = values_raw.astype(np.int8, copy=False)
        mismatch = np.not_equal(np.not_equal(values_arr, WILDCARD), revealed_arr)
        if mismatch.any():
            player, obj = (int(i) for i in np.argwhere(mismatch)[0])
            raise ValueError(
                f"inconsistent grade checkpoint: revealed[{player}, {obj}] is "
                f"{bool(revealed_arr[player, obj])} but values[{player}, {obj}] is "
                f"{int(values_arr[player, obj])} ({int(mismatch.sum())} entries disagree)"
            )
        self._values[:] = values_arr

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"Billboard(n={self.n_players}, m={self.n_objects}, "
            f"revealed={self.n_revealed}, channels={len(self._channels)})"
        )
