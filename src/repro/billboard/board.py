"""The shared billboard.

The model (Section 1.1) lets every player read everything ever posted:
probe results ("the eBay ranking matrix") and other players' output
vectors (``w(p)`` "is accessible to all players").  The billboard stores

* **revealed grades**: a dense value matrix (entries only the owning
  player could have revealed, enforced by the oracle) — under the packed
  substrate the revealed mask is *derived* (``values != WILDCARD``;
  grades are 0/1, so the wildcard fill marks exactly the hidden
  entries), halving both the memory and the per-batch scatter cost —
  and :meth:`Billboard.grade_sink` lets the oracle extract and post a
  probe batch in one kernel pass
  (:func:`repro.metrics.kernels.fused_extract_post`); the dense
  reference substrate keeps the explicit mask + value pair, and
* **posted vector channels**: named matrices of intermediate outputs
  (e.g. the per-part Zero Radius results that Small Radius votes over,
  or the Small Radius outputs that Coalesce clusters).

Wildcards ("?" = -1) are allowed in posted vectors but not in revealed
grades.

Storage: under the default packed substrate, 0/1 posts (the vote
channels — by far the most numerous) are stored bit-packed and unpacked
only at the read boundary; posts carrying wildcards, ``NO_OUTPUT``
fills, or super-object values stay dense ``int16``.  Readers see
identical matrices either way (:func:`repro.metrics.bitpack.dense_substrate`
forces the dense reference storage for A/B runs), and the packed vote
pipeline — :meth:`Billboard.read_first_rows_packed` feeding
:func:`repro.utils.rowset.popular_rows_packed` — never materialises the
``int16`` vote stack at all.

Votes: channels are grouped by name prefix (``…zr/<node>/<player>``
belongs to group ``…zr/<node>``).  Each group counts its distinct
posted channels, so "has every voter posted?" is one integer compare,
and carries an epoch bumped by every store into it.  A vote is a
deterministic function of the group's posted rows, so
:meth:`Billboard.vote` computes it once and serves the cached,
read-only candidates to every later reader until the epoch moves —
local computation over the billboard is free in the paper's model, and
n players re-deriving the same vote was pure overhead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro import obs
from repro.obs import metrics
from repro.metrics import kernels
from repro.metrics.bitpack import pack_rows, packed_substrate_enabled, unpack_rows
from repro.utils import rowset
from repro.utils.validation import WILDCARD

__all__ = ["Billboard"]


class _Channel:
    """One posted-vector channel: bit-packed 0/1 rows or dense ``int16``.

    The packed form is chosen at post time (integer dtype, every entry
    0/1, packed substrate enabled); everything observable — read copies,
    first-row gathers, checkpoints — unpacks back to the exact ``int16``
    matrix the dense form stores.
    """

    __slots__ = ("dense", "packed", "m")

    def __init__(self, arr: np.ndarray) -> None:
        self.m = int(arr.shape[1])
        if (
            packed_substrate_enabled()
            and arr.size > 0
            and arr.dtype.kind in "iub"
            and int(arr.min()) >= 0
            and int(arr.max()) <= 1
        ):
            self.packed: np.ndarray | None = pack_rows(arr)
            self.dense: np.ndarray | None = None
        else:
            self.packed = None
            self.dense = np.array(arr, dtype=np.int16, copy=True)

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
        # Packed substrate: the revealed mask is derived from the value
        # matrix (grades are 0/1, WILDCARD marks hidden), so one int8
        # scatter per probe batch instead of two.  Dense substrate keeps
        # the explicit mask — the A/B reference representation.
        if packed_substrate_enabled():
            self._revealed: np.ndarray | None = None
        else:
            self._revealed = np.zeros((n_players, n_objects), dtype=bool)
        self._values = np.full((n_players, n_objects), WILDCARD, dtype=np.int8)
        self._channels: dict[str, _Channel] = {}
        self._groups: dict[str, _Group] = {}

    # ------------------------------------------------------------------
    # revealed grades
    # ------------------------------------------------------------------
    def post_grades(self, players: np.ndarray, objects: np.ndarray, values: np.ndarray) -> None:
        """Record revealed grades (called by the oracle after each probe batch).

        *values* are 0/1 grades — never :data:`WILDCARD`, which is what
        lets the derived-mask mode equate "revealed" with "non-wildcard".
        """
        if self._revealed is not None:
            self._revealed[players, objects] = True
            self._values[players, objects] = values
        else:
            kernels.scatter_values(
                self._values, players, objects, np.asarray(values, dtype=np.int8)
            )

    def grade_sink(self) -> np.ndarray | None:
        """The writable grade matrix for the oracle's fused probe path.

        In derived-mask mode a probe batch *is* one scatter of 0/1
        values into this matrix, so the oracle fuses extraction and
        posting into a single kernel pass
        (:func:`repro.metrics.kernels.fused_extract_post`) instead of
        calling :meth:`post_grades`.  Returns ``None`` under the dense
        reference substrate, where the explicit mask must be updated too
        and the oracle takes the :meth:`post_grades` path.
        """
        if self._revealed is not None:
            return None
        return self._values

    def is_revealed(self, player: int, obj: int) -> bool:
        """Whether ``(player, obj)`` has ever been probed."""
        if self._revealed is not None:
            return bool(self._revealed[player, obj])
        return bool(self._values[player, obj] != WILDCARD)

    def is_revealed_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Per-pair revealed flags for a probe batch (fresh bool array).

        The batch twin of :meth:`is_revealed` — a k-element gather, so
        the oracle's ``charge_repeats=False`` path never materialises
        the full ``(n, m)`` mask.
        """
        if self._revealed is not None:
            return self._revealed[players, objects]
        return np.not_equal(self._values[players, objects], WILDCARD)

    def grade(self, player: int, obj: int) -> int:
        """The revealed grade of ``(player, obj)``; raises ``KeyError`` if hidden."""
        if not self.is_revealed(player, obj):
            raise KeyError(f"grade ({player}, {obj}) has not been revealed")
        return int(self._values[player, obj])

    def revealed_mask(self) -> np.ndarray:
        """Read-only ``(n, m)`` revealed-entry mask.

        A view in dense mode; a fresh (also read-only) array computed as
        ``values != WILDCARD`` in derived-mask mode.  Per-player hot
        paths should prefer :meth:`revealed_row` /
        :meth:`is_revealed_many`, which never build the full mask.
        """
        if self._revealed is not None:
            view = self._revealed.view()
            view.flags.writeable = False
            return view
        mask = np.not_equal(self._values, WILDCARD)
        mask.flags.writeable = False
        return mask

    def revealed_row(self, player: int) -> np.ndarray:
        """Read-only revealed flags of one player's row."""
        if self._revealed is not None:
            row = self._revealed[player].view()
        else:
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
        if self._revealed is not None:
            return int(self._revealed.sum())
        return int(np.count_nonzero(self._values != WILDCARD))

    # ------------------------------------------------------------------
    # posted vector channels
    # ------------------------------------------------------------------
    def post_vectors(self, channel: str, matrix: np.ndarray) -> None:
        """Publish a matrix of vectors under *channel* (overwrites)."""
        arr = np.asarray(matrix)
        if arr.ndim != 2:
            raise ValueError(f"posted vectors must be 2-D, got shape {arr.shape}")
        obs.incr("billboard.vector_posts")
        metrics.incr("board.vector_posts_total")
        self._store(channel, _Channel(arr))

    def _store(self, name: str, channel: _Channel) -> None:
        """Install *channel* under *name*: the one write into the channel dict.

        Counts a new name towards its group and bumps the group epoch on
        every store (first post, overwrite, restore, log install), which
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
        first = chans[0]
        if first.packed is not None and all(
            ch.packed is not None and ch.m == first.m for ch in chans
        ):
            packed = np.empty((len(chans), first.packed.shape[1]), dtype=np.uint8)
            for i, ch in enumerate(chans):
                assert ch.packed is not None
                packed[i] = ch.packed[0]
            out = unpack_rows(packed, first.m, dtype=np.int16)
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
        first = chans[0]
        if first.packed is None or any(
            ch.packed is None or ch.m != first.m for ch in chans
        ):
            return None
        packed = np.empty((len(chans), first.packed.shape[1]), dtype=np.uint8)
        for i, ch in enumerate(chans):
            assert ch.packed is not None
            packed[i] = ch.packed[0]
        obs.incr("billboard.vector_reads", len(chans))
        metrics.incr("board.vector_reads_total", len(chans))
        return packed, first.m

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
    def checkpoint(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Copies of the full board state: ``(revealed, values, channels)``.

        The sanctioned export for :mod:`repro.serve.snapshot` — copies,
        so a snapshot taken now is unaffected by later posts.  The mask
        is exported explicitly either way, so snapshots written by a
        derived-mask board restore onto a dense-mode board and back.
        """
        if self._revealed is not None:
            revealed = self._revealed.copy()
        else:
            revealed = np.not_equal(self._values, WILDCARD)
        return (
            revealed,
            self._values.copy(),
            {name: ch.matrix() for name, ch in self._channels.items()},
        )

    def _install_grades(self, revealed: np.ndarray, values: np.ndarray) -> None:
        """Install checkpointed grade state, preserving the derived mode.

        Any state this class can produce satisfies ``revealed ==
        (values != WILDCARD)`` (grades are 0/1 and hidden entries are
        wildcard-filled), so a derived-mask board installs the values
        alone.  A hand-crafted inconsistent checkpoint falls back to the
        explicit dual-store representation rather than silently dropping
        the mask.
        """
        if self._revealed is None:
            if bool(np.array_equal(np.not_equal(values, WILDCARD), revealed)):
                self._values[:] = values
                return
            self._revealed = np.zeros((self.n_players, self.n_objects), dtype=bool)
        self._revealed[:] = revealed
        self._values[:] = values

    @classmethod
    def restore(
        cls,
        revealed: np.ndarray,
        values: np.ndarray,
        channels: dict[str, np.ndarray],
    ) -> "Billboard":
        """Rebuild a board from :meth:`checkpoint` output (arrays are copied)."""
        revealed_arr = np.asarray(revealed, dtype=bool)
        values_arr = np.asarray(values, dtype=np.int8)
        if revealed_arr.ndim != 2 or revealed_arr.shape != values_arr.shape:
            raise ValueError(
                f"revealed/values must be equal-shape 2-D, got {revealed_arr.shape} and {values_arr.shape}"
            )
        board = cls(revealed_arr.shape[0], revealed_arr.shape[1])
        board._install_grades(revealed_arr, values_arr)
        for name, arr in channels.items():
            board._store(name, _Channel(np.asarray(arr)))
        return board

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return (
            f"Billboard(n={self.n_players}, m={self.n_objects}, "
            f"revealed={self.n_revealed}, channels={len(self._channels)})"
        )
