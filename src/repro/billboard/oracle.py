"""The probe oracle: the only gate between algorithms and hidden preferences.

Every ``Probe`` invocation of the paper maps to :meth:`ProbeOracle.probe`
(scalar) or :meth:`ProbeOracle.probe_many` (vectorized batch — the HPC
guides' idiom of lifting the per-player loop into NumPy; semantically it
is still one probe per listed player, each individually charged).

Cost model fidelity:

* every invocation is charged to the invoking player, *including*
  re-probes of already-revealed entries — the paper's Select explicitly
  "disregards probes done before its execution", i.e. the upper bounds
  charge repeats, and so do we (set ``charge_repeats=False`` to model a
  cleverer client that reuses its own billboard posts);
* optional per-player budgets raise
  :class:`~repro.billboard.exceptions.BudgetExceededError`, used by the
  anytime experiments;
* results are mirrored onto the billboard, as the model requires
  ("probes one object, and writes the result on the billboard").

Storage: the hidden matrix always lives bit-packed
(:class:`~repro.metrics.bitpack.BitMatrix`, 8× smaller than ``int8``).
Probes answer by word-indexed bit extraction, and every batch extracts,
posts and (when no budget can trip mid-batch) charges in one fused
kernel pass.  ``tests/test_substrate_equivalence.py`` and
``tests/test_substrate_model.py`` referee it against test-local dense
models.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import obs
from repro.billboard.accounting import PhaseLedger, ProbeStats
from repro.billboard.board import Billboard
from repro.billboard.exceptions import BudgetExceededError, ProbeError
from repro.metrics import kernels
from repro.metrics.bitpack import BitMatrix
from repro.model.instance import Instance

if TYPE_CHECKING:  # observational layer; imported for annotations only
    from repro.billboard.trace import ProbeTrace

__all__ = ["ProbeOracle"]


class ProbeOracle:
    """Gatekeeper over a hidden preference matrix.

    Parameters
    ----------
    prefs:
        Hidden ``(n, m)`` 0/1 matrix, an :class:`~repro.model.Instance`,
        or an already-packed :class:`~repro.metrics.bitpack.BitMatrix`
        (e.g. a shared-memory attach) — a ``BitMatrix`` is adopted as-is,
        never densified.
    billboard:
        Billboard to mirror reveals onto; a fresh one is created if omitted.
    budget:
        Optional per-player probe cap.
    charge_repeats:
        Charge probes of already-revealed entries (paper-faithful default
        ``True``).
    """

    def __init__(
        self,
        prefs: np.ndarray | Instance | BitMatrix,
        *,
        billboard: Billboard | None = None,
        budget: int | None = None,
        charge_repeats: bool = True,
    ) -> None:
        if isinstance(prefs, Instance):
            prefs = prefs.prefs
        self._prefs = prefs if isinstance(prefs, BitMatrix) else BitMatrix(prefs, name="prefs")
        self._packed = self._prefs.packed
        n, m = self._prefs.shape
        self.billboard = billboard if billboard is not None else Billboard(n, m)
        if (self.billboard.n_players, self.billboard.n_objects) != (n, m):
            raise ValueError("billboard shape does not match preference matrix")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.budget = budget
        self.charge_repeats = bool(charge_repeats)
        self._counts = np.zeros(n, dtype=np.int64)
        self._batches = 0
        self.ledger = PhaseLedger()
        self._trace: ProbeTrace | None = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_players(self) -> int:
        """Population size ``n``."""
        return self._prefs.shape[0]

    @property
    def n_objects(self) -> int:
        """Object count ``m``."""
        return self._prefs.shape[1]

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self, player: int, obj: int) -> int:
        """Player *player* probes object *obj*; returns the 0/1 grade."""
        if not (0 <= player < self.n_players):
            raise ProbeError(f"player index {player} out of range [0, {self.n_players})")
        if not (0 <= obj < self.n_objects):
            raise ProbeError(f"object index {obj} out of range [0, {self.n_objects})")
        charged = self.charge_repeats or not self.billboard.is_revealed(player, obj)
        if charged:
            if self.budget is not None and self._counts[player] + 1 > self.budget:
                raise BudgetExceededError(player, self.budget)
            self._counts[player] += 1
        value = int(kernels.extract_bits(self._packed, np.asarray(player), np.asarray(obj)))
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counters.incr(
                "oracle.probes_charged" if charged else "oracle.reprobes_uncharged"
            )
        self.billboard.post_grades(np.asarray([player]), np.asarray([obj]), np.asarray([value], dtype=np.int8))
        if self._trace is not None:
            self._trace.record_batch(
                np.asarray([player]), np.asarray([obj]),
                np.asarray([value]), np.asarray([charged]),
            )
        return value

    def probe_many(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """Batch probe: ``players[i]`` probes ``objects[i]`` for all i.

        Each pair is charged exactly as under :meth:`probe`; duplicates in
        the batch are each charged (they are distinct probe actions).
        """
        players = np.asarray(players, dtype=np.intp)
        objects = np.asarray(objects, dtype=np.intp)
        if players.shape != objects.shape or players.ndim != 1:
            raise ProbeError(f"players/objects must be equal-length 1-D, got {players.shape} and {objects.shape}")
        if players.size == 0:
            return np.empty(0, dtype=np.int8)
        # One pass per array: a negative index viewed unsigned is huge.
        if players.view(np.uintp).max() >= self.n_players:
            raise ProbeError("player index out of range in batch probe")
        if objects.view(np.uintp).max() >= self.n_objects:
            raise ProbeError("object index out of range in batch probe")

        # When every probe is charged and no budget can trip mid-batch,
        # the accounting bincount folds into the fused kernel pass.
        fold_counts = self.charge_repeats and self.budget is None

        if self.charge_repeats:
            # Every listed pair is charged: skip materialising the mask
            # and the `players[charged]` gather entirely (the all-ones
            # boolean pass was a measurable share of the batch cost).
            charged: np.ndarray | None = None
            n_charged = players.size
            add = None if fold_counts else np.bincount(players, minlength=self.n_players)
        else:
            charged = ~self.billboard.is_revealed_many(players, objects)
            # Duplicates inside the batch: only the first reveal of an
            # unrevealed entry is free of a prior post, so charge the first
            # occurrence only (subsequent ones hit the just-posted entry).
            if charged.any():
                pair_ids = players * self.n_objects + objects
                _, first_idx = np.unique(pair_ids, return_index=True)
                first_mask = np.zeros(players.size, dtype=bool)
                first_mask[first_idx] = True
                charged &= first_mask
            n_charged = int(charged.sum())
            add = np.bincount(players[charged], minlength=self.n_players)

        if self.budget is not None:
            assert add is not None  # fold_counts requires budget is None
            new_counts = self._counts + add
            over = np.flatnonzero(new_counts > self.budget)
            if over.size:
                raise BudgetExceededError(int(over[0]), self.budget)
        if add is not None:
            self._counts += add
        self._batches += 1

        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counters.incr("oracle.probes_charged", n_charged)
            if n_charged < players.size:
                recorder.counters.incr("oracle.reprobes_uncharged", players.size - n_charged)
            recorder.counters.incr("oracle.probe_batches")

        # Extraction, posting, and (on the all-charged unbudgeted path)
        # accounting are one fused kernel pass over the batch.
        values = kernels.fused_extract_post(
            self._packed, self.billboard.grade_sink(), players, objects,
            self._counts if fold_counts else None,
        )
        if self._trace is not None:
            if charged is None:
                charged = np.ones(players.size, dtype=bool)
            self._trace.record_batch(players, objects, values, charged)
        return values.astype(np.int8, copy=False)

    def probe_all(self, player: int, objects: np.ndarray) -> np.ndarray:
        """Player probes every object in *objects* (Zero Radius base case)."""
        objects = np.asarray(objects, dtype=np.intp)
        players = np.full(objects.shape, player, dtype=np.intp)
        return self.probe_many(players, objects)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> ProbeStats:
        """Snapshot of per-player probe counts."""
        return ProbeStats(self._counts.copy())

    @property
    def batch_count(self) -> int:
        """Number of :meth:`probe_many` batches issued so far.

        A diagnostic of batching: the population drivers amortise the
        charged probes over a few large batches (``total / batch_count``
        is the mean batch width).
        """
        return self._batches

    def remaining(self, player: int) -> int | float:
        """Remaining budget of *player* (``inf`` when unbudgeted)."""
        if self.budget is None:
            return float("inf")
        return int(self.budget - self._counts[player])

    # ------------------------------------------------------------------
    # checkpoint / restore (service snapshots)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, np.ndarray]:
        """Copies of the oracle's state: ``{"prefs": dense hidden matrix,
        "counts": per-player charged counts}``.

        The matrix is exported *dense* (the packed substrate unpacks
        here, at the boundary); the billboard is checkpointed separately
        via :meth:`Billboard.checkpoint`.
        """
        return {"prefs": self._prefs.unpack(), "counts": self._counts.copy()}

    def hidden_matrix(self) -> BitMatrix:
        """The hidden matrix as stored: packed, immutable, never densified.

        The sanctioned export for :func:`repro.serve.snapshot.save_runtime`,
        which archives it once per snapshot, so serving code never
        reaches into the matrix itself.
        """
        return self._prefs

    @classmethod
    def restore(
        cls,
        prefs: np.ndarray,
        counts: np.ndarray,
        *,
        billboard: Billboard | None = None,
        budget: int | None = None,
        charge_repeats: bool = True,
    ) -> "ProbeOracle":
        """Rebuild an oracle from :meth:`checkpoint` arrays, counts included."""
        oracle = cls(prefs, billboard=billboard, budget=budget, charge_repeats=charge_repeats)
        oracle.restore_counts(counts)
        return oracle

    def restore_counts(self, counts: np.ndarray) -> None:
        """Install checkpointed per-player charged counts (copied)."""
        counts_arr = np.asarray(counts, dtype=np.int64)
        if counts_arr.shape != (self.n_players,):
            raise ValueError(
                f"counts must have shape ({self.n_players},), got {counts_arr.shape}"
            )
        if counts_arr.size and (
            int(counts_arr.min()) < 0
            or (self.budget is not None and int(counts_arr.max()) > self.budget)
        ):
            raise ValueError("restored counts are negative or exceed the budget")
        self._counts = counts_arr.copy()

    def attach_trace(self, trace: ProbeTrace) -> None:
        """Attach a :class:`~repro.billboard.trace.ProbeTrace` (observational)."""
        self._trace = trace

    def start_phase(self, name: str) -> None:
        """Open a named accounting phase (prefer :meth:`phase`)."""
        self.ledger.start(name, self.stats())

    def finish_phase(self, name: str) -> ProbeStats:
        """Close a named accounting phase, returning its probe delta."""
        return self.ledger.finish(name, self.stats())

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Exception-safe phase accounting, unified with run telemetry.

        One ``with oracle.phase("small_radius/final_select"):`` block
        both attributes the probes charged inside to the ledger phase
        *name* (exactly like a ``start_phase``/``finish_phase`` pair,
        but closed via ``finally`` so an exception cannot leak an open
        phase) *and* emits an :mod:`repro.obs` span of the same name —
        wall-clock timing plus probe deltas — when a recorder is active.
        """
        with obs.span(name, oracle=self):
            with self.ledger.phase(name, self):
                yield

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"ProbeOracle(n={self.n_players}, m={self.n_objects}, total_probes={int(self._counts.sum())})"
