"""The topology-agnostic serving entrypoint.

:func:`serve` is the one way to stand up an online deployment: it takes
an instance and a :class:`~repro.serve.config.ServeConfig` and returns
a :class:`ServeRuntime` — the in-process runtime for ``workers=1``,
the sharded multi-process runtime (:mod:`repro.serve.sharded`) for
``workers>1``.  Callers never construct :class:`ServeService` or
:class:`MicroBatchRouter` themselves (lint rule RPL012 enforces this
outside ``repro/serve``): the runtime owns the wiring, so the same
call site scales from one core to many by changing one config field.

Every runtime honours the same contract: driven to completion it
produces the outputs — and, for non-drained runs, the per-player probe
counts — of the offline anytime loop, bitwise, for any worker count.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.bitpack import BitMatrix
from repro.model.instance import Instance
from repro.serve.config import ServeConfig
from repro.serve.router import MicroBatchRouter, Response
from repro.serve.service import ServeService, ServiceCheckpoint

if TYPE_CHECKING:
    from repro.obs.metrics import MetricRegistry

__all__ = ["LocalRuntime", "ServeRuntime", "serve"]


def serve(instance: Instance | np.ndarray | BitMatrix, config: ServeConfig | None = None) -> ServeRuntime:
    """Stand up a serving runtime for *instance* with the given topology.

    ``config.workers == 1`` (the default) wires the in-process
    service + micro-batching router; ``workers > 1`` partitions
    sessions by player id across that many worker processes over the
    shared packed oracle.  Both produce bitwise-identical outputs for
    the same ``config`` (topology fields aside).
    """
    cfg = config if config is not None else ServeConfig()
    if cfg.workers == 1:
        return LocalRuntime(ServeService(instance, config=cfg), config=cfg)
    from repro.serve.sharded import ShardedRuntime

    return ShardedRuntime(instance, cfg)


class ServeRuntime(abc.ABC):
    """What every serving topology exposes (see :func:`serve`).

    The request surface mirrors the router — :meth:`submit` /
    :meth:`flush` / :meth:`query` / :meth:`run_to_completion` — plus
    whole-deployment state (:attr:`finished`, :meth:`outputs`,
    :meth:`probe_counts`), snapshots (:meth:`save`, restored by
    :func:`repro.serve.snapshot.load_runtime` to *any* worker count),
    and :meth:`close` for teardown (also via ``with``).
    """

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Worker-process count of this topology (1 = in-process)."""

    @property
    @abc.abstractmethod
    def n_players(self) -> int:
        """Population size ``n``."""

    @property
    @abc.abstractmethod
    def n_objects(self) -> int:
        """Object count ``m``."""

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """Whether serving stopped advancing (``done`` or ``drained``)."""

    @property
    @abc.abstractmethod
    def phases_completed(self) -> int:
        """Number of fully merged anytime phases."""

    @property
    @abc.abstractmethod
    def completed(self) -> list[float]:
        """The ``α`` values of completed phases."""

    @property
    @abc.abstractmethod
    def exhausted(self) -> bool:
        """Whether the probe budget tripped (graceful drain)."""

    @abc.abstractmethod
    def submit(self, player: int, probes: int | None = None) -> None:
        """Buffer a session-advance request (auto-flushes on the window)."""

    @abc.abstractmethod
    def flush(self) -> list[Response]:
        """Flush buffered requests; responses since the last flush."""

    @abc.abstractmethod
    def query(self, player: int) -> Response:
        """Best-so-far answer for *player*, estimate included."""

    @abc.abstractmethod
    def run_to_completion(self, *, probes: int | None = None) -> np.ndarray:
        """Drive every session until finished; returns the outputs."""

    @abc.abstractmethod
    def outputs(self) -> np.ndarray:
        """Best-so-far ``(n, m)`` output matrix (a copy)."""

    @abc.abstractmethod
    def probe_counts(self) -> np.ndarray:
        """Per-player charged probe counts (length ``n``)."""

    @abc.abstractmethod
    def session_count(self, status: str) -> int:
        """Number of sessions currently in *status*."""

    @abc.abstractmethod
    def open_players(self) -> list[int]:
        """Players whose sessions are still open (not complete/drained)."""

    @property
    @abc.abstractmethod
    def oracle_batches(self) -> int:
        """Total oracle batch invocations across the deployment."""

    @abc.abstractmethod
    def checkpoint(self) -> ServiceCheckpoint:
        """A whole-deployment phase-barrier checkpoint."""

    @property
    @abc.abstractmethod
    def player_partitions(self) -> list[list[int]]:
        """Player ids per shard (one list for the in-process runtime)."""

    @abc.abstractmethod
    def hidden_matrix(self) -> BitMatrix:
        """The packed hidden matrix the oracle answers from.

        The environment, not barrier state: :meth:`checkpoint` leaves it
        out, and :func:`~repro.serve.snapshot.save_runtime` archives it
        once per snapshot.
        """

    @abc.abstractmethod
    def merged_metrics(self) -> MetricRegistry:
        """Exact merge of every worker's metric registry."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down workers and shared segments (idempotent)."""

    def save(self, path: str | Path) -> Path:
        """Archive the deployment's checkpoint as a v4 snapshot directory."""
        from repro.serve.snapshot import save_runtime

        return save_runtime(path, self)

    def __enter__(self) -> ServeRuntime:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class LocalRuntime(ServeRuntime):
    """The ``workers=1`` topology: today's in-process service + router."""

    def __init__(self, service: ServeService, *, config: ServeConfig | None = None) -> None:
        cfg = config if config is not None else service.config
        self.service = service
        self.router = MicroBatchRouter(service, config=cfg.router_config())

    @property
    def workers(self) -> int:
        return 1

    @property
    def n_players(self) -> int:
        return self.service.n_players

    @property
    def n_objects(self) -> int:
        return self.service.n_objects

    @property
    def finished(self) -> bool:
        return self.service.finished

    @property
    def phases_completed(self) -> int:
        return self.service.phases_completed

    @property
    def completed(self) -> list[float]:
        return list(self.service.completed)

    @property
    def exhausted(self) -> bool:
        return self.service.exhausted

    def submit(self, player: int, probes: int | None = None) -> None:
        self.router.submit(player, probes)

    def flush(self) -> list[Response]:
        return self.router.flush()

    def query(self, player: int) -> Response:
        return self.router.query(player)

    def run_to_completion(self, *, probes: int | None = None) -> np.ndarray:
        return self.router.run_to_completion(probes=probes)

    def outputs(self) -> np.ndarray:
        return self.service.outputs()

    def probe_counts(self) -> np.ndarray:
        return self.service.oracle.stats().per_player.copy()

    def session_count(self, status: str) -> int:
        return self.service.sessions.count(status)

    def open_players(self) -> list[int]:
        return [
            s.player
            for s in self.service.sessions
            if s.status not in ("complete", "drained")
        ]

    @property
    def oracle_batches(self) -> int:
        return self.service.oracle.batch_count

    def checkpoint(self) -> ServiceCheckpoint:
        return self.service.checkpoint()

    @property
    def player_partitions(self) -> list[list[int]]:
        return [list(range(self.service.n_players))]

    def hidden_matrix(self) -> BitMatrix:
        return self.service.oracle.hidden_matrix()

    def merged_metrics(self) -> MetricRegistry:
        from repro.obs.metrics import MetricRegistry, get_registry

        merged = MetricRegistry()
        active = get_registry()
        if active is not None:
            merged.merge(active)
        return merged

    def close(self) -> None:
        """Nothing to tear down in-process."""

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"LocalRuntime({self.service!r})"
