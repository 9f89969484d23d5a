"""The online serving runtime: sessions, micro-batched routing, snapshots.

The paper's model is inherently online — players probe incrementally
and must answer "who am I" at any time — and this package turns the §6
anytime engine into a long-lived service:

* :mod:`repro.serve.config` — :class:`ServeConfig`, the one knob
  surface (algorithm + topology) every entry point is built from;
* :mod:`repro.serve.sessions` — per-player state as suspended player
  programs, advanceable a few probes at a time;
* :mod:`repro.serve.service` — the phase state machine owning oracle,
  rng, and sessions, with phase-barrier checkpoints;
* :mod:`repro.serve.router` — micro-batching request router: one
  ``probe_many`` wavefront per flush, graceful budget degradation;
* :mod:`repro.serve.runtime` — :func:`serve`, the topology-agnostic
  entrypoint (``workers=1`` in-process, ``workers>1`` sharded);
* :mod:`repro.serve.sharded` — session sharding across worker
  processes over the shared packed oracle and billboard post log;
* :mod:`repro.serve.snapshot` — format-versioned kill/restore:
  ``.npz`` single-service archives plus the v4 sharded manifest
  (:func:`save_runtime` / :func:`load_runtime`);
* :mod:`repro.serve.loadgen` — open/closed-loop load generator with
  latency percentiles.

Contract: a session driven to completion is bitwise-equal — outputs and
per-player probe counts — to the offline
:func:`repro.core.main.anytime_find_preferences` for the same seed and
for *any* worker count (``tests/test_serve_equivalence.py``,
``tests/test_serve_sharded.py``), and code in this package never
touches preference matrices directly (lint rule RPL009): every grade
flows through the charged oracle.
"""

from __future__ import annotations

from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadgenConfig, LoadgenReport, run_loadgen
from repro.serve.router import MicroBatchRouter, Request, Response, RouterConfig
from repro.serve.runtime import LocalRuntime, ServeRuntime, serve
from repro.serve.service import ServeService, ServiceCheckpoint
from repro.serve.sessions import Session, SessionStore
from repro.serve.sharded import ShardedRuntime, WorkerDiedError
from repro.serve.snapshot import load_runtime, load_service, save_runtime, save_service

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "LocalRuntime",
    "MicroBatchRouter",
    "Request",
    "Response",
    "RouterConfig",
    "ServeConfig",
    "ServeRuntime",
    "ServeService",
    "ServiceCheckpoint",
    "Session",
    "SessionStore",
    "ShardedRuntime",
    "WorkerDiedError",
    "load_runtime",
    "load_service",
    "run_loadgen",
    "save_runtime",
    "save_service",
    "serve",
]
