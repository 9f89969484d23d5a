"""Topology-agnostic configuration of one serving deployment.

:class:`ServeConfig` is the single knob surface of the serving stack:
the algorithm parameters the offline entry points take (``seed``,
``max_phases``, ``d_max``, ``budget``, ``charge_repeats``, ``params``)
*plus* the deployment topology (``workers``) and the request-routing
knobs of :class:`~repro.serve.router.RouterConfig` (``window``,
``probes_per_request``).  One frozen
dataclass feeds :func:`repro.serve.runtime.serve` — ``workers=1``
stands up the in-process runtime, ``workers>1`` the sharded multi-core
runtime — and both the ``repro serve`` and ``repro loadgen`` CLI
subcommands derive their flags from these fields, so the knob
vocabulary cannot drift between entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.params import Params

if TYPE_CHECKING:  # circular at runtime: router imports the service layer
    from repro.serve.router import RouterConfig

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Immutable configuration of one serving deployment.

    ``seed`` feeds the master generator (the service twin of the ``rng``
    argument of ``anytime_find_preferences``); ``max_phases`` / ``d_max``
    / ``budget`` / ``charge_repeats`` / ``params`` mirror the offline
    entry point's keyword arguments (``params=None`` means
    :meth:`Params.practical`).

    The remaining fields describe the deployment rather than the
    algorithm — they never influence the served bits, only how fast and
    on how many cores they are computed:

    * ``workers`` — worker processes sessions are partitioned across
      (``1`` = today's in-process runtime, no subprocesses);
    * ``window`` — the micro-batching window of each router;
    * ``probes_per_request`` — default probe grant of one request;
    * ``log_capacity`` — byte size of the shared billboard post log
      (sharded topologies only; ``None`` sizes it from the instance).
    """

    seed: int = 0
    max_phases: int | None = None
    d_max: int | None = None
    budget: int | None = None
    charge_repeats: bool = True
    params: Params | None = None
    workers: int = 1
    window: int = 32
    probes_per_request: int = 32
    log_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.probes_per_request <= 0:
            raise ValueError(
                f"probes_per_request must be positive, got {self.probes_per_request}"
            )
        if self.log_capacity is not None and self.log_capacity <= 0:
            raise ValueError(f"log_capacity must be positive, got {self.log_capacity}")

    def resolved_params(self) -> Params:
        """The effective algorithm constants."""
        return self.params if self.params is not None else Params.practical()

    def router_config(self) -> "RouterConfig":
        """The :class:`~repro.serve.router.RouterConfig` these knobs describe."""
        from repro.serve.router import RouterConfig

        return RouterConfig(window=self.window, probes_per_request=self.probes_per_request)
