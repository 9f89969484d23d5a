"""RPL012 clean: deployments go through the topology-agnostic serve()."""

from repro.api import serve
from repro.serve import ServeConfig, ServeService

__all__ = ["deploy", "restore"]


def deploy(instance: object, workers: int) -> object:
    return serve(instance, ServeConfig(workers=workers))


def restore(instance: object, checkpoint: object) -> object:
    # Classmethod constructors are fine — restore paths name the class
    # without choosing a topology for new deployments.
    return ServeService.from_checkpoint(instance, checkpoint)
