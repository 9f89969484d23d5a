"""Deterministic random-number-generator plumbing.

Every public entry point of :mod:`repro` accepts either a seed or a
:class:`numpy.random.Generator`.  Internally we always normalise to a
``Generator`` via :func:`as_generator` and derive *independent* child
streams via :func:`spawn` / :func:`spawn_many` (or their seeds,
:func:`spawn_seeds`) so that

* experiments are reproducible given a single integer seed, and
* sub-phases (e.g. the ``K`` iterations of Small Radius) consume
  independent randomness regardless of how much entropy earlier phases
  used.

The paper's algorithms assume *public coins* — random partitions that all
players observe identically.  Simulating the whole population in one
process makes this trivial: one ``Generator`` drawn per phase *is* the
public coin.
"""

from __future__ import annotations

import copy
from typing import Any, Mapping, TypeAlias

import numpy as np

__all__ = ["RngLike", "as_generator", "as_seed", "from_state", "spawn", "spawn_many", "spawn_seeds", "state_of"]

#: The uniform rng-parameter contract every public entry point accepts.
#: (Was previously a plain string constant, unusable in annotations;
#: a real ``TypeAlias`` type-checks under ``mypy --strict``.)
RngLike: TypeAlias = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(rng: int | np.random.Generator | np.random.SeedSequence | None) -> np.random.Generator:
    """Normalise *rng* to a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh nondeterministic generator), an integer seed, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {type(rng).__name__!r} as a random generator")


def as_seed(rng: int | np.random.Generator | None) -> int:
    """Normalise *rng* to a plain integer seed.

    The inverse convenience of :func:`as_generator`, for call sites that
    must *record* the seed (report headers, telemetry metadata) or fan
    it out as an integer.  An integer passes through unchanged — callers
    that already hold a seed keep bit-for-bit compatible behaviour — a
    ``Generator`` (or ``None``) has one integer drawn from it.
    """
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return int(rng)
    return int(as_generator(rng).integers(0, 2**31 - 1))


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive one independent child generator from *rng*.

    Uses the generator's own bit stream to seed a child; successive calls
    yield independent streams.
    """
    seed = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(seed)


def spawn_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Draw the seeds of *count* independent child streams from *rng*.

    One ``integers`` call, whatever the count.  ``as_generator(seed)``
    builds the child :func:`spawn_many` would have returned at the same
    position, so a caller can build only the children it uses.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds: list[int] = rng.integers(0, 2**63 - 1, size=count).tolist()
    return seeds


def spawn_many(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive *count* independent child generators from *rng*."""
    return [np.random.default_rng(seed) for seed in spawn_seeds(rng, count)]


def state_of(rng: np.random.Generator) -> dict[str, Any]:
    """The JSON-serialisable bit-generator state of *rng*.

    The returned dict (a deep copy — later draws from *rng* do not
    mutate it) round-trips through :func:`from_state` to a generator
    that continues the *exact* stream, which is what service
    checkpointing needs: a restored run must consume the same coins the
    killed run would have.
    """
    state = copy.deepcopy(rng.bit_generator.state)
    return dict(state)


def from_state(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from :func:`state_of` output.

    The ``"bit_generator"`` entry names the BitGenerator class
    (``"PCG64"`` for every generator this package constructs); an
    unknown name raises ``ValueError`` rather than silently resuming a
    different stream.
    """
    name = state.get("bit_generator")
    bit_gen_cls = getattr(np.random, str(name), None)
    if not isinstance(name, str) or bit_gen_cls is None:
        raise ValueError(f"unknown bit generator {name!r} in rng state")
    bit_gen = bit_gen_cls()
    bit_gen.state = copy.deepcopy(dict(state))
    return np.random.Generator(bit_gen)
