"""Player-action vocabulary for the round engine.

A player program is a generator that yields actions:

* :class:`Probe` — probe one object; the scheduler sends back the 0/1
  grade.  **Consumes the player's round.**
* :class:`Post` — publish a vector on a billboard channel.  Free (the
  model's "writes the result on the billboard" happens within the same
  round); the scheduler sends back ``None`` and immediately continues
  the same player.
* :class:`Wait` — do nothing this round (used to wait for other
  players' posts).  Consumes the round.

The program's ``return`` value is the player's output vector.
:func:`probe_select` turns a Select/RSelect coroutine into probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.core.result import SelectOutcome

__all__ = ["Probe", "Post", "Wait", "probe_select"]


@dataclass(frozen=True)
class Probe:
    """Probe one object (consumes the round; scheduler replies with the grade)."""

    obj: int

    def __post_init__(self) -> None:
        if self.obj < 0:
            raise ValueError(f"object index must be non-negative, got {self.obj}")


@dataclass(frozen=True)
class Post:
    """Publish *vector* under *channel* (free; scheduler replies ``None``)."""

    channel: str
    vector: np.ndarray


@dataclass(frozen=True)
class Wait:
    """Idle this round (consumes the round; scheduler replies ``None``)."""


def probe_select(
    coroutine: Generator[int, int, SelectOutcome],
    objects: np.ndarray | Sequence[int],
    probe: Callable[[int], Generator[Any, Any, int]] | None = None,
) -> Generator[Any, Any, SelectOutcome]:
    """Run a Select/RSelect coroutine inside a player program.

    Each coordinate ``c`` the coroutine asks for is probed as
    ``objects[c]`` — a :class:`Probe` action, or the sub-program
    ``probe(objects[c])`` for an abstract probe (§3.1) — and its value
    sent back.  Returns the coroutine's :class:`SelectOutcome`.
    """
    try:
        coord = next(coroutine)
        while True:
            obj = int(objects[coord])
            value = (yield Probe(obj)) if probe is None else (yield from probe(obj))
            coord = coroutine.send(value)
    except StopIteration as stop:
        return stop.value
