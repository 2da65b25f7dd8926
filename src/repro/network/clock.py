"""Clocks: virtual (deterministic, instant) and real (wall-clock sleeps).

The paper produces its delays with ``time.sleep``; the reproduction defaults
to a :class:`VirtualClock` that *accounts* the same durations without
sleeping, making experiment runs deterministic and fast.  A
:class:`RealClock` is provided for demos that want to feel the latency.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """The time source every component of one engine run shares."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""

    def sleep(self, seconds: float) -> None:
        """Advance time by *seconds* (waiting for real clocks)."""

    def advance_to(self, timestamp: float) -> None:
        """Move forward to *timestamp*; a no-op when already past it.

        The event scheduler uses this to synchronise timelines: an engine
        clock jumps to an event's availability time, and a producer task's
        clock jumps to the moment its consumer resumed it.
        """


class VirtualClock:
    """Deterministic simulated time starting at zero."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        if timestamp > self._now:
            self._now = timestamp

    def reset(self, start: float = 0.0) -> None:
        self._now = start

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"


class RecordingClock(VirtualClock):
    """A :class:`VirtualClock` that logs every add and the events between them.

    Every add appends a small int to ``tags``: 0 for engine work (what
    :meth:`sleep` logs), else its source's base (three times the source's
    rank in ``bases``) plus its kind; a fixed charge also appends its
    duration to ``adds``.  The hot add sites inline ``clock._now += x`` and
    the appends; the fast paths of a plain clock are taken only for exactly
    a :class:`VirtualClock`, so any other add lands in :meth:`sleep`.
    ``answers`` / ``answer_positions`` are the answers and the adds before
    each; ``mark(event)`` notes an event with the answers before it.
    """

    __slots__ = ("adds", "tags", "bases", "answers", "answer_positions", "events")

    def __init__(self):
        super().__init__()
        self.adds: list[float] = []
        self.tags: list[int] = []
        self.bases: dict[str, int] = {}
        self.answers: list[dict] = []
        self.answer_positions: list[int] = []
        self.events: list[tuple[int, object]] = []

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds
        self.adds.append(seconds)
        self.tags.append(0)

    def mark(self, event) -> None:
        self.events.append((len(self.answers), event))


class RealClock:
    """Wall-clock time via :func:`time.monotonic` / :func:`time.sleep`."""

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def advance_to(self, timestamp: float) -> None:
        remaining = timestamp - self.now()
        if remaining > 0:
            time.sleep(remaining)

    def __repr__(self) -> str:
        return f"RealClock(now={self.now():.6f})"
