"""A minimal discrete-event scheduler.

The indexed event queue at the heart of the simulator: the main loop
(:mod:`repro.sim.runner`) schedules every contention/transmission round
as an event here (which is how idle gaps are crossed in one hop instead
of one slot at a time), and anything on its own clock -- Poisson packet
arrivals, periodic metric snapshots, user callbacks in the examples --
uses the same ``schedule_at``/``step`` primitives.  Events that share
a timestamp run in scheduling order, so seeded runs are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["EventScheduler"]


@dataclass(order=True)
class _Event:
    time_us: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventScheduler:
    """A heap-based event queue keyed by simulation time in microseconds."""

    def __init__(self) -> None:
        self._queue: List[_Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now_us(self) -> float:
        """Current simulation time, microseconds."""
        return self._now

    def schedule_at(self, time_us: float, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` at an absolute time."""
        if time_us < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time_us} us, current time is {self._now} us"
            )
        event = _Event(time_us=time_us, sequence=next(self._counter), callback=callback)
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: _Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        event.cancelled = True

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time_us
            event.callback()
            return True
        return False
