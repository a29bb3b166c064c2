"""Service clocks: wall time for production, virtual time for tests.

The serving layer stamps every request twice — at admission and at
resolution — and everything derived from those stamps (queue deadlines,
latency percentiles, throughput) goes through one small clock interface
so the whole request lifecycle can run on *virtual* time.  A
:class:`VirtualClock` only moves when the test advances it, which is
what makes the deadline/shedding batteries deterministic: "the deadline
expired while the request sat in the queue" becomes an exact,
replayable statement instead of a sleep-and-hope race.

This mirrors the repository's wider discipline — the async scheduler
(DESIGN.md §9) runs protocols on virtual time for the same reason.
"""

from __future__ import annotations

import time

__all__ = ["SystemClock", "VirtualClock"]


class SystemClock:
    """Monotonic wall-clock (``time.perf_counter``) — the production clock."""

    def now(self) -> float:
        return time.perf_counter()


class VirtualClock:
    """A clock that moves only when told to.

    ``advance`` never goes backwards — virtual time is monotonic like the
    wall clock it stands in for, and a negative step is always a test
    bug, so it raises instead of silently clamping.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by *seconds*; returns the new instant."""
        if seconds < 0:
            raise ValueError("virtual time cannot move backwards")
        self._now += seconds
        return self._now
