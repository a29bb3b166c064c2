"""Query API over a recorded event log.

Where :class:`~repro.observability.metrics.MetricsReport` answers "how
much", :class:`TraceQuery` answers "which, when, and why": slice events by
time window, group messages by phase or sender, and walk the causal chain
from any broadcast back to the wave that triggered it.  This is the API the
trace-based regression tests consume — causal behaviour is asserted from
the event stream instead of from end-state snapshots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Union

from .tracer import TraceEvent

__all__ = ["TraceQuery"]

_SEND_KINDS = ("send", "correction")


class TraceQuery:
    """Read-only views over one run's :class:`TraceEvent` list.

    Events arrive from the schedulers in non-decreasing time order (rounds
    on the synchronous fabric, the event-loop clock on the asynchronous
    one), which is what lets the time-window queries binary-search.
    """

    def __init__(self, events: Sequence[TraceEvent]):
        self._events = list(events)
        self._times = [e.time for e in self._events]
        self._send_index: Optional[Dict[int, TraceEvent]] = None

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    # -- slicing -------------------------------------------------------------

    def events_between(self, start: float, end: float) -> List[TraceEvent]:
        """Events with ``start <= time <= end`` (inclusive both ends)."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        return self._events[lo:hi]

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    # -- message accounting ----------------------------------------------------

    def messages_by_phase(self, include_corrections: bool = False
                          ) -> Dict[str, int]:
        """Algorithmic broadcast count per phase (message kind); with
        ``include_corrections`` repair traffic is counted too."""
        counts: Dict[str, int] = {}
        kinds = _SEND_KINDS if include_corrections else ("send",)
        for e in self._events:
            if e.kind in kinds:
                counts[e.phase] = counts.get(e.phase, 0) + 1
        return counts

    def sends_by_node(self, phase: Optional[str] = None,
                      include_corrections: bool = False) -> Dict[int, int]:
        """Per-node transmission counts, optionally restricted to a phase —
        the per-node Theorem 5 budget, measured from the event stream."""
        counts: Dict[int, int] = {}
        kinds = _SEND_KINDS if include_corrections else ("send",)
        for e in self._events:
            if e.kind not in kinds:
                continue
            if phase is not None and e.phase != phase:
                continue
            counts[e.node] = counts.get(e.node, 0) + 1
        return counts

    def deliveries_of(self, msg_id: int) -> List[TraceEvent]:
        """Every delivery of one broadcast (one per hearing neighbour)."""
        return [e for e in self._events
                if e.kind == "deliver" and e.msg_id == msg_id]

    # -- causality -------------------------------------------------------------

    def _sends(self) -> Dict[int, TraceEvent]:
        if self._send_index is None:
            self._send_index = {
                e.msg_id: e for e in self._events
                if e.kind in _SEND_KINDS and e.msg_id is not None
            }
        return self._send_index

    def send_of(self, msg_id: int) -> TraceEvent:
        """The send (or correction) event that put *msg_id* on the air."""
        return self._sends()[msg_id]

    def causal_chain(self, msg: Union[int, TraceEvent]) -> List[TraceEvent]:
        """The broadcast chain that led to *msg*, root first.

        Follows ``parent`` links: the returned list starts at a root
        broadcast (queued from ``on_start``, a round hook, or a timer —
        anything with no message cause) and ends at *msg* itself.  Each
        consecutive pair is one hop of genuine protocol causality: the
        earlier broadcast's delivery is what the later sender was handling
        when it transmitted.
        """
        if isinstance(msg, TraceEvent):
            if msg.msg_id is None:
                raise ValueError(f"event {msg.kind!r} has no message id")
            msg_id: int = msg.msg_id
        else:
            msg_id = msg
        sends = self._sends()
        chain: List[TraceEvent] = []
        seen = set()
        cursor: Optional[int] = msg_id
        while cursor is not None:
            if cursor in seen:  # defensive: a cycle would mean tracer bug
                raise RuntimeError(f"causal cycle at msg {cursor}")
            seen.add(cursor)
            event = sends[cursor]
            chain.append(event)
            cursor = event.parent
        chain.reverse()
        return chain
