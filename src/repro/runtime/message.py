"""Messages exchanged by node protocols in the simulated network.

A message is a broadcast from one node to all of its radio neighbours (the
natural primitive in wireless networks and the unit the paper's message
complexity counts) carrying a *kind* tag and an arbitrary payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message"]


@dataclass(frozen=True)
class Message:
    """One broadcast transmission.

    Attributes:
        sender: id of the transmitting node.
        kind: protocol-defined tag used to dispatch handling.
        payload: protocol-defined content (kept immutable by convention).
        round_sent: the round in which the broadcast was queued; delivery
            happens at the start of the following round, modelling the
            synchronous communication rounds the paper's time complexity
            counts.
        correction: True for repair traffic — a re-forward of a record the
            sender upgraded after already transmitting it (late shorter
            path).  Schedulers account corrections apart from the
            algorithmic ``broadcasts`` so the paper's message bounds stay
            measurable under asynchrony and loss.
    """

    sender: int
    kind: str
    payload: Any = None
    round_sent: int = 0
    correction: bool = False
