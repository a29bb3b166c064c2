"""Message and round accounting for the synchronous simulator.

Theorem 5 claims O(√n) time and O((k+l+1)n) message complexity; these
counters are what the complexity benchmarks measure.  Following the paper's
convention for wireless broadcast media, one *message* is one broadcast
transmission (every neighbour hears it); *receptions* counts the per-link
deliveries separately.

Under fault injection the accounting splits algorithmic from recovery
traffic: ``broadcasts`` stays the protocol's own transmission count (the
Theorem 5 quantity), while ``retries`` counts link-layer retransmissions,
``drops`` lost delivery attempts, ``acks_dropped`` lost acknowledgements
and ``redundant_deliveries`` duplicate frames suppressed at the receiver.

Asynchrony adds a third traffic class and a termination record:
``corrections`` counts repair broadcasts (re-forwards of records that were
upgraded after the node already transmitted — late shorter paths, stale
descendants), ``corrections_suppressed`` those a spent re-forward budget
swallowed, ``seen_evictions`` dedup-window entries evicted by the sliding
sequence window, and :class:`ConvergenceReport` is what the event-driven
scheduler's quiescence detector observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ConvergenceReport", "RunStats"]


@dataclass
class ConvergenceReport:
    """What the deficit-counting quiescence detector saw in one async run.

    Dijkstra–Scholten-style termination detection: every scheduled delivery
    raises its sender's deficit, every consumed (or dropped) delivery
    settles it; the network has converged when all deficits are zero, no
    timer is pending, and no transmission awaits retry.  ``virtual_time``
    is the logical clock at that instant.

    Attributes:
        quiesced: the run reached deficit-zero (False = a deadline cut it).
        virtual_time: logical time of the last processed event.
        events: total events processed (deliveries + timers).
        deliveries: delivery events consumed by protocol handlers.
        timer_fires: timer events fired.
        max_outstanding: peak total deficit (in-flight deliveries).
        partitioned: the live topology was disconnected during the run
            (permanent crashes split the network).
    """

    quiesced: bool = True
    virtual_time: float = 0.0
    events: int = 0
    deliveries: int = 0
    timer_fires: int = 0
    max_outstanding: int = 0
    partitioned: bool = False

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` if the detector's record is inconsistent.

        Every field is a monotone accumulator, so a negative value — or a
        total smaller than its parts — can only come from double-counting
        or a missed settle.  Schedulers call this at shutdown.
        """
        for name in ("events", "deliveries", "timer_fires", "max_outstanding"):
            value = getattr(self, name)
            if value < 0:
                raise RuntimeError(
                    f"ConvergenceReport.{name} went negative ({value}): "
                    f"counter double-settled"
                )
        if self.virtual_time < 0:
            raise RuntimeError(
                f"ConvergenceReport.virtual_time went negative "
                f"({self.virtual_time})"
            )
        if self.deliveries + self.timer_fires > self.events:
            raise RuntimeError(
                f"ConvergenceReport counted more deliveries+timers "
                f"({self.deliveries} + {self.timer_fires}) than processed "
                f"events ({self.events})"
            )


@dataclass
class RunStats:
    """Counters for one scheduler run (or one phase of it)."""

    broadcasts: int = 0
    receptions: int = 0
    rounds: int = 0
    retries: int = 0
    drops: int = 0
    acks_dropped: int = 0
    redundant_deliveries: int = 0
    corrections: int = 0
    corrections_suppressed: int = 0
    seen_evictions: int = 0
    #: False when a deadline (max_rounds / virtual-time budget) cut the run
    #: short of quiescence and the caller asked for partial results.
    quiesced: bool = True
    #: Termination-detector record; ``None`` for synchronous runs.
    convergence: Optional[ConvergenceReport] = None
    broadcasts_per_round: List[int] = field(default_factory=list)
    broadcasts_per_node: Dict[int, int] = field(default_factory=dict)

    def record_broadcast(self, sender: int, fanout: int) -> None:
        """Record one broadcast heard by *fanout* neighbours."""
        self.broadcasts += 1
        self.receptions += fanout
        self.broadcasts_per_node[sender] = self.broadcasts_per_node.get(sender, 0) + 1
        if self.broadcasts_per_round:
            self.broadcasts_per_round[-1] += 1

    def record_retry(self, sender: int, fanout: int) -> None:
        """Record one link-layer retransmission heard by *fanout* neighbours.

        Recovery traffic: counted apart from the algorithmic ``broadcasts``
        so the Theorem 5 bounds stay measurable under faults.
        """
        self.retries += 1
        self.receptions += fanout

    def record_correction(self, sender: int, fanout: int) -> None:
        """Record one repair broadcast heard by *fanout* neighbours.

        Corrections re-transmit *upgraded* records (a shorter path arrived
        after the node already forwarded); they are recovery traffic, kept
        out of ``broadcasts`` so the Theorem 5 per-node budgets stay
        measurable under asynchrony and loss.
        """
        self.corrections += 1
        self.receptions += fanout

    def start_round(self) -> None:
        self.rounds += 1
        self.broadcasts_per_round.append(0)

    #: Counters that must never go negative (all are append-only).
    _COUNTERS = (
        "broadcasts", "receptions", "rounds", "retries", "drops",
        "acks_dropped", "redundant_deliveries", "corrections",
        "corrections_suppressed", "seen_evictions",
    )

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` when the accounting is inconsistent.

        Cheap shutdown invariant (a handful of sums, run once per
        scheduler run): every counter is monotone non-negative, and the
        two per-X breakdowns each re-total to ``broadcasts`` — a split
        that drifts (like the ack/correction split regression this guards
        against) means some path recorded a broadcast twice or not at all.
        """
        for name in self._COUNTERS:
            value = getattr(self, name)
            if value < 0:
                raise RuntimeError(
                    f"RunStats.{name} went negative ({value}): "
                    f"counter decremented or double-counted"
                )
        if len(self.broadcasts_per_round) != self.rounds:
            raise RuntimeError(
                f"RunStats tracked {len(self.broadcasts_per_round)} round "
                f"buckets over {self.rounds} rounds"
            )
        if any(count < 0 for count in self.broadcasts_per_round):
            raise RuntimeError("RunStats.broadcasts_per_round went negative")
        per_round = sum(self.broadcasts_per_round)
        if per_round != self.broadcasts:
            raise RuntimeError(
                f"RunStats per-round broadcasts ({per_round}) disagree with "
                f"the total ({self.broadcasts}): a send was recorded "
                f"outside start_round bookkeeping"
            )
        if any(count < 0 for count in self.broadcasts_per_node.values()):
            raise RuntimeError("RunStats.broadcasts_per_node went negative")
        per_node = sum(self.broadcasts_per_node.values())
        if per_node != self.broadcasts:
            raise RuntimeError(
                f"RunStats per-node broadcasts ({per_node}) disagree with "
                f"the total ({self.broadcasts})"
            )
        if self.convergence is not None:
            self.convergence.check_invariants()

    @property
    def max_node_broadcasts(self) -> int:
        """The busiest node's transmission count (load-balance indicator)."""
        return max(self.broadcasts_per_node.values(), default=0)

    def summary(self) -> str:
        base = (
            f"rounds={self.rounds} broadcasts={self.broadcasts} "
            f"receptions={self.receptions} max_node_broadcasts={self.max_node_broadcasts}"
        )
        if self.retries or self.drops or self.acks_dropped or self.redundant_deliveries:
            base += (
                f" retries={self.retries} drops={self.drops} "
                f"acks_dropped={self.acks_dropped} "
                f"redundant={self.redundant_deliveries}"
            )
        if self.corrections or self.corrections_suppressed:
            base += (
                f" corrections={self.corrections}"
                f" suppressed={self.corrections_suppressed}"
            )
        if self.seen_evictions:
            base += f" seen_evictions={self.seen_evictions}"
        if not self.quiesced:
            base += " quiesced=no"
        return base
