"""The synchronous round-based message-passing simulator.

Models the standard synchronous distributed computing abstraction the paper
implicitly assumes ("if the identified critical skeleton nodes flood at
roughly the same time, and the message travels at approximately the same
speed"): computation proceeds in rounds, broadcasts queued in round *r* are
delivered to every radio neighbour at the start of round *r+1*, and the run
ends when the network is quiet.

One round body serves every fabric.  With a
:class:`~repro.runtime.faults.FaultPlan` the fabric becomes lossy: frames
drop per link, links flap per round, and nodes crash and recover on
schedule; without one every link delivers and no hash is drawn.  A
:class:`~repro.runtime.faults.RetryPolicy` adds link-layer recovery —
per-neighbour acks over the same faulty links, bounded retransmission in
the next round, and sequence-number duplicate suppression at receivers
(:mod:`repro.runtime.link`).  Every receiver's fate is settled when the
frame is sent, and deliveries are logged as they are handled, so a
zero-probability plan logs the same events in the same order as no plan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

from ..network.graph import SensorNetwork
from .faults import FaultPlan, RetryPolicy
from .link import LinkLayer, ProtocolFactory, _Transmission, \
    check_deadline_action
from .protocol import NodeApi
from .stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..observability import Tracer

__all__ = ["SynchronousScheduler"]


class SynchronousScheduler(LinkLayer):
    """Runs one protocol instance per node over a :class:`SensorNetwork`."""

    def __init__(self, network: SensorNetwork, protocol_factory: ProtocolFactory,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 tracer: Optional["Tracer"] = None):
        self.round = 0
        super().__init__(network, protocol_factory, NodeApi, fault_plan,
                         retry_policy, tracer)
        self._outbox: List[_Transmission] = []
        self._retry_queue: List[_Transmission] = []

    @property
    def now(self) -> float:
        """Virtual time: the round number."""
        return float(self.round)

    # -- API used by NodeApi ------------------------------------------------

    def queue_broadcast(self, sender: int, kind: str, payload,
                        correction: bool = False) -> None:
        self._outbox.append(
            self._new_transmission(sender, kind, payload, correction)
        )

    # -- execution ------------------------------------------------------------

    def _start(self) -> None:
        for node in self.network.nodes():
            self.protocols[node].on_start(self.apis[node])
        self._started = True

    def _any_active(self) -> bool:
        # A node that crashed for good can never act again; ignoring it is
        # what lets runs with permanent crashes quiesce instead of spinning
        # until max_rounds.
        plan = self.fault_plan
        return any(
            p.is_active() and (
                plan is None
                or not plan.node_permanently_down(p.node_id, self.round))
            for p in self.protocols
        )

    def step(self) -> bool:
        """Execute one round; returns False when the network is quiet.

        A round puts pending retransmissions and then every broadcast queued
        in the previous round on the air, settles each link (crashes, drops,
        flaps, acks, duplicates), invokes message handlers, then round-end
        hooks.
        """
        if not self._started:
            self._start()
        # Pending retransmissions go on air before this round's new frames:
        # they carry older data, matching FIFO link behaviour.
        transmissions = self._retry_queue + self._outbox
        if not transmissions and not self._any_active():
            return False
        self._outbox = []
        self._retry_queue = []
        self.stats.start_round()
        self.round += 1
        rnd = self.round
        plan = self.fault_plan
        arq = self.retry_policy is not None
        tr = self.tracer
        if tr is not None and plan is not None:
            self._trace_crash_transitions()
        adjacency = self.network.adjacency
        inboxes: Dict[int, List[_Transmission]] = defaultdict(list)
        for tx in transmissions:
            sender = tx.message.sender
            if plan is not None and not plan.node_up(sender, rnd):
                if self._sender_down(tx):
                    self._retry_queue.append(tx)
                continue
            neighbors = adjacency[sender]
            if tr is not None:
                self._trace_on_air(tx, len(neighbors))
            delivered = len(neighbors)
            for v in neighbors:
                if plan is not None and not (
                    plan.node_up(v, rnd)
                    and plan.link_up(sender, v, rnd)
                    and plan.delivers(sender, v, rnd, tx.seq)
                ):
                    self._drop(tx, v)
                    delivered -= 1
                elif not arq or self._receive(tx, v):
                    inboxes[v].append(tx)
            if self._sent(tx, delivered):
                self._retry_queue.append(tx)
        # Deliveries are logged as they are handled, after every send of
        # the round, so all fabrics share one event order.
        for node, batch in inboxes.items():
            api = self.apis[node]
            protocol = self.protocols[node]
            for tx in batch:
                if tr is None:
                    protocol.on_message(tx.message, api)
                else:
                    self._deliver_traced(node, tx, protocol, api)
        for protocol, api in zip(self.protocols, self.apis):
            if plan is None or plan.node_up(api.node_id, rnd):
                protocol.on_round_end(api)
        return True

    def run(self, max_rounds: int = 100_000,
            deadline_action: str = "raise") -> RunStats:
        """Run until quiet, or until *max_rounds*.

        ``deadline_action`` picks what hitting the deadline means:
        ``"raise"`` (default) treats a non-quiescing protocol as a bug and
        raises ``RuntimeError``; ``"return_partial"`` returns the stats
        gathered so far with :attr:`RunStats.quiesced` set to False — the
        right mode for fault experiments, where a legitimately partitioned
        or flap-starved run is a *result*, not an error, and the per-node
        protocol state accumulated before the deadline is still wanted.
        """
        check_deadline_action(deadline_action)
        rounds = 0
        while self.step():
            rounds += 1
            if rounds >= max_rounds:
                if deadline_action == "raise":
                    raise RuntimeError(
                        f"protocol did not quiesce within {max_rounds} rounds"
                    )
                self.stats.quiesced = False
                self.stats.check_invariants()
                return self.stats
        self.stats.check_invariants()
        return self.stats
