"""The link layer both message-passing runtimes share.

:class:`LinkLayer` is the base of
:class:`~repro.runtime.scheduler.SynchronousScheduler` and
:class:`~repro.runtime.async_scheduler.AsyncScheduler`.  It holds what
their delivery fabrics have in common: one broadcast's ARQ state
(:class:`_Transmission`), receiver-side duplicate suppression
(:class:`SeqWindow`), the first-send / retry / correction accounting, the
receive-side ARQ step (ack resolution and dedup) and the crash-transition
tracer.

The schedulers keep only what really differs: the synchronous one settles
receiver crashes and acks at send time and retransmits in the next round;
the event-driven one settles them when a frame arrives and retransmits on
``rto`` timers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, AbstractSet, Callable, Deque, Dict, \
    FrozenSet, List, Optional, Set, Tuple

from ..network.graph import SensorNetwork
from .faults import FaultPlan, RetryPolicy
from .message import Message
from .protocol import NodeApi, NodeProtocol
from .stats import RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..observability import Tracer

__all__ = ["LinkLayer", "SeqWindow", "check_deadline_action"]

ProtocolFactory = Callable[[int], NodeProtocol]

_DEADLINE_ACTIONS = ("raise", "return_partial")

# Without ARQ no neighbour owes an ack; one shared empty set keeps the
# fault-free path from allocating a container per broadcast.
_NO_ACKS: FrozenSet[int] = frozenset()


def check_deadline_action(deadline_action: str) -> None:
    """Reject a ``deadline_action`` neither scheduler knows."""
    if deadline_action not in _DEADLINE_ACTIONS:
        raise ValueError(f"deadline_action must be one of {_DEADLINE_ACTIONS}")


class SeqWindow:
    """Receiver-side duplicate suppression with bounded memory.

    A sliding window over the most recently seen sequence numbers: the
    oldest entry is evicted once ``capacity`` is exceeded.  Retransmissions
    arrive within the retry budget's horizon — far inside any reasonable
    window — so eviction does not reopen realistic duplicates; it replaces
    the previously unbounded one-entry-per-frame-ever set.
    """

    __slots__ = ("capacity", "_seen", "_order")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._seen: Set[int] = set()
        self._order: Deque[int] = deque()

    def add(self, seq: int) -> Tuple[bool, int]:
        """Record *seq*; returns ``(fresh, evicted)`` where *fresh* is False
        for a duplicate still inside the window and *evicted* counts entries
        the window slid past."""
        if seq in self._seen:
            return False, 0
        self._seen.add(seq)
        self._order.append(seq)
        evicted = 0
        while len(self._order) > self.capacity:
            self._seen.discard(self._order.popleft())
            evicted += 1
        return True, evicted

    def __len__(self) -> int:
        return len(self._order)


class _Transmission:
    """One broadcast's link-layer state: who still owes an ack, the
    remaining retransmission budget and, on the event-driven runtime, the
    current retransmission timeout ``rto``.

    ``transmitted`` flips on the first on-air frame; that frame is counted
    as the algorithmic broadcast, every later one as a retry.
    """

    __slots__ = ("message", "seq", "awaiting", "retries_left", "transmitted",
                 "rto", "trace_id", "trace_parent")

    def __init__(self, message: Message, seq: int, awaiting: AbstractSet[int],
                 retries_left: int, rto: float, trace_parent: Optional[int]):
        self.message = message
        self.seq = seq
        self.awaiting = awaiting
        self.retries_left = retries_left
        self.transmitted = False
        self.rto = rto
        # Tracing-only bookkeeping (None when no tracer is attached): the
        # tracer-assigned broadcast id, and the msg id whose handling
        # queued this broadcast (the causal edge).
        self.trace_id: Optional[int] = None
        self.trace_parent = trace_parent


class LinkLayer:
    """Per-node protocols plus the link-layer state and steps both
    schedulers share.  Subclasses provide the clock: ``round`` (an int) and
    ``now`` (virtual time)."""

    round: int
    now: float

    def __init__(self, network: SensorNetwork, protocol_factory: ProtocolFactory,
                 api_type: type, fault_plan: Optional[FaultPlan],
                 retry_policy: Optional[RetryPolicy],
                 tracer: Optional["Tracer"]):
        self.network = network
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.tracer = tracer
        self.protocols: List[NodeProtocol] = [
            protocol_factory(node) for node in network.nodes()
        ]
        self.apis: List[NodeApi] = [
            api_type(node, network.neighbors(node), self)
            for node in network.nodes()
        ]
        self.stats = RunStats()
        self._started = False
        self._next_seq = 0
        window = retry_policy.dedup_window if retry_policy is not None else 1
        self._seen_seqs: List[SeqWindow] = [
            SeqWindow(window) for _ in network.nodes()
        ]
        # Tracing only: the up-state last reported per crash-scheduled node.
        self._trace_up: Dict[int, bool] = {}

    def _new_transmission(self, sender: int, kind: str, payload,
                          correction: bool, rto: float = 0.0) -> _Transmission:
        """Wrap a freshly queued broadcast in its link-layer state."""
        message = Message(sender=sender, kind=kind, payload=payload,
                          round_sent=self.round, correction=correction)
        policy = self.retry_policy
        tx = _Transmission(
            message, self._next_seq,
            set(self.network.neighbors(sender)) if policy is not None
            else _NO_ACKS,
            policy.max_retries if policy is not None else 0, rto,
            self.tracer.current_cause if self.tracer is not None else None,
        )
        self._next_seq += 1
        return tx

    def record_suppressed_correction(self, node: int) -> None:
        """A node's correction was swallowed by a spent re-forward budget."""
        self.stats.corrections_suppressed += 1
        if self.tracer is not None:
            self.tracer.on_suppress(node, self.now)

    # -- send side ----------------------------------------------------------

    def _sender_down(self, tx: _Transmission) -> bool:
        """The sender is crashed, so the frame sits in its queue.  Trying
        again after recovery costs retry budget like any retransmission:
        returns True when a retry is due, else counts the whole broadcast
        as lost."""
        if tx.retries_left > 0:
            tx.retries_left -= 1
            return True
        sender = tx.message.sender
        fanout = len(self.network.neighbors(sender))
        self.stats.drops += fanout
        if self.tracer is not None:
            self.tracer.on_drop(tx.message, sender, None, self.now,
                                count=fanout)
        return False

    def _trace_on_air(self, tx: _Transmission, fanout: int) -> None:
        """Log a frame going on air (tracer attached): the first as a send,
        later ones as retries of the same broadcast id."""
        tr = self.tracer
        if tx.transmitted:
            tr.on_retry(tx.message, self.now, fanout, tx.trace_id)
        else:
            tx.trace_id = tr.on_send(tx.message, self.now, fanout,
                                     parent=tx.trace_parent)

    def _drop(self, tx: _Transmission, receiver: int) -> None:
        self.stats.drops += 1
        if self.tracer is not None:
            self.tracer.on_drop(tx.message, tx.message.sender, receiver,
                                self.now)

    def _sent(self, tx: _Transmission, delivered: int) -> bool:
        """Account one on-air frame that reached *delivered* receivers.

        Returns True (and spends one unit of budget) when a neighbour still
        owes an ack and a retransmission is left.
        """
        sender = tx.message.sender
        if tx.transmitted:
            self.stats.record_retry(sender, delivered)
        elif tx.message.correction:
            self.stats.record_correction(sender, delivered)
        else:
            self.stats.record_broadcast(sender, delivered)
        tx.transmitted = True
        if tx.awaiting and tx.retries_left > 0:
            tx.retries_left -= 1
            return True
        return False

    # -- receive side -------------------------------------------------------

    def _receive(self, tx: _Transmission, node: int) -> bool:
        """The receive-side ARQ step for a frame that reached *node*: ack it
        (the ack crosses the same faulty link) and suppress duplicates.
        Returns whether the frame is fresh, i.e. is handed to the protocol.
        """
        plan = self.fault_plan
        tr = self.tracer
        sender = tx.message.sender
        if node in tx.awaiting:
            if plan is None or plan.ack_delivers(node, sender, self.round,
                                                 tx.seq):
                tx.awaiting.discard(node)
            else:
                self.stats.acks_dropped += 1
                if tr is not None:
                    tr.on_ack_drop(tx.message, node, sender, self.now)
        fresh, evicted = self._seen_seqs[node].add(tx.seq)
        if evicted:
            self.stats.seen_evictions += evicted
        if not fresh:
            self.stats.redundant_deliveries += 1
            if tr is not None:
                tr.on_redundant(tx.message, node, self.now)
        return fresh

    def _deliver_traced(self, node: int, tx: _Transmission,
                        protocol: NodeProtocol, api: NodeApi) -> None:
        """Hand a fresh frame to *node*'s protocol with a tracer attached:
        log the delivery and make it the cause of anything the handler
        queues."""
        tr = self.tracer
        tr.on_deliver(node, tx.message, tx.trace_id, self.now)
        tr.begin_handling(tx.trace_id)
        try:
            protocol.on_message(tx.message, api)
        finally:
            tr.end_handling()

    def _trace_crash_transitions(self) -> None:
        """Emit crash/recover events for nodes whose up-state flipped.

        Tracing-only bookkeeping: only nodes with a crash schedule can ever
        flip, so the scan is bounded by the fault plan, not the network.
        """
        plan = self.fault_plan
        for node in plan.crashes:
            up = plan.node_up(node, self.round)
            if up != self._trace_up.get(node, True):
                self._trace_up[node] = up
                if up:
                    self.tracer.on_recover(node, self.now)
                else:
                    self.tracer.on_crash(node, self.now)
