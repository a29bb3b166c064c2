"""The asynchronous event-driven message-passing simulator.

Where :class:`~repro.runtime.scheduler.SynchronousScheduler` advances the
whole network in lockstep rounds, this scheduler runs a priority-queue
event loop over *virtual time*: every frame draws a per-link delivery
latency from a seeded :class:`~repro.runtime.latency.LatencyModel`, so
frames reorder, BFS waves stop arriving in distance order, and nothing
resembling a global round barrier exists.  Protocols get two asynchronous
primitives instead — per-message delivery (:meth:`NodeProtocol.on_message`
plus a per-batch :meth:`NodeProtocol.on_batch_end` flush hook) and local
timers (:meth:`AsyncNodeApi.set_timer` / :meth:`NodeProtocol.on_timer`).

**Equivalence oracle.**  Same-time deliveries are processed as one batch
per receiver, ordered exactly like the synchronous scheduler orders its
round inboxes (frame send order), and same-time timers fire after the
deliveries in node-id order — the event-driven analogue of "handlers, then
round hooks".  With a degenerate (zero-jitter) latency model every frame
takes exactly the base latency, batches coincide with synchronous rounds,
and a dual-mode protocol produces results identical to its synchronous
run.  That equivalence is enforced by the cross-scheduler tests; jitter
then perturbs *timing only*, and any result change is attributable to
asynchrony rather than to simulator divergence.

**Termination.**  "The network is quiet this round" does not exist here.
The run ends when a Dijkstra–Scholten-style deficit count converges: every
scheduled delivery raises its sender's deficit, every consumed (or
dropped) frame settles it, and quiescence is deficit-zero with no pending
timer or retransmission.  The detector's observations are surfaced as
:class:`~repro.runtime.stats.ConvergenceReport` on the returned
:class:`~repro.runtime.stats.RunStats`.  A virtual-time ``deadline`` turns
a genuinely non-converging run into either an error or a partial result
(``deadline_action``), mirroring the synchronous ``max_rounds`` contract.

Faults reuse :class:`~repro.runtime.faults.FaultPlan` with the round
coordinate of every draw taken as ``int(virtual time)``.  The link layer
(ARQ state, dedup, ack resolution, accounting, crash tracing) is the one
:class:`~repro.runtime.link.LinkLayer` the synchronous scheduler also
runs on; what differs is timing.  Here a receiver's crash, ack and
duplicate state are settled when the frame arrives, and recovery
(:class:`~repro.runtime.faults.RetryPolicy`) is genuinely asynchronous —
retransmissions are scheduled on a timeout that backs off exponentially
(``rto``, ``rto_backoff``) instead of riding a global round.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..network.graph import SensorNetwork
from .faults import FaultPlan, RetryPolicy
from .latency import LatencyModel
from .link import LinkLayer, ProtocolFactory, _Transmission, \
    check_deadline_action
from .protocol import NodeApi
from .stats import ConvergenceReport, RunStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..observability import Tracer

__all__ = ["AsyncNodeApi", "AsyncProfile", "AsyncScheduler"]

# Same-time event ranks: deliveries drain first (the "round's messages"),
# then link-layer retransmissions go back on air, then protocol timers fire
# (the local analogue of a round-end hook).
_RANK_DELIVERY = 0
_RANK_RETX = 1
_RANK_TIMER = 2


@dataclass(frozen=True)
class AsyncProfile:
    """Protocol-side tuning for asynchronous execution.

    Attributes:
        grace: slack added to each nominal phase deadline, in units of the
            base latency.  A node advances a phase only after its deadline
            passes with no fresh phase traffic.
        backoff: multiplier applied to the grace every time late traffic
            extends a deadline (adaptive timeout with exponential backoff;
            1.0 = fixed grace).
        correction_budget: per-node bound on repair re-forwards — upgraded
            records transmitted after the node already spent its
            algorithmic budget.  Spent budget suppresses further
            corrections (counted in ``RunStats.corrections_suppressed``).
        aggregation_delay: how long a node holds freshly learned gossip
            entries before flushing them in one broadcast (absolute virtual
            time).  Zero flushes at every batch end — the synchronous-
            equivalent behaviour — but under jitter same-wave entries
            arrive at distinct instants and per-entry flushes burn the
            broadcast budget; a delay near the jitter magnitude
            re-aggregates them (Trickle-style).  Phase schedules stretch
            their per-hop time by this delay.
    """

    grace: float = 2.0
    backoff: float = 1.5
    correction_budget: int = 16
    aggregation_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.grace < 0:
            raise ValueError("grace must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.correction_budget < 0:
            raise ValueError("correction_budget must be >= 0")
        if self.aggregation_delay < 0:
            raise ValueError("aggregation_delay must be >= 0")


class AsyncNodeApi(NodeApi):
    """Node capabilities under the event-driven runtime: broadcasts, the
    local clock, and timers.  No global round exists; ``round`` degrades to
    ``int(now)`` for code that only wants a coarse epoch."""

    is_async = True

    @property
    def now(self) -> float:
        """Current virtual time (this node is handling an event at it)."""
        return self._scheduler.now

    @property
    def base_latency(self) -> float:
        """The latency model's base delay — the unit phase schedules use."""
        return self._scheduler.latency.base

    def set_timer(self, delay: float, tag: str) -> None:
        """Arm a timer: ``on_timer(tag)`` fires at ``now + delay``."""
        self._scheduler.schedule_timer(self.node_id, delay, tag)


class AsyncScheduler(LinkLayer):
    """Runs one protocol instance per node over an event-driven fabric."""

    def __init__(self, network: SensorNetwork, protocol_factory: ProtocolFactory,
                 latency: Optional[LatencyModel] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 tracer: Optional["Tracer"] = None):
        self.latency = latency if latency is not None else LatencyModel.fixed()
        self.now = 0.0
        super().__init__(network, protocol_factory, AsyncNodeApi, fault_plan,
                         retry_policy, tracer)
        # Event heap: (time, rank, key, seq, payload).  ``key`` is the frame
        # seq for deliveries (send order) and the node id for timers (round-
        # hook order); ``seq`` is a unique tiebreak so payloads never compare.
        self._events: List[Tuple[float, int, int, int, tuple]] = []
        self._event_seq = 0
        # Dijkstra–Scholten-style deficit counting: sends raise the sender's
        # deficit, consumed/dropped deliveries settle it.
        self._deficit: Dict[int, int] = {v: 0 for v in network.nodes()}
        self._outstanding = 0
        self._pending_retx = 0
        self._pending_timers = 0
        self._report = ConvergenceReport()

    @property
    def round(self) -> int:
        """The coarse epoch ``int(now)``: the round coordinate of every
        fault draw."""
        return int(self.now)

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: float, rank: int, key: int, payload: tuple) -> None:
        heapq.heappush(self._events, (time, rank, key, self._event_seq, payload))
        self._event_seq += 1

    def schedule_timer(self, node: int, delay: float, tag: str) -> None:
        if delay < 0:
            raise ValueError("timer delay must be >= 0")
        self._pending_timers += 1
        self._push(self.now + delay, _RANK_TIMER, node, ("timer", node, tag))

    # -- API used by AsyncNodeApi -------------------------------------------

    def queue_broadcast(self, sender: int, kind: str, payload,
                        correction: bool = False) -> None:
        policy = self.retry_policy
        rto = policy.rto * self.latency.base if policy is not None else 0.0
        self._transmit(
            self._new_transmission(sender, kind, payload, correction, rto)
        )

    # -- the fabric ---------------------------------------------------------

    def _transmit(self, tx: _Transmission) -> None:
        """Put one frame on the air: draw per-neighbour outcomes, schedule
        delivery events, and arm the retransmission timeout if needed."""
        plan = self.fault_plan
        sender = tx.message.sender
        rnd = int(self.now)
        if plan is not None and not plan.node_up(sender, rnd):
            if self._sender_down(tx):
                self._schedule_retx(tx, self._recovery_time(sender, rnd))
            return
        neighbors = self.network.neighbors(sender)
        if self.tracer is not None:
            self._trace_on_air(tx, len(neighbors))
        delivered = 0
        for v in neighbors:
            if plan is not None and (
                plan.node_permanently_down(v, rnd)
                or not plan.link_up(sender, v, rnd)
                or not plan.delivers(sender, v, rnd, tx.seq)
            ):
                self._drop(tx, v)
                continue
            delivered += 1
            delay = self.latency.delay(sender, v, tx.seq)
            self._deficit[sender] += 1
            self._outstanding += 1
            self._report.max_outstanding = max(
                self._report.max_outstanding, self._outstanding
            )
            # Acks are resolved when the frame actually arrives (the
            # receiver may crash mid-flight); the delivery event carries the
            # transmission so arrival processing can settle ``awaiting``.
            self._push(self.now + delay, _RANK_DELIVERY, tx.seq,
                       ("msg", v, tx))
        if self._sent(tx, delivered):
            self._schedule_retx(tx, self.now + tx.rto)
            tx.rto *= self.retry_policy.rto_backoff

    def _schedule_retx(self, tx: _Transmission, at: float) -> None:
        self._pending_retx += 1
        self._push(at, _RANK_RETX, tx.seq, ("retx", tx))

    def _recovery_time(self, node: int, rnd: int) -> float:
        """When a crashed node will act again (its window end, or one base
        latency later for windows that are already closing)."""
        window = self.fault_plan.crashes.get(node)
        if window is not None and window.end is not None and window.end > rnd:
            return float(window.end)
        return self.now + self.latency.base

    def _settle(self, sender: int) -> None:
        self._deficit[sender] -= 1
        self._outstanding -= 1

    # -- execution ----------------------------------------------------------

    def _start(self) -> None:
        # on_start in node order, then the t=0 batch hook in node order —
        # protocols whose first send happens in a flush (lazily provided
        # values) get their kick without a synthetic round.  The round
        # bucket opens first so even on_start broadcasts land in it (the
        # shutdown invariant re-totals the per-round split).
        self.stats.start_round()
        for node in self.network.nodes():
            self.protocols[node].on_start(self.apis[node])
        for node in self.network.nodes():
            self.protocols[node].on_batch_end(self.apis[node])
        self._started = True

    def _node_up(self, node: int) -> bool:
        return self.fault_plan is None or self.fault_plan.node_up(node, int(self.now))

    def _process_batch(self, events: List[tuple]) -> None:
        """Handle every event sharing one virtual-time instant.

        Deliveries are grouped per receiver preserving frame send order
        (exactly how the synchronous scheduler fills round inboxes), each
        receiving node then runs its batch-end flush, and finally
        retransmissions and timers fire.
        """
        inboxes: Dict[int, List[tuple]] = {}
        retx: List[_Transmission] = []
        timers: List[tuple] = []
        for payload in events:
            if payload[0] == "msg":
                inboxes.setdefault(payload[1], []).append(payload)
            elif payload[0] == "retx":
                retx.append(payload[1])
            else:
                timers.append(payload)
        if inboxes:
            self.stats.start_round()
        arq = self.retry_policy is not None
        tr = self.tracer
        if tr is not None and self.fault_plan is not None:
            self._trace_crash_transitions()
        for node, batch in inboxes.items():
            api = self.apis[node]
            protocol = self.protocols[node]
            up = self._node_up(node)
            for _, _, tx in batch:
                self._settle(tx.message.sender)
                self._report.deliveries += 1
                if not up:
                    # A crash outlasting the flight also swallows the ack:
                    # the sender keeps this receiver in ``awaiting`` and the
                    # ARQ retries into the crash window, exactly like the
                    # synchronous fabric (which resolves acks at send time).
                    self._drop(tx, node)
                    continue
                if arq and not self._receive(tx, node):
                    continue
                if tr is None:
                    protocol.on_message(tx.message, api)
                else:
                    self._deliver_traced(node, tx, protocol, api)
        for node in inboxes:
            if self._node_up(node):
                self.protocols[node].on_batch_end(self.apis[node])
        for tx in retx:
            self._pending_retx -= 1
            if not tx.awaiting:
                continue  # fully acked while the timeout was pending
            self._transmit(tx)
        for _, node, tag in timers:
            self._pending_timers -= 1
            if not self._node_up(node):
                window = self.fault_plan.crashes.get(node)
                if window is not None and window.is_permanent:
                    continue  # the node will never act on this timer
                self.schedule_timer(
                    node, self._recovery_time(node, int(self.now)) - self.now, tag
                )
                continue
            self._report.timer_fires += 1
            if tr is not None:
                tr.on_timer(node, tag, self.now)
            self.protocols[node].on_timer(tag, self.apis[node])

    def run(self, deadline: Optional[float] = None,
            max_events: int = 5_000_000,
            deadline_action: str = "raise") -> RunStats:
        """Drain the event loop to quiescence.

        ``deadline`` bounds *virtual* time, ``max_events`` bounds work; on
        either limit ``deadline_action`` picks between ``"raise"`` and
        ``"return_partial"`` (stats with ``quiesced=False``).  A finished
        run carries the convergence detector's report in
        :attr:`RunStats.convergence`.
        """
        check_deadline_action(deadline_action)
        if not self._started:
            self._start()
        processed = 0
        quiesced = True
        while self._events:
            time = self._events[0][0]
            if deadline is not None and time > deadline:
                quiesced = False
                break
            # Pop the full same-time slice: one batch per instant.
            batch: List[tuple] = []
            while self._events and self._events[0][0] == time:
                batch.append(heapq.heappop(self._events)[4])
            self.now = time
            processed += len(batch)
            self._process_batch(batch)
            if processed > max_events:
                quiesced = False
                break
        if not quiesced and deadline_action == "raise":
            raise RuntimeError(
                f"protocol did not quiesce within the budget "
                f"(virtual time {self.now:g}, {processed} events)"
            )
        # Quiescence in the detector's terms: zero deficit everywhere and
        # nothing armed.  On a drained heap this holds by construction; a
        # deadline-cut run reports what was still outstanding.
        self._report.quiesced = (
            quiesced and self._outstanding == 0
            and self._pending_retx == 0 and self._pending_timers == 0
        )
        self._report.virtual_time = self.now
        self._report.events = processed
        self._report.partitioned = self._is_partitioned()
        self.stats.quiesced = self._report.quiesced
        self.stats.convergence = self._report
        self.stats.check_invariants()
        return self.stats

    def _is_partitioned(self) -> bool:
        """Whether permanent crashes disconnected the surviving nodes."""
        plan = self.fault_plan
        if plan is None or not plan.crashes:
            return False
        components = live_components(self.network, plan)
        return len(components) > 1


def live_components(network: SensorNetwork,
                    fault_plan: Optional[FaultPlan]) -> List[List[int]]:
    """Connected components of the topology that survives the fault plan —
    nodes never permanently crashed, linked by edges between survivors.
    One component means the network heals; more means it is partitioned and
    each fragment can at best compute a partial result.  Components are
    sorted id lists, largest first (ties by smallest member).
    """
    alive = [
        v for v in network.nodes()
        if fault_plan is None or not fault_plan.node_permanently_down(v, 2**62)
    ]
    # The induced subgraph renumbers ``alive[i]`` to ``i``; the renumbering
    # is monotone, so mapping back keeps each list sorted and the order.
    return [
        [alive[i] for i in component]
        for component in network.induced_subgraph(alive).connected_components()
    ]
