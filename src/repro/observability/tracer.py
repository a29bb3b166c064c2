"""The protocol tracer: spans, events, and incremental per-phase aggregates.

A :class:`Tracer` is handed to a scheduler (and optionally to the pipeline
entry points) and records what the run *did* rather than just how much it
cost: every send, delivery, drop, retry, ack loss, correction, timer fire
and crash transition becomes a :class:`TraceEvent` stamped with virtual
time and node id, and coarse units of work (pipeline stages, protocol
phases, per-site floods) become :class:`Span` records.

Two recording modes:

* ``Tracer()`` (default) keeps the full event log — what
  :class:`~repro.observability.query.TraceQuery` and the Chrome trace
  export consume;
* ``Tracer(record_events=False)`` keeps only the incremental per-phase
  aggregates that feed :class:`~repro.observability.metrics.MetricsReport`
  — the cheap mode experiments use for per-phase breakdown columns.

**Observational purity.**  Tracing never touches protocol or scheduler
state: schedulers call the hooks purely to *record*, and a run with a
tracer attached is bit-identical (results and ``RunStats``) to the same
run without one.  The purity property tests enforce this across all three
fabrics.  When no tracer is attached the schedulers skip every hook behind
a single ``is not None`` check, so the disabled cost is one branch per
already-expensive operation.

**Phase attribution.**  A message's ``kind`` tag *is* its protocol phase
("nbr", "size", "index", "site", ...): the paper's pipeline runs one
message kind per phase, so per-kind aggregation yields the per-phase
breakdown without the protocols carrying any extra bookkeeping.  Site
floods additionally expose per-site first/last activity windows, parsed
from the ``(site, hops)`` payload of
:class:`~repro.core.distributed.SkeletonNodeProtocol`'s "site" messages.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "TraceEvent", "Tracer"]

#: Event kinds a tracer records (the ``kind`` field of :class:`TraceEvent`).
EVENT_KINDS = (
    "send",          # first on-air transmission of an algorithmic broadcast
    "correction",    # first on-air transmission of repair traffic
    "retry",         # link-layer retransmission of an earlier send
    "deliver",       # frame consumed by a receiver's protocol handler
    "drop",          # lost link-level delivery attempt
    "ack_drop",      # lost acknowledgement
    "redundant",     # duplicate frame suppressed at the receiver
    "suppress",      # correction swallowed by a spent re-forward budget
    "timer",         # protocol timer fired (event-driven runtime)
    "crash",         # node went down (fault plan)
    "recover",       # node came back up
)


@dataclass
class TraceEvent:
    """One recorded protocol event.

    Attributes:
        seq: global record order (unique, monotonically increasing).
        time: virtual time — the round number on the synchronous
            scheduler, the event-loop clock on the asynchronous one.
        kind: one of :data:`EVENT_KINDS`.
        node: the acting node — the sender for send/retry/correction, the
            receiver for deliver/drop/redundant, the owner for timer/crash.
        phase: the message kind this event belongs to ("" for events with
            no message, e.g. timers and crashes).
        msg_id: tracer-assigned id of the broadcast involved (None when no
            message is involved).
        parent: for send/correction events, the ``msg_id`` whose delivery
            the sender was handling when it queued this broadcast — the
            causal edge :meth:`TraceQuery.causal_chain` walks.  None for
            broadcasts triggered by round hooks, timers, or ``on_start``.
        extra: small mapping of event-specific details (fanout, peer, tag).
    """

    seq: int
    time: float
    kind: str
    node: int
    phase: str = ""
    msg_id: Optional[int] = None
    parent: Optional[int] = None
    extra: Optional[Dict[str, Any]] = None


@dataclass
class Span:
    """One named interval of work.

    ``clock`` distinguishes wall-clock spans (pipeline stages, measured
    with ``time.perf_counter``) from virtual-time spans (protocol phases
    and per-site floods, derived from the event stream).
    """

    name: str
    category: str
    start: float
    end: float
    clock: str = "wall"
    node: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _PhaseAgg:
    """Incremental per-phase counters (maintained in both recording modes)."""

    __slots__ = (
        "broadcasts", "corrections", "retries", "drops", "deliveries",
        "redundant", "acks_dropped", "suppressed", "first_time", "last_time",
        "_bucket", "_bucket_sends", "peak_frontier", "node_last",
        "sends_by_node",
    )

    def __init__(self) -> None:
        self.broadcasts = 0
        self.corrections = 0
        self.retries = 0
        self.drops = 0
        self.deliveries = 0
        self.redundant = 0
        self.acks_dropped = 0
        self.suppressed = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        # Frontier: how many first transmissions share one virtual instant
        # (one round on the synchronous scheduler, one batch instant on the
        # asynchronous one) — the width of the advancing wave.
        self._bucket: Optional[float] = None
        self._bucket_sends = 0
        self.peak_frontier = 0
        #: node -> time of the last frame delivered to it in this phase
        #: (the per-node convergence instant the latency percentiles use).
        self.node_last: Dict[int, float] = {}
        #: node -> algorithmic broadcasts sent (the Theorem 5 quantity).
        self.sends_by_node: Dict[int, int] = {}

    def touch(self, time: float) -> None:
        if self.first_time is None:
            self.first_time = time
        self.last_time = time

    def count_send(self, node: int, time: float) -> None:
        if time != self._bucket:
            self._bucket = time
            self._bucket_sends = 0
        self._bucket_sends += 1
        if self._bucket_sends > self.peak_frontier:
            self.peak_frontier = self._bucket_sends
        self.sends_by_node[node] = self.sends_by_node.get(node, 0) + 1


class Tracer:
    """Records one scheduler (or pipeline) run.

    See the module docstring for the recording modes and the purity
    contract.  A tracer is single-use: attach it to exactly one run, then
    read it out via :meth:`metrics`, :meth:`query`, or the exporters in
    :mod:`repro.observability.export`.
    """

    def __init__(self, record_events: bool = True):
        self.record_events = record_events
        self.events: List[TraceEvent] = []
        self.spans: List[Span] = []
        self.timer_fires = 0
        self.crashes = 0
        self.recoveries = 0
        #: stage -> artifact-cache lookup counts (fed by ArtifactCache).
        self.cache_hits: Dict[str, int] = {}
        self.cache_misses: Dict[str, int] = {}
        #: stage -> corrupt disk entries quarantined (fed by ArtifactCache
        #: integrity checks).
        self.cache_quarantined: Dict[str, int] = {}
        self._phases: Dict[str, _PhaseAgg] = {}
        self._sites: Dict[int, Tuple[float, float]] = {}
        self._next_seq = 0
        self._next_msg_id = 0
        self._cause: Optional[int] = None
        self._open_spans: Dict[int, Span] = {}
        self._next_span_id = 0

    # -- internals ----------------------------------------------------------

    def _agg(self, phase: str) -> _PhaseAgg:
        agg = self._phases.get(phase)
        if agg is None:
            agg = self._phases[phase] = _PhaseAgg()
        return agg

    def _record(self, time: float, kind: str, node: int, phase: str = "",
                msg_id: Optional[int] = None, parent: Optional[int] = None,
                extra: Optional[Dict[str, Any]] = None) -> None:
        if not self.record_events:
            return
        self.events.append(
            TraceEvent(self._next_seq, time, kind, node, phase,
                       msg_id, parent, extra)
        )
        self._next_seq += 1

    def _note_site(self, msg, time: float) -> None:
        # Site-flood payloads are (site, hops) by protocol convention; any
        # other shape simply opts out of per-site windows.
        payload = msg.payload
        if isinstance(payload, tuple) and len(payload) == 2 \
                and isinstance(payload[0], int):
            site = payload[0]
            window = self._sites.get(site)
            if window is None:
                self._sites[site] = (time, time)
            else:
                self._sites[site] = (window[0], time)

    # -- scheduler hooks ----------------------------------------------------

    def on_send(self, msg, time: float, fanout: int,
                parent: Optional[int] = None) -> int:
        """Record the first on-air transmission of *msg*; returns its id."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        phase = msg.kind
        agg = self._agg(phase)
        agg.touch(time)
        if msg.correction:
            agg.corrections += 1
        else:
            agg.broadcasts += 1
            agg.count_send(msg.sender, time)
        if phase == "site":
            self._note_site(msg, time)
        self._record(time, "correction" if msg.correction else "send",
                     msg.sender, phase, msg_id, parent, {"fanout": fanout})
        return msg_id

    def on_retry(self, msg, time: float, fanout: int, msg_id: int) -> None:
        agg = self._agg(msg.kind)
        agg.touch(time)
        agg.retries += 1
        self._record(time, "retry", msg.sender, msg.kind, msg_id,
                     extra={"fanout": fanout})

    def on_deliver(self, node: int, msg, msg_id: Optional[int],
                   time: float) -> None:
        agg = self._agg(msg.kind)
        agg.touch(time)
        agg.deliveries += 1
        agg.node_last[node] = time
        if msg.kind == "site":
            self._note_site(msg, time)
        self._record(time, "deliver", node, msg.kind, msg_id,
                     extra={"from": msg.sender})

    def on_drop(self, msg, sender: int, receiver: Optional[int],
                time: float, count: int = 1) -> None:
        """A lost delivery attempt; ``receiver=None`` means the whole frame
        died in the (crashed) sender's queue and *count* links were lost."""
        agg = self._agg(msg.kind)
        agg.touch(time)
        agg.drops += count
        self._record(time, "drop",
                     receiver if receiver is not None else sender,
                     msg.kind, extra={"from": sender, "count": count})

    def on_ack_drop(self, msg, receiver: int, sender: int,
                    time: float) -> None:
        agg = self._agg(msg.kind)
        agg.acks_dropped += 1
        self._record(time, "ack_drop", receiver, msg.kind,
                     extra={"to": sender})

    def on_redundant(self, msg, receiver: int, time: float) -> None:
        agg = self._agg(msg.kind)
        agg.redundant += 1
        self._record(time, "redundant", receiver, msg.kind,
                     extra={"from": msg.sender})

    def on_suppress(self, node: int, time: float) -> None:
        """A correction was swallowed by a spent re-forward budget.

        Budget exhaustion is per-node, not per-phase, so the event carries
        no phase; the aggregate lands in the metrics report's totals.
        """
        self._agg("").suppressed += 1
        self._record(time, "suppress", node)

    def on_cache(self, stage: str, hit: bool) -> None:
        """One artifact-cache lookup (:mod:`repro.perf.cache`).

        Counted per stage in both recording modes; cache lookups happen
        outside any scheduler, so no :class:`TraceEvent` is emitted —
        the counters surface through
        :class:`~repro.observability.metrics.MetricsReport`.
        """
        counters = self.cache_hits if hit else self.cache_misses
        counters[stage] = counters.get(stage, 0) + 1

    def on_quarantine(self, stage: str) -> None:
        """A corrupt on-disk cache entry failed its digest check and was
        moved to quarantine (:mod:`repro.perf.cache`).  Counter-only, like
        :meth:`on_cache` — integrity events happen outside any scheduler.
        """
        self.cache_quarantined[stage] = \
            self.cache_quarantined.get(stage, 0) + 1

    def on_timer(self, node: int, tag: str, time: float) -> None:
        self.timer_fires += 1
        self._record(time, "timer", node, extra={"tag": tag})

    def on_crash(self, node: int, time: float) -> None:
        self.crashes += 1
        self._record(time, "crash", node)

    def on_recover(self, node: int, time: float) -> None:
        self.recoveries += 1
        self._record(time, "recover", node)

    # -- causality ----------------------------------------------------------

    @property
    def current_cause(self) -> Optional[int]:
        """The msg id whose delivery is being handled right now (None
        outside a message handler)."""
        return self._cause

    def begin_handling(self, msg_id: Optional[int]) -> None:
        self._cause = msg_id

    def end_handling(self) -> None:
        self._cause = None

    # -- spans ---------------------------------------------------------------

    def begin_span(self, name: str, category: str = "pipeline",
                   time: Optional[float] = None) -> int:
        """Open a span; ``time=None`` stamps wall-clock, an explicit value
        stamps virtual time.  Returns a handle for :meth:`end_span`."""
        clock = "wall" if time is None else "virtual"
        start = _time.perf_counter() if time is None else time
        span = Span(name=name, category=category, start=start, end=start,
                    clock=clock)
        sid = self._next_span_id
        self._next_span_id += 1
        self._open_spans[sid] = span
        return sid

    def end_span(self, span_id: int, time: Optional[float] = None) -> Span:
        span = self._open_spans.pop(span_id)
        span.end = _time.perf_counter() if time is None else time
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, category: str = "pipeline") -> Iterator[None]:
        """Wall-clock span context manager for pipeline stages."""
        sid = self.begin_span(name, category)
        try:
            yield
        finally:
            self.end_span(sid)

    def derived_spans(self) -> List[Span]:
        """Virtual-time spans reconstructed from the aggregates: one per
        protocol phase and one per site flood."""
        spans: List[Span] = []
        for phase, agg in self._phases.items():
            if not phase or agg.first_time is None:
                continue
            spans.append(Span(name=f"phase:{phase}", category="phase",
                              start=agg.first_time, end=agg.last_time,
                              clock="virtual"))
        for site, (first, last) in sorted(self._sites.items()):
            spans.append(Span(name=f"flood:site-{site}", category="flood",
                              start=first, end=last, clock="virtual",
                              node=site))
        return spans

    # -- read-out ------------------------------------------------------------

    @property
    def site_windows(self) -> Dict[int, Tuple[float, float]]:
        """site id -> (first activity, last activity) of its flood wave."""
        return dict(self._sites)

    def phase_names(self) -> List[str]:
        """Phases in order of first appearance (excluding the phase-less
        bucket used for budget-suppression accounting)."""
        return [p for p in self._phases if p]

    def metrics(self):
        """Aggregate the run into a
        :class:`~repro.observability.metrics.MetricsReport`."""
        from .metrics import build_metrics

        return build_metrics(self)

    def query(self):
        """A :class:`~repro.observability.query.TraceQuery` over the event
        log (requires ``record_events=True``)."""
        from .query import TraceQuery

        if not self.record_events:
            raise ValueError(
                "this tracer was created with record_events=False; only "
                "aggregate metrics are available"
            )
        return TraceQuery(self.events)
