"""Deterministic fault injection for the message-passing runtimes.

The paper's evaluation (Section IV) runs on lossy radios — QUDG and
log-normal shadowing — yet the baseline simulator assumes perfect
synchronous delivery.  :class:`FaultPlan` closes that gap with the three
standard failure modes of the distributed-boundary literature (Fekete et
al.; Schieferdecker et al.):

* **message drops** — each link-level delivery attempt independently fails
  with ``drop_probability``;
* **link flaps** — each undirected link is down for a whole round with
  ``flap_probability`` (both directions fail together, modelling fading);
* **node crashes** — a :class:`CrashWindow` takes a node down for a span of
  rounds; a crashed node neither transmits, receives, nor runs round hooks,
  and resumes with its state intact on recovery (crash-recover semantics).

Every decision is a *pure function* of ``(seed, salt, coordinates)`` via a
splitmix64 hash — no mutable RNG stream — so outcomes are bit-reproducible
given ``(seed, FaultPlan)`` regardless of evaluation order, and distinct
fault channels (data vs. ack, drop vs. flap) are decorrelated by salt.

:class:`RetryPolicy` configures the scheduler's link-layer recovery: each
broadcast is acknowledged per neighbour (acks traverse the same faulty
links) and retransmitted at most ``max_retries`` times to neighbours that
have not acked; receivers suppress duplicate frames by sequence number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["CrashWindow", "FaultPlan", "RetryPolicy"]

_MASK = (1 << 64) - 1

# Channel salts keep the per-(round, link) draws of independent fault
# mechanisms decorrelated.
_SALT_DROP = 0xD509
_SALT_FLAP = 0xF1A9
_SALT_ACK = 0xACC5


def _splitmix64(x: int) -> int:
    """One splitmix64 round: a fast, well-mixed 64-bit integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _uniform(seed: int, salt: int, *coords: int) -> float:
    """A deterministic draw in [0, 1) keyed by (seed, salt, coords)."""
    h = _splitmix64((seed & _MASK) ^ salt)
    for c in coords:
        h = _splitmix64(h ^ (c & _MASK))
    return h / 2.0**64


@dataclass(frozen=True)
class CrashWindow:
    """A node outage: down from round ``start`` until round ``end``.

    ``end`` is exclusive (the node is back up *at* round ``end``); ``None``
    means the node never recovers.
    """

    start: int
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("crash start round must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError("crash end round must be after start")

    def covers(self, rnd: int) -> bool:
        return rnd >= self.start and (self.end is None or rnd < self.end)

    @property
    def is_permanent(self) -> bool:
        return self.end is None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of runtime faults.

    Attributes:
        seed: root of every hash draw; two runs with equal ``(seed, plan)``
            produce identical fault patterns.
        drop_probability: per link-level delivery attempt (and per ack)
            failure probability; retransmissions redraw independently.
        flap_probability: per round, per undirected link probability that
            the link is down for that entire round.
        crashes: node id -> :class:`CrashWindow`.
    """

    seed: int = 0
    drop_probability: float = 0.0
    flap_probability: float = 0.0
    crashes: Mapping[int, CrashWindow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0.0 <= self.flap_probability < 1.0:
            raise ValueError("flap_probability must be in [0, 1)")

    # -- per-round predicates (all pure functions of the plan) --------------

    def node_up(self, node: int, rnd: int) -> bool:
        window = self.crashes.get(node)
        return window is None or not window.covers(rnd)

    def node_permanently_down(self, node: int, rnd: int) -> bool:
        """True once *node* has crashed with no scheduled recovery."""
        window = self.crashes.get(node)
        return window is not None and window.is_permanent and rnd >= window.start

    def link_up(self, u: int, v: int, rnd: int) -> bool:
        """Whether the undirected link {u, v} is up this round."""
        if self.flap_probability == 0.0:
            return True
        a, b = (u, v) if u < v else (v, u)
        return _uniform(self.seed, _SALT_FLAP, rnd, a, b) >= self.flap_probability

    def delivers(self, sender: int, receiver: int, rnd: int, seq: int) -> bool:
        """Whether one data-frame delivery attempt succeeds."""
        if self.drop_probability == 0.0:
            return True
        draw = _uniform(self.seed, _SALT_DROP, rnd, sender, receiver, seq)
        return draw >= self.drop_probability

    def ack_delivers(self, receiver: int, sender: int, rnd: int, seq: int) -> bool:
        """Whether the ack for a delivered frame makes it back."""
        if self.drop_probability == 0.0:
            return True
        draw = _uniform(self.seed, _SALT_ACK, rnd, receiver, sender, seq)
        return draw >= self.drop_probability


@dataclass(frozen=True)
class RetryPolicy:
    """Link-layer recovery: per-neighbour acks with bounded retransmission.

    A broadcast stays pending until every intended neighbour acked it or the
    retry budget is spent; each retransmission is one additional on-air
    frame, counted in :attr:`RunStats.retries` (never in the algorithmic
    ``broadcasts``).  ``max_retries = 0`` keeps acks and duplicate
    suppression but never retransmits.

    Attributes:
        max_retries: retransmission budget per broadcast.
        dedup_window: receiver-side duplicate suppression keeps at most this
            many sequence numbers per node (a sliding window over the
            highest seq seen); older entries are evicted and counted in
            :attr:`RunStats.seen_evictions`.  Retransmissions arrive within
            ``max_retries`` rounds of the original, far inside the window,
            so eviction never reopens a realistic duplicate — it just
            bounds a previously unbounded per-node set.
        rto: event-driven runtime only — retransmission timeout of the
            first retry, in units of the latency model's base delay.
        rto_backoff: multiplier applied to the timeout after every retry
            (exponential backoff; 1.0 = fixed interval).
    """

    max_retries: int = 3
    dedup_window: int = 4096
    rto: float = 2.0
    rto_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.dedup_window < 1:
            raise ValueError("dedup_window must be >= 1")
        if self.rto <= 0:
            raise ValueError("rto must be positive")
        if self.rto_backoff < 1.0:
            raise ValueError("rto_backoff must be >= 1")
