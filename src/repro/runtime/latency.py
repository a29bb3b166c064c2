"""Per-link delivery-latency models for the event-driven runtime.

The paper's protocol assumes lockstep synchrony — "if the identified
critical skeleton nodes flood at roughly the same time, and the message
travels at approximately the same speed".  Real radios do neither: delivery
latency varies per link and per frame, frames reorder, and BFS waves stop
arriving in distance order.  :class:`LatencyModel` supplies the delays the
:class:`~repro.runtime.async_scheduler.AsyncScheduler` draws for each frame:

* ``fixed`` — every frame takes exactly ``base`` time units.  Degenerate
  (zero jitter): the event-driven run is result-identical to the
  synchronous scheduler, which is the cross-scheduler equivalence oracle.
* ``uniform`` — latency drawn uniformly from ``[base, base + jitter]``
  per (sender, receiver, sequence number).
* ``heavy_tail`` — a truncated Pareto tail on top of ``base``: most frames
  are near-nominal, a few straggle badly, matching contention/duty-cycle
  delay distributions in deployed sensor networks.

Like the fault fabric, every draw is a *pure function* of
``(seed, salt, sender, receiver, seq)`` via a splitmix64 hash — no mutable
RNG stream — so runs are bit-reproducible and decorrelated from the drop,
flap and ack channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .faults import _uniform

__all__ = ["LatencyModel"]

_SALT_LATENCY = 0x1A7E

_KINDS = ("fixed", "uniform", "heavy_tail")


@dataclass(frozen=True)
class LatencyModel:
    """A seeded, deterministic per-frame delivery-latency distribution.

    Attributes:
        kind: ``"fixed"``, ``"uniform"`` or ``"heavy_tail"``.
        base: minimum (and, for ``fixed``, exact) delivery latency.
        jitter: spread above ``base``: the uniform width, or the heavy-tail
            scale.  Must be 0 for ``fixed``.
        seed: root of every hash draw.
        tail_alpha: Pareto shape of the heavy tail (smaller = heavier).
        tail_cap: hard ceiling on any single draw, as a multiple of
            ``base + jitter`` — keeps event horizons finite.
    """

    kind: str = "fixed"
    base: float = 1.0
    jitter: float = 0.0
    seed: int = 0
    tail_alpha: float = 1.5
    tail_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        for name in ("base", "jitter", "tail_alpha", "tail_cap"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.base <= 0:
            raise ValueError("base latency must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.kind == "fixed" and self.jitter != 0:
            raise ValueError("fixed latency admits no jitter")
        if self.kind != "fixed" and self.jitter == 0:
            # A zero-width jitter window is the fixed model; normalising
            # here keeps `is_degenerate` a reliable equivalence predicate.
            object.__setattr__(self, "kind", "fixed")
        if self.tail_alpha <= 0:
            raise ValueError("tail_alpha must be positive")
        if self.tail_cap < 1.0:
            raise ValueError("tail_cap must be >= 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def fixed(cls, base: float = 1.0) -> "LatencyModel":
        """Every frame takes exactly *base* — the zero-jitter oracle."""
        return cls(kind="fixed", base=base)

    @classmethod
    def uniform_jitter(cls, jitter: float, base: float = 1.0,
                       seed: int = 0) -> "LatencyModel":
        """Latency uniform in ``[base, base + jitter]``."""
        return cls(kind="uniform", base=base, jitter=jitter, seed=seed)

    @classmethod
    def heavy_tail(cls, jitter: float, base: float = 1.0, seed: int = 0,
                   tail_alpha: float = 1.5, tail_cap: float = 8.0) -> "LatencyModel":
        """Truncated-Pareto straggler tail of scale *jitter* above *base*."""
        return cls(kind="heavy_tail", base=base, jitter=jitter, seed=seed,
                   tail_alpha=tail_alpha, tail_cap=tail_cap)

    # -- queries ------------------------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        """True when every draw equals ``base`` (the synchronous oracle)."""
        return self.kind == "fixed"

    @property
    def max_delay(self) -> float:
        """An upper bound on any single draw."""
        if self.kind == "fixed":
            return self.base
        if self.kind == "uniform":
            return self.base + self.jitter
        return (self.base + self.jitter) * self.tail_cap

    def delay(self, sender: int, receiver: int, seq: int) -> float:
        """The delivery latency of frame *seq* on link *sender* → *receiver*."""
        if self.kind == "fixed":
            return self.base
        u = _uniform(self.seed, _SALT_LATENCY, sender, receiver, seq)
        if self.kind == "uniform":
            return self.base + self.jitter * u
        # Heavy tail: invert the Pareto CDF on the open interval (0, 1];
        # flip u so u=0 (possible) maps to the benign end, then truncate.
        excess = self.jitter * ((1.0 - u) ** (-1.0 / self.tail_alpha) - 1.0)
        return min(self.base + excess, self.max_delay)
