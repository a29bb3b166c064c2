"""Compact per-phase metrics distilled from a traced run.

A :class:`MetricsReport` is the numeric face of a trace: per-phase message
counts (algorithmic broadcasts vs corrections vs retries), wave frontier
widths, per-node convergence-latency percentiles, and retry amplification.
It is built from the tracer's incremental aggregates, so it works in both
recording modes — experiments attach a ``Tracer(record_events=False)`` and
pay only counter updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = ["MetricsReport", "PhaseMetrics", "build_metrics", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for an empty sample."""
    if not 0 <= q <= 1:
        raise ValueError("q must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class PhaseMetrics:
    """One protocol phase's traffic and timing summary.

    ``latency_*`` percentiles are over per-node convergence instants —
    the virtual time at which each node received its *last* frame of the
    phase, measured relative to the phase's first activity.  They answer
    "how long until the wave settled at half / 90% / all of the nodes".
    """

    phase: str
    broadcasts: int
    corrections: int
    retries: int
    drops: int
    deliveries: int
    redundant: int
    acks_dropped: int
    first_time: float
    last_time: float
    peak_frontier: int
    nodes_reached: int
    max_node_sends: int
    latency_p50: float
    latency_p90: float
    latency_max: float

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time

    @property
    def on_air_frames(self) -> int:
        """Everything transmitted for this phase, recovery included."""
        return self.broadcasts + self.corrections + self.retries

    @property
    def retry_amplification(self) -> float:
        """On-air frames per algorithmic broadcast (1.0 = no recovery)."""
        if self.broadcasts == 0:
            return 0.0
        return self.on_air_frames / self.broadcasts


@dataclass(frozen=True)
class MetricsReport:
    """Per-phase metrics plus run-level totals for one traced run."""

    phases: Tuple[PhaseMetrics, ...]
    suppressed_corrections: int
    timer_fires: int
    crashes: int
    recoveries: int
    #: site id -> (first, last) virtual-time activity of its flood wave.
    site_windows: Mapping[int, Tuple[float, float]]
    #: artifact-cache lookups per stage (:mod:`repro.perf.cache`).
    cache_hits: Mapping[str, int] = field(default_factory=dict)
    cache_misses: Mapping[str, int] = field(default_factory=dict)
    #: corrupt disk entries quarantined per stage (cache integrity layer).
    cache_quarantined: Mapping[str, int] = field(default_factory=dict)
    #: total wall-clock seconds per recorded span name — pipeline stages
    #: and the vectorized :class:`~repro.network.traversal.TraversalEngine`
    #: kernels alike, so the report covers the array kernels and not just
    #: the message-passing runtimes.  Excluded from equality: wall time is
    #: the one non-deterministic quantity in the report, and report
    #: equality is the determinism contract the tests pin.
    stage_timings: Mapping[str, float] = field(default_factory=dict,
                                               compare=False)

    def by_phase(self) -> Dict[str, PhaseMetrics]:
        return {p.phase: p for p in self.phases}

    def phase_broadcasts(self) -> Dict[str, int]:
        """Algorithmic broadcast count per phase — the golden-snapshot
        quantity the trace regression tests pin."""
        return {p.phase: p.broadcasts for p in self.phases}

    @property
    def total_broadcasts(self) -> int:
        return sum(p.broadcasts for p in self.phases)

    @property
    def total_corrections(self) -> int:
        return sum(p.corrections for p in self.phases)

    @property
    def total_retries(self) -> int:
        return sum(p.retries for p in self.phases)

    @property
    def total_drops(self) -> int:
        return sum(p.drops for p in self.phases)

    @property
    def total_on_air(self) -> int:
        return sum(p.on_air_frames for p in self.phases)

    @property
    def retry_amplification(self) -> float:
        total = self.total_broadcasts
        return self.total_on_air / total if total else 0.0

    @property
    def total_cache_hits(self) -> int:
        return sum(self.cache_hits.values())

    @property
    def total_cache_misses(self) -> int:
        return sum(self.cache_misses.values())

    @property
    def cache_hit_rate(self) -> float:
        """Artifact-cache hit fraction over all lookups (0.0 when the run
        made none)."""
        total = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / total if total else 0.0

    @property
    def total_quarantined(self) -> int:
        return sum(self.cache_quarantined.values())


def build_metrics(tracer) -> MetricsReport:
    """Distil *tracer*'s aggregates into a :class:`MetricsReport`."""
    phases: List[PhaseMetrics] = []
    suppressed = 0
    for name, agg in tracer._phases.items():
        if not name:
            suppressed += agg.suppressed
            continue
        suppressed += agg.suppressed
        first = agg.first_time if agg.first_time is not None else 0.0
        last = agg.last_time if agg.last_time is not None else 0.0
        settle = [t - first for t in agg.node_last.values()]
        phases.append(PhaseMetrics(
            phase=name,
            broadcasts=agg.broadcasts,
            corrections=agg.corrections,
            retries=agg.retries,
            drops=agg.drops,
            deliveries=agg.deliveries,
            redundant=agg.redundant,
            acks_dropped=agg.acks_dropped,
            first_time=first,
            last_time=last,
            peak_frontier=agg.peak_frontier,
            nodes_reached=len(agg.node_last),
            max_node_sends=max(agg.sends_by_node.values(), default=0),
            latency_p50=percentile(settle, 0.50),
            latency_p90=percentile(settle, 0.90),
            latency_max=max(settle, default=0.0),
        ))
    timings: Dict[str, float] = {}
    for span in tracer.spans:
        if span.clock == "wall":
            timings[span.name] = timings.get(span.name, 0.0) + span.duration
    return MetricsReport(
        phases=tuple(phases),
        suppressed_corrections=suppressed,
        timer_fires=tracer.timer_fires,
        crashes=tracer.crashes,
        recoveries=tracer.recoveries,
        site_windows=tracer.site_windows,
        cache_hits=dict(tracer.cache_hits),
        cache_misses=dict(tracer.cache_misses),
        cache_quarantined=dict(tracer.cache_quarantined),
        stage_timings=timings,
    )
