"""Seeded synthetic workloads for :class:`~repro.serving.SkeletonService`.

A workload here is *closed-loop*: a fixed number of clients each keep at
most one request outstanding, issuing the next one only after the
previous resolved.  Every round, each client picks a network from a
shared catalog of paper scenarios under a Zipf-like popularity law
(rank ``r`` drawn with probability proportional to ``1/(r+1)**s``) — the
repeat-heavy traffic shape that makes content-addressed serving
worthwhile: popular networks are cache hits after their first
computation, and clients that collide *within* a round coalesce through
request dedup.

Rounds are submitted as a paused burst (``pause`` → submit → ``resume``)
so the dedup opportunity is deterministic: identical picks in one round
attach to one in-flight computation regardless of scheduling, on wall or
virtual clock.  Everything is derived from ``WorkloadSpec.seed`` — same
spec, same request sequence, same counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from ..network import PAPER_SCENARIOS, get_scenario
from ..network.graph import SensorNetwork
from ..observability.metrics import percentile
from .service import SkeletonResponse, SkeletonService

__all__ = ["WorkloadSpec", "WorkloadReport", "build_catalog", "run_workload"]

_MIXABLE_KINDS = ("skeleton", "segmentation", "boundary")


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that defines one synthetic workload, seed included."""

    seed: int = 7
    requests: int = 40
    clients: int = 4
    catalog_size: int = 5
    num_nodes: int = 220
    zipf_s: float = 1.2
    kind: str = "skeleton"
    mix_kinds: bool = False
    deadline: Optional[float] = None
    deadline_action: Optional[str] = None
    #: Virtual seconds advanced between rounds when the service runs on a
    #: :class:`~repro.serving.clock.VirtualClock`; ignored on wall time.
    think_time: float = 0.0
    scenarios: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")


def build_catalog(spec: WorkloadSpec) -> List[SensorNetwork]:
    """The networks this workload requests, most popular first.

    Paper scenarios are cycled (``spec.scenarios`` or all of them,
    sorted) with per-entry seeds, so every catalog entry has a distinct
    ``content_hash`` even when two entries share a scenario shape.
    """
    names = list(spec.scenarios) if spec.scenarios else sorted(PAPER_SCENARIOS)
    catalog = []
    for rank in range(spec.catalog_size):
        name = names[rank % len(names)]
        catalog.append(get_scenario(name).build(seed=spec.seed + rank,
                                                num_nodes=spec.num_nodes))
    return catalog


@dataclass(frozen=True)
class WorkloadReport:
    """What one workload run did, reduced to the serving quantities."""

    requests: int
    elapsed_s: float
    rps: float
    ok: int
    failed: int
    shed: int
    cache_hits: int
    dedup_hits: int
    computed: int
    latency_p50: float
    latency_p99: float
    latency_max: float
    seed: int
    clients: int
    catalog_size: int

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "elapsed_s": self.elapsed_s,
            "rps": self.rps,
            "ok": self.ok,
            "failed": self.failed,
            "shed": self.shed,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "computed": self.computed,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "seed": self.seed,
            "clients": self.clients,
            "catalog_size": self.catalog_size,
        }


def run_workload(service: SkeletonService,
                 spec: WorkloadSpec) -> WorkloadReport:
    """Drive *spec* against *service*; returns the aggregated report.

    Throughput (``rps``) and the elapsed wall clock are always measured
    on real time — a virtual service clock changes what *latencies* and
    *deadlines* mean, not how fast the machine actually served.
    """
    catalog = build_catalog(spec)
    weights = [1.0 / (rank + 1) ** spec.zipf_s
               for rank in range(len(catalog))]
    client_rngs = [Random(spec.seed * 100_003 + client)
                   for client in range(spec.clients)]
    computed_before = service.stats().computed
    responses: List[SkeletonResponse] = []
    issued = 0
    started = time.perf_counter()
    while issued < spec.requests:
        round_size = min(spec.clients, spec.requests - issued)
        picks = []
        for client in range(round_size):
            rng = client_rngs[client]
            index = rng.choices(range(len(catalog)), weights=weights, k=1)[0]
            kind = rng.choice(_MIXABLE_KINDS) if spec.mix_kinds else spec.kind
            picks.append((catalog[index], kind))
        service.pause()
        tickets = [service.submit(network, kind,
                                  deadline=spec.deadline,
                                  deadline_action=spec.deadline_action)
                   for network, kind in picks]
        service.resume(drain=True)
        responses.extend(ticket.result(timeout=600) for ticket in tickets)
        issued += round_size
        if spec.think_time > 0 and getattr(service.clock, "is_virtual",
                                           False):
            service.clock.advance(spec.think_time)
    elapsed = time.perf_counter() - started

    latencies = [r.latency for r in responses if r.ok]
    return WorkloadReport(
        requests=len(responses),
        elapsed_s=elapsed,
        rps=len(responses) / elapsed if elapsed > 0 else 0.0,
        ok=sum(r.status == "ok" for r in responses),
        failed=sum(r.status == "failed" for r in responses),
        shed=sum(r.status == "shed" for r in responses),
        cache_hits=sum(r.from_cache for r in responses),
        dedup_hits=sum(r.deduped for r in responses),
        computed=service.stats().computed - computed_before,
        latency_p50=percentile(latencies, 0.50),
        latency_p99=percentile(latencies, 0.99),
        latency_max=max(latencies, default=0.0),
        seed=spec.seed,
        clients=spec.clients,
        catalog_size=spec.catalog_size,
    )
