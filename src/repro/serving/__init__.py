"""``repro.serving`` — skeleton-as-a-service over the artifact cache.

The serving layer (DESIGN.md §14) wraps the extraction pipeline in a
long-lived, in-process request loop:

* :class:`SkeletonService` — submit networks, get skeleton /
  segmentation / boundary artifacts back; content-addressed cache
  serving, request dedup, bounded-queue admission with load shedding,
  per-request deadlines (full / shed), and batch fan-out supervised by
  the :class:`~repro.resilience.ResilientRunner` (retry, speculation,
  per-task failure isolation).  Single requests run the monolithic
  extractor.
* :class:`ServiceConfig` / :class:`SkeletonResponse` / :class:`Ticket` /
  :class:`ServiceStats` — the request-lifecycle vocabulary.
* :class:`SystemClock` / :class:`VirtualClock` — pluggable time, so the
  deadline and shedding batteries are deterministic.
* :class:`WorkloadSpec` / :func:`run_workload` — seeded closed-loop
  Zipf workloads (also the ``python -m repro.serving`` CLI).

Every response is bit-identical to a direct pipeline run on the same
network — the cache and dedup layers change *when* the pipeline runs,
never *what* it produces.
"""

from .clock import SystemClock, VirtualClock
from .service import (
    ARTIFACT_KINDS,
    RESULT_STAGE,
    ServiceConfig,
    ServiceStats,
    SkeletonResponse,
    SkeletonService,
    Ticket,
)
from .workload import WorkloadReport, WorkloadSpec, build_catalog, run_workload

__all__ = [
    "ARTIFACT_KINDS",
    "RESULT_STAGE",
    "ServiceConfig",
    "ServiceStats",
    "SkeletonResponse",
    "SkeletonService",
    "SystemClock",
    "Ticket",
    "VirtualClock",
    "WorkloadReport",
    "WorkloadSpec",
    "build_catalog",
    "run_workload",
]
