"""``repro.serving`` — skeleton-as-a-service over the artifact cache.

The serving layer (DESIGN.md §13) wraps the extraction pipeline in an
in-process request loop that runs on its callers' threads:

* :class:`SkeletonService` — submit networks, get skeleton /
  segmentation / boundary artifacts back; content-addressed cache
  serving, request dedup, bounded-queue admission with load shedding.
  Every computation runs the monolithic extractor.
* :class:`ServiceConfig` / :class:`SkeletonResponse` / :class:`Ticket` /
  :class:`ServiceStats` — the request-lifecycle vocabulary.

The layer's throughput under Zipf repeat traffic is measured by the
repository benchmark's ``serve_zipf`` workload (``benchmarks/e2e``).

Every response is bit-identical to a direct pipeline run on the same
network — the cache and dedup layers change *when* the pipeline runs,
never *what* it produces.
"""

from .service import (
    ARTIFACT_KINDS,
    RESULT_STAGE,
    ServiceConfig,
    ServiceStats,
    SkeletonResponse,
    SkeletonService,
    Ticket,
)

__all__ = [
    "ARTIFACT_KINDS",
    "RESULT_STAGE",
    "ServiceConfig",
    "ServiceStats",
    "SkeletonResponse",
    "SkeletonService",
    "Ticket",
]
