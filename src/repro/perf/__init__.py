"""Performance subsystem: batch execution and artifact caching.

Two cooperating layers turn the repository's experiment battery from a
serial, recompute-everything loop into a production-shaped pipeline:

* :class:`ArtifactCache` — a content-addressed store keyed by
  ``(graph content hash, params hash, stage)`` that memoizes scenario
  construction, k-hop neighbourhood tables and Voronoi flood artifacts
  across runners (in-memory LRU with an optional on-disk tier whose keys
  are versioned, so stale entries self-invalidate);
* :class:`ParallelRunner` — fans independent experiment configurations
  out over a ``ProcessPoolExecutor`` (worker count from ``jobs=`` or
  ``REPRO_JOBS``, serial by default) and merges the
  results deterministically: output order is the config order, never the
  completion order, so a parallel run is bit-identical to the serial one.
  A runner built with ``network=`` hands its tasks that network through
  :func:`task_network` (the pool initializer installs it per worker).

Cache lookups report hits and misses to the observability
:class:`~repro.observability.tracer.Tracer`, so a
:class:`~repro.observability.metrics.MetricsReport` carries the artifact
cache hit rate next to the message-passing and traversal metrics.

Disk entries are digest-verified on every read: corrupt artifacts are
quarantined and recomputed, never deserialized (see
:mod:`repro.perf.cache` and ``python -m repro fsck``).
"""

from .cache import (
    ARTIFACT_MAGIC,
    ArtifactCache,
    CACHE_VERSION,
    decode_artifact,
    encode_artifact,
    stable_digest,
)
from .runner import (
    ParallelRunner,
    effective_jobs,
    set_task_context,
    task_context,
    task_network,
)

__all__ = [
    "ARTIFACT_MAGIC",
    "ArtifactCache",
    "CACHE_VERSION",
    "decode_artifact",
    "encode_artifact",
    "stable_digest",
    "ParallelRunner",
    "effective_jobs",
    "set_task_context",
    "task_context",
    "task_network",
]
