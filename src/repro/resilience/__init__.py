"""Resilient execution: supervision, speculation, integrity.

The paper's protocol layer already tolerates lossy radios
(:mod:`repro.runtime.faults`); this package gives the serving layer's
batch fan-out (:meth:`~repro.serving.SkeletonService.submit_batch`) and
the on-disk :class:`~repro.perf.ArtifactCache` the same default
assumption: workers crash, tasks straggle, artifacts rot, and the
service must carry on.

* :class:`ExecutorFaultPlan` — deterministic chaos schedule (worker
  kills, straggler delays, artifact corruption) keyed by the splitmix64
  idiom shared with the radio fault layer;
* :class:`SupervisorPolicy` / :class:`ResilientRunner` — per-task retry
  with seeded exponential backoff, percentile-deadline straggler
  speculation with first-result-wins, and process-pool resurrection on
  hard worker death; a task that exhausts its budget comes back as a
  failed :class:`TaskOutcome`, never as an exception;
* ``python -m repro.resilience`` — the kill-and-recover chaos drills CI
  runs against ``submit_batch``.

With no fault plan and no real failures every layer here is
pass-through: a supervised fan-out returns exactly what the plain
``ParallelRunner`` would.
"""

from .faults import (
    ExecutorFaultPlan,
    InjectedWorkerCrash,
    corrupt_cache_entries,
)
from .supervisor import (
    ResilientRunner,
    SupervisorPolicy,
    TaskOutcome,
)

__all__ = [
    "ExecutorFaultPlan",
    "InjectedWorkerCrash",
    "ResilientRunner",
    "SupervisorPolicy",
    "TaskOutcome",
    "corrupt_cache_entries",
]
