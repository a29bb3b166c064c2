"""Resilient execution: supervision and integrity.

The paper's protocol layer already tolerates lossy radios
(:mod:`repro.runtime.faults`); this package gives the serving layer's
batch fan-out (:meth:`~repro.serving.SkeletonService.submit_batch`) and
the on-disk :class:`~repro.perf.ArtifactCache` the same default
assumption: workers crash, artifacts rot, and the service must carry
on.

* :class:`ExecutorFaultPlan` — deterministic chaos schedule (targeted
  worker kills) plus :func:`corrupt_cache_entries` for artifact
  corruption;
* :func:`supervise` / :class:`SupervisorPolicy` — per-task retry with
  seeded exponential backoff and process-pool resurrection on hard
  worker death; a task that exhausts its budget comes back as a failed
  :class:`TaskOutcome`, never as an exception, and the fan-out's
  counters are read off its outcomes (:func:`outcome_counters`);
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
    SupervisorPolicy,
    TaskOutcome,
    outcome_counters,
    supervise,
)

__all__ = [
    "ExecutorFaultPlan",
    "InjectedWorkerCrash",
    "SupervisorPolicy",
    "TaskOutcome",
    "corrupt_cache_entries",
    "outcome_counters",
    "supervise",
]
