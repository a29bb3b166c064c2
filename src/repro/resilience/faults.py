"""Deterministic fault injection for the *execution substrate*.

:mod:`repro.runtime.faults` perturbs the simulated radio; this module
perturbs the machinery that runs the simulation — pool workers, batch
tasks and cached artifacts.  An :class:`ExecutorFaultPlan` is the same
kind of object as a :class:`~repro.runtime.faults.FaultPlan`: a frozen,
seeded schedule whose every decision is a pure function of the plan and
the attempt's ``(stage, task, attempt)`` coordinates (the backoff jitter
through the shared splitmix64 hash), so a chaos run is bit-reproducible
given ``(seed, plan)`` regardless of worker count or completion order.

Two injection channels, mirroring the failure modes a production
deployment of the serving fan-out actually sees:

* **worker kills** — a task attempt dies mid-execution
  (:class:`InjectedWorkerCrash`): ``kill_tasks`` kills the first *n*
  attempts of one task;
* **artifact corruption** — :func:`corrupt_cache_entries` flips payload
  bytes of on-disk :class:`~repro.perf.ArtifactCache` entries so the
  digest check on the next read must catch them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Tuple

from ..runtime.faults import hash_uniform

__all__ = ["ExecutorFaultPlan", "InjectedWorkerCrash",
           "corrupt_cache_entries"]

# Draw salt (same convention as repro.runtime.faults: distinct salts
# decorrelate the draws of independent mechanisms).
_SALT_BACKOFF = 0xB0FF


class InjectedWorkerCrash(RuntimeError):
    """A planned worker death: raised inside the task attempt the
    :class:`ExecutorFaultPlan` marked for a kill.

    Plain ``RuntimeError`` subclass so it pickles cleanly across the
    process-pool boundary like any real task exception.
    """


def _stage_coord(stage: str) -> int:
    """A stable integer coordinate for a stage name (crc32: cheap,
    deterministic across processes and sessions, unlike ``hash``)."""
    return zlib.crc32(stage.encode("utf-8"))


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """A seeded, deterministic schedule of executor faults.

    Attributes:
        seed: root of the retry-backoff jitter draws; equal
            ``(seed, plan)`` means an identical recovery schedule at any
            worker count.
        kill_tasks: ``(stage, task index) -> n``: the first *n* attempts
            of that task are killed (``n`` at least the attempt budget =
            a permanently failed task).
    """

    seed: int = 0
    kill_tasks: Mapping[Tuple[str, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, count in self.kill_tasks.items():
            if count < 0:
                raise ValueError(f"kill count for {key} must be >= 0")

    # -- per-attempt predicates (pure functions of the plan) ----------------

    def kills(self, stage: str, task: int, attempt: int) -> bool:
        """Whether this task attempt dies mid-execution."""
        return attempt < self.kill_tasks.get((stage, task), 0)

    def backoff_jitter(self, stage: str, task: int, attempt: int) -> float:
        """A deterministic draw in [0, 1) for retry-backoff jitter.

        Lives on the plan rather than the policy so one ``(seed, plan)``
        pair pins the *entire* failure-and-recovery schedule.
        """
        return hash_uniform(self.seed, _SALT_BACKOFF, _stage_coord(stage),
                            task, attempt)


def corrupt_cache_entries(cache_dir, stage: str,
                          limit: int = 1) -> List[str]:
    """Flip the final payload byte of up to *limit* on-disk cache entries
    of *stage*, leaving their recorded digests stale.

    The chaos harness's second channel: a later read of a corrupted entry
    must fail the :mod:`repro.perf.cache` digest check, be quarantined,
    and be recomputed — never silently deserialized.  Files are chosen in
    sorted-name order (deterministic), and the corrupted file names are
    returned so tests can assert the exact entries that were hit.
    """
    directory = Path(cache_dir)
    corrupted: List[str] = []
    for path in sorted(directory.glob(f"{stage}-*.pkl")):
        if len(corrupted) >= limit:
            break
        blob = path.read_bytes()
        if not blob:
            continue
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        corrupted.append(path.name)
    return corrupted
