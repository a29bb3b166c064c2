"""Deterministic fault injection for the *execution substrate*.

:mod:`repro.runtime.faults` perturbs the simulated radio; this module
perturbs the machinery that runs the simulation — pool workers, batch
tasks and cached artifacts.  An :class:`ExecutorFaultPlan` is the same
kind of object as a :class:`~repro.runtime.faults.FaultPlan`: a frozen,
seeded schedule whose every decision is a pure function of
``(seed, salt, coordinates)`` through the shared splitmix64 hash, so a
chaos run is bit-reproducible given ``(seed, plan)`` regardless of worker
count or completion order.

Three injection channels, mirroring the failure modes a production
deployment of the serving fan-out actually sees:

* **worker kills** — a task attempt dies mid-execution
  (:class:`InjectedWorkerCrash`), either targeted (``kill_tasks``: kill
  the first *n* attempts of one task) or stochastic
  (``kill_probability`` per ``(stage, task, attempt)``);
* **straggler delays** — a task attempt stalls for ``delay_tasks``
  seconds before doing its work (only attempt 0, so a speculative
  re-execution escapes the stall);
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

# Channel salts (same convention as repro.runtime.faults: distinct salts
# decorrelate the draws of independent fault mechanisms).
_SALT_KILL = 0x51CC
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
        seed: root of every stochastic draw; equal ``(seed, plan)`` means
            identical fault patterns at any worker count.
        kill_probability: per ``(stage, task, attempt)`` probability that
            the attempt dies with :class:`InjectedWorkerCrash`.  Retries
            redraw independently, so with attempt budget *m* a task is
            permanently lost with probability ``p**m``.
        kill_tasks: ``(stage, task index) -> n``: the first *n* attempts
            of that task are killed unconditionally (``n`` at least the
            attempt budget = a permanently failed task).
        delay_tasks: ``(stage, task index) -> seconds``: attempt 0 of
            that task sleeps this long before running — an injected
            straggler.  Later attempts (retries and speculative copies)
            run undelayed, which is exactly what lets first-result-wins
            speculation recover the stall.
        corrupt_stages: cache stages whose on-disk artifacts a chaos
            harness should corrupt between runs (consumed by
            :func:`corrupt_cache_entries`; the plan itself never touches
            disk).
    """

    seed: int = 0
    kill_probability: float = 0.0
    kill_tasks: Mapping[Tuple[str, int], int] = field(default_factory=dict)
    delay_tasks: Mapping[Tuple[str, int], float] = field(default_factory=dict)
    corrupt_stages: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_probability < 1.0:
            raise ValueError("kill_probability must be in [0, 1)")
        for key, count in self.kill_tasks.items():
            if count < 0:
                raise ValueError(f"kill count for {key} must be >= 0")
        for key, delay in self.delay_tasks.items():
            if delay < 0:
                raise ValueError(f"delay for {key} must be >= 0")

    @property
    def is_null(self) -> bool:
        """True when the plan can never perturb a run."""
        return (
            self.kill_probability == 0.0
            and not any(self.kill_tasks.values())
            and not any(self.delay_tasks.values())
            and not self.corrupt_stages
        )

    # -- per-attempt predicates (pure functions of the plan) ----------------

    def kills(self, stage: str, task: int, attempt: int) -> bool:
        """Whether this task attempt dies mid-execution."""
        if attempt < self.kill_tasks.get((stage, task), 0):
            return True
        if self.kill_probability == 0.0:
            return False
        draw = hash_uniform(self.seed, _SALT_KILL, _stage_coord(stage),
                            task, attempt)
        return draw < self.kill_probability

    def delay(self, stage: str, task: int, attempt: int) -> float:
        """Injected stall (seconds) before this attempt runs."""
        if attempt != 0:
            return 0.0
        return float(self.delay_tasks.get((stage, task), 0.0))

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

    The chaos harness's third channel: a later read of a corrupted entry
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
