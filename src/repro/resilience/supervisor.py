"""Supervised task execution: retry, pool rebuild, per-task failure.

:func:`supervise` is the fault-tolerant counterpart of
:meth:`~repro.perf.ParallelRunner.map`.  It runs the same pure task
functions over the same config lists and returns outcomes in config
order — the determinism contract is unchanged — but every task is
supervised:

* a failed attempt (injected :class:`~.faults.InjectedWorkerCrash`, a
  real exception, or a worker death that breaks the process pool) is
  retried up to ``SupervisorPolicy.max_attempts`` times with seeded
  exponential backoff;
* a task that exhausts its budget is returned as a failed
  :class:`TaskOutcome` instead of raising, so one lost task fails only
  the requests that depended on it
  (:meth:`~repro.serving.SkeletonService.submit_batch` turns it into
  ``"failed"`` responses).

The function keeps no state between calls: the supervision counters of
a fan-out are read off its outcomes (:func:`outcome_counters`).  With no
:class:`~.faults.ExecutorFaultPlan` and no real failures, every task
succeeds on attempt 0 and the results are exactly what
``ParallelRunner.map`` produces.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..perf import resolve_jobs
from .faults import ExecutorFaultPlan, InjectedWorkerCrash

__all__ = ["SupervisorPolicy", "TaskOutcome", "outcome_counters",
           "supervise"]

#: Multiplier of the backoff per further retry (exponential).
BACKOFF_FACTOR = 2.0
#: Fraction of the backoff added as deterministic jitter.
BACKOFF_JITTER = 0.5
#: Process-pool rebuilds tolerated per :func:`supervise` call before the
#: remaining tasks are declared failed (a crash-looping worker must not
#: wedge the supervisor).
MAX_POOL_RESTARTS = 5


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor fights for each task.

    Attributes:
        max_attempts: total attempt budget per task (first try included);
            1 disables retry entirely.
        backoff_base: seconds before the first retry; retry *a* waits
            ``backoff_base × 2^(a-1)`` plus up to half that again as
            jitter drawn from the fault plan's seed (0 without a plan),
            so the whole recovery schedule is a pure function of
            ``(policy, plan)``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")

    def backoff_seconds(self, stage: str, task: int, attempt: int,
                        plan: Optional[ExecutorFaultPlan] = None) -> float:
        """Deterministic backoff before retry number ``attempt``."""
        base = self.backoff_base * (BACKOFF_FACTOR ** max(0, attempt - 1))
        plan = plan if plan is not None else ExecutorFaultPlan()
        draw = plan.backoff_jitter(stage, task, attempt)
        return base * (1.0 + BACKOFF_JITTER * draw)


@dataclass
class TaskOutcome:
    """One supervised task's final state.

    ``ok`` tasks carry their ``result``; failed tasks carry the error
    strings of every attempt.  ``attempts`` counts every execution
    started for the task, retries included.
    """

    index: int
    ok: bool
    result: Any = None
    attempts: int = 1
    retries: int = 0
    errors: Tuple[str, ...] = ()


def outcome_counters(outcomes: Sequence[TaskOutcome]) -> Dict[str, int]:
    """The supervision counters of one fan-out, read off its outcomes."""
    return {"attempts": sum(o.attempts for o in outcomes),
            "retries": sum(o.retries for o in outcomes),
            "failures": sum(1 for o in outcomes if not o.ok)}


def _attempt_task(payload: Tuple) -> Any:
    """Execute one supervised attempt (module-level: pickles into pool
    workers).  Applies the fault plan's injected kill before running the
    real task function."""
    fn, config, stage, index, attempt, plan = payload
    if plan is not None and plan.kills(stage, index, attempt):
        raise InjectedWorkerCrash(
            f"injected worker crash: stage={stage} task={index} "
            f"attempt={attempt}")
    return fn(config)


def _supervise_serial(fn: Callable[[Any], Any], configs: Sequence[Any],
                      stage: str, policy: SupervisorPolicy,
                      plan: Optional[ExecutorFaultPlan]
                      ) -> List[TaskOutcome]:
    outcomes: List[TaskOutcome] = []
    for index, config in enumerate(configs):
        errors: List[str] = []
        for attempt in range(policy.max_attempts):
            try:
                result = _attempt_task(
                    (fn, config, stage, index, attempt, plan))
            except Exception as exc:  # noqa: BLE001 - supervision point
                errors.append(f"{type(exc).__name__}: {exc}")
                if attempt + 1 < policy.max_attempts:
                    pause = policy.backoff_seconds(
                        stage, index, attempt + 1, plan)
                    if pause > 0:
                        time.sleep(pause)
            else:
                outcomes.append(TaskOutcome(
                    index=index, ok=True, result=result,
                    attempts=attempt + 1, retries=attempt,
                    errors=tuple(errors)))
                break
        else:
            outcomes.append(TaskOutcome(
                index=index, ok=False, attempts=policy.max_attempts,
                retries=policy.max_attempts - 1, errors=tuple(errors)))
    return outcomes


def _supervise_parallel(fn: Callable[[Any], Any], configs: Sequence[Any],
                        jobs: int, stage: str, policy: SupervisorPolicy,
                        plan: Optional[ExecutorFaultPlan]
                        ) -> List[TaskOutcome]:
    n = len(configs)
    workers = min(jobs, n)
    results: Dict[int, Any] = {}
    attempts = [0] * n
    retries = [0] * n
    errors: List[List[str]] = [[] for _ in range(n)]
    pending: Dict[Any, int] = {}  # future -> task index
    waiting: "deque[int]" = deque(range(n))  # due an attempt, not yet sent
    restarts = 0
    pool = ProcessPoolExecutor(max_workers=workers)

    def retry_or_fail(index: int, error: str) -> None:
        errors[index].append(error)
        if attempts[index] < policy.max_attempts:
            retries[index] += 1
            pause = policy.backoff_seconds(stage, index, attempts[index],
                                           plan)
            if pause > 0:
                time.sleep(pause)
            waiting.append(index)

    try:
        while waiting or pending:
            # After a pool break the pool has one worker and takes one
            # attempt at a time, so a later break is charged to exactly
            # the task that caused it, never to a queued bystander.
            refused = False
            while waiting and (workers > 1 or not pending):
                index = waiting[0]
                try:
                    future = pool.submit(
                        _attempt_task,
                        (fn, configs[index], stage, index, attempts[index],
                         plan))
                except BrokenProcessPool:
                    # A worker died while attempts were being sent; the
                    # unsent ones wait for the rebuilt pool.
                    refused = True
                    break
                waiting.popleft()
                attempts[index] += 1
                pending[future] = index
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            lost: List[int] = []
            for future in done:
                index = pending.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    lost.append(index)
                except Exception as exc:  # noqa: BLE001
                    retry_or_fail(index, f"{type(exc).__name__}: {exc}")
            if not lost and not (refused and not pending):
                continue
            # A hard worker death poisons the whole pool: every in-flight
            # attempt is lost.  Rebuild it with one worker and resubmit
            # the survivors — their aborted attempts already consumed
            # budget at launch.
            pool.shutdown(wait=False, cancel_futures=True)
            lost.extend(pending.values())
            pending.clear()
            restarts += 1
            if restarts > MAX_POOL_RESTARTS:
                for index in lost + list(waiting):
                    errors[index].append(
                        "BrokenProcessPool: restart budget exhausted")
                break
            workers = 1
            pool = ProcessPoolExecutor(max_workers=workers)
            for index in lost:
                retry_or_fail(index, "BrokenProcessPool: worker process died")
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    return [TaskOutcome(index=index, ok=index in results,
                        result=results.get(index),
                        attempts=attempts[index], retries=retries[index],
                        errors=tuple(errors[index]))
            for index in range(n)]


def supervise(fn: Callable[[Any], Any], configs: Sequence[Any], *,
              jobs: Optional[int], stage: str,
              policy: Optional[SupervisorPolicy] = None,
              fault_plan: Optional[ExecutorFaultPlan] = None
              ) -> List[TaskOutcome]:
    """Run ``fn`` over *configs* under supervision; outcomes in config
    order.  Never raises for task failures — inspect ``ok``.

    ``jobs`` resolves like :class:`~repro.perf.ParallelRunner` (explicit
    > ``REPRO_JOBS`` > auto); one worker or one config runs inline.
    *stage* names the fan-out in fault-plan coordinates.
    """
    configs = list(configs)
    jobs = resolve_jobs(jobs)
    policy = policy if policy is not None else SupervisorPolicy()
    if jobs == 1 or len(configs) <= 1:
        return _supervise_serial(fn, configs, stage, policy, fault_plan)
    return _supervise_parallel(fn, configs, jobs, stage, policy, fault_plan)
