"""Supervised task execution: retry, speculation, first-result-wins.

:class:`ResilientRunner` is the fault-tolerant counterpart of
:class:`~repro.perf.ParallelRunner`.  It runs the same pure task
functions over the same config lists and returns results in config order
— the determinism contract is unchanged — but every task is supervised:

* a failed attempt (injected :class:`~.faults.InjectedWorkerCrash`, a
  real exception, or a worker death that breaks the process pool) is
  retried up to ``SupervisorPolicy.max_attempts`` times with seeded
  exponential backoff;
* an attempt that overruns the straggler deadline — derived from the
  running percentile of completed-attempt durations, the same
  nearest-rank :func:`~repro.observability.metrics.percentile` the
  :class:`~repro.observability.metrics.MetricsReport` latency columns
  use — gets a speculative duplicate, and the first finished copy wins
  (bit-identical either way: task functions are pure);
* a task that exhausts its budget is returned as a failed
  :class:`TaskOutcome` instead of raising, so one lost task fails only
  the requests that depended on it
  (:meth:`~repro.serving.SkeletonService.submit_batch` turns it into
  ``"failed"`` responses).

With no :class:`~.faults.ExecutorFaultPlan` and no real failures, every
task succeeds on attempt 0 and the result list is exactly what
``ParallelRunner.map`` produces — the equivalence batteries run unchanged
through either runner.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability.metrics import percentile
from ..perf import resolve_jobs
from ..runtime.faults import hash_uniform
from .faults import (
    ExecutorFaultPlan,
    InjectedWorkerCrash,
    _SALT_BACKOFF,
    _stage_coord,
)

__all__ = ["SupervisorPolicy", "TaskOutcome", "ResilientRunner"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor fights for each task.

    Attributes:
        max_attempts: total attempt budget per task (first try included);
            1 disables retry entirely.
        backoff_base: seconds before the first retry.
        backoff_factor: multiplier per further retry (exponential).
        backoff_jitter: fraction of the backoff added as deterministic
            jitter — the jitter draw comes from the fault plan's seed (or
            ``seed`` when running without a plan), so the whole recovery
            schedule is a pure function of ``(policy, plan)``.
        seed: jitter seed used when no fault plan is attached.
        speculate: enable straggler re-execution (parallel runs only —
            a serial run has nowhere to speculate to).
        straggler_percentile: which completed-duration percentile anchors
            the deadline (nearest-rank, q in [0, 1]).
        straggler_factor: deadline = ``factor × percentile`` of completed
            attempt durations.
        straggler_min_samples: completed attempts required before any
            deadline is trusted.
        straggler_min_seconds: deadline floor — never speculate on tasks
            younger than this, whatever the percentiles say.
        poll_seconds: supervisor wake-up tick while attempts are in
            flight.
        max_pool_restarts: process-pool rebuilds tolerated per ``map``
            call before the remaining tasks are declared failed (a
            crash-looping worker must not wedge the supervisor).
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    speculate: bool = True
    straggler_percentile: float = 0.5
    straggler_factor: float = 4.0
    straggler_min_samples: int = 3
    straggler_min_seconds: float = 0.05
    poll_seconds: float = 0.02
    max_pool_restarts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if not 0.0 <= self.straggler_percentile <= 1.0:
            raise ValueError("straggler_percentile must be in [0, 1]")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")

    def backoff_seconds(self, stage: str, task: int, attempt: int,
                        plan: Optional[ExecutorFaultPlan] = None) -> float:
        """Deterministic backoff before retry number ``attempt``."""
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        if self.backoff_jitter == 0.0:
            return base
        if plan is not None:
            draw = plan.backoff_jitter(stage, task, attempt)
        else:
            draw = hash_uniform(self.seed, _SALT_BACKOFF,
                                _stage_coord(stage), task, attempt)
        return base * (1.0 + self.backoff_jitter * draw)


@dataclass
class TaskOutcome:
    """One supervised task's final state.

    ``ok`` tasks carry their ``result``; failed tasks carry the error
    strings of every attempt.  ``attempts`` counts every execution
    started for the task — retries and speculative duplicates included.
    """

    index: int
    ok: bool
    result: Any = None
    attempts: int = 1
    retries: int = 0
    speculated: bool = False
    errors: Tuple[str, ...] = ()


def _attempt_task(payload: Tuple) -> Any:
    """Execute one supervised attempt (module-level: pickles into pool
    workers).  Applies the fault plan's injected delay and kill before
    running the real task function."""
    fn, config, stage, index, attempt, plan = payload
    if plan is not None:
        stall = plan.delay(stage, index, attempt)
        if stall > 0:
            time.sleep(stall)
        if plan.kills(stage, index, attempt):
            raise InjectedWorkerCrash(
                f"injected worker crash: stage={stage} task={index} "
                f"attempt={attempt}")
    return fn(config)


_FAILED = object()  # resolution sentinel distinct from any task result


class ResilientRunner:
    """Supervised fan-out: ``ParallelRunner`` semantics plus retry,
    speculation and partial-failure reporting.

    ``jobs`` resolves exactly like the plain runner (explicit >
    ``REPRO_JOBS`` > auto); ``tracer`` receives one
    ``on_task_retry`` / ``on_speculate`` / ``on_task_failure`` call per
    event so supervision shows up in the
    :class:`~repro.observability.metrics.MetricsReport` next to the
    radio-level retry counters.
    """

    def __init__(self, jobs: Optional[int] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 fault_plan: Optional[ExecutorFaultPlan] = None,
                 tracer=None):
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.fault_plan = fault_plan
        self.tracer = tracer
        #: per-stage supervision counters accumulated across ``map`` calls.
        self.stage_counters: Dict[str, Dict[str, int]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _count(self, stage: str, what: str, amount: int = 1) -> None:
        counters = self.stage_counters.setdefault(
            stage, {"attempts": 0, "retries": 0, "speculations": 0,
                    "failures": 0})
        counters[what] += amount

    def _note_retry(self, stage: str) -> None:
        self._count(stage, "retries")
        if self.tracer is not None:
            self.tracer.on_task_retry(stage)

    def _note_speculation(self, stage: str) -> None:
        self._count(stage, "speculations")
        if self.tracer is not None:
            self.tracer.on_speculate(stage)

    def _note_failure(self, stage: str) -> None:
        self._count(stage, "failures")
        if self.tracer is not None:
            self.tracer.on_task_failure(stage)

    # -- serial path --------------------------------------------------------

    def _map_serial(self, fn: Callable[[Any], Any], configs: Sequence[Any],
                    stage: str) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for index, config in enumerate(configs):
            errors: List[str] = []
            outcome: Optional[TaskOutcome] = None
            for attempt in range(self.policy.max_attempts):
                self._count(stage, "attempts")
                try:
                    result = _attempt_task(
                        (fn, config, stage, index, attempt, self.fault_plan))
                except Exception as exc:  # noqa: BLE001 - supervision point
                    errors.append(f"{type(exc).__name__}: {exc}")
                    if attempt + 1 < self.policy.max_attempts:
                        self._note_retry(stage)
                        pause = self.policy.backoff_seconds(
                            stage, index, attempt + 1, self.fault_plan)
                        if pause > 0:
                            time.sleep(pause)
                else:
                    outcome = TaskOutcome(
                        index=index, ok=True, result=result,
                        attempts=attempt + 1, retries=attempt,
                        errors=tuple(errors))
                    break
            if outcome is None:
                self._note_failure(stage)
                attempts = self.policy.max_attempts
                outcome = TaskOutcome(
                    index=index, ok=False, attempts=attempts,
                    retries=attempts - 1, errors=tuple(errors))
            outcomes.append(outcome)
        return outcomes

    # -- parallel path ------------------------------------------------------

    def _map_parallel(self, fn: Callable[[Any], Any], configs: Sequence[Any],
                      stage: str) -> List[TaskOutcome]:
        policy = self.policy
        n = len(configs)
        workers = min(self.jobs, n)
        resolved: Dict[int, Any] = {}
        attempts_started = [0] * n
        retries = [0] * n
        speculated = [False] * n
        errors: List[List[str]] = [[] for _ in range(n)]
        durations: List[float] = []
        pending: Dict[Any, Tuple[int, int, float]] = {}
        waiting: "deque[int]" = deque()  # tasks due an attempt, not yet sent
        restarts = 0
        pool = ProcessPoolExecutor(max_workers=workers)

        def launch() -> None:
            # After a pool break the pool has one worker and takes one
            # attempt at a time, so a later break is charged to exactly
            # the task that caused it, never to a queued bystander.
            while waiting and (workers > 1 or not pending):
                index = waiting.popleft()
                attempt = attempts_started[index]
                attempts_started[index] += 1
                self._count(stage, "attempts")
                future = pool.submit(
                    _attempt_task,
                    (fn, configs[index], stage, index, attempt,
                     self.fault_plan))
                pending[future] = (index, attempt, time.perf_counter())

        def in_flight(index: int) -> int:
            return sum(1 for idx, _, _ in pending.values() if idx == index)

        def retry_or_fail(index: int) -> None:
            if attempts_started[index] < policy.max_attempts:
                retries[index] += 1
                self._note_retry(stage)
                pause = policy.backoff_seconds(
                    stage, index, attempts_started[index], self.fault_plan)
                if pause > 0:
                    time.sleep(pause)
                waiting.append(index)
            elif in_flight(index) == 0:
                resolved[index] = _FAILED
                self._note_failure(stage)

        try:
            for index in range(n):
                waiting.append(index)
            while len(resolved) < n:
                launch()
                if not pending:  # pragma: no cover - defensive
                    for index in range(n):
                        if index not in resolved:
                            resolved[index] = _FAILED
                            self._note_failure(stage)
                    break
                try:
                    done, _ = wait(set(pending),
                                   timeout=policy.poll_seconds,
                                   return_when=FIRST_COMPLETED)
                    now = time.perf_counter()
                    broken = False
                    for future in done:
                        index, _attempt, t0 = pending.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            break
                        except Exception as exc:  # noqa: BLE001
                            errors[index].append(
                                f"{type(exc).__name__}: {exc}")
                            if index not in resolved:
                                retry_or_fail(index)
                        else:
                            durations.append(now - t0)
                            if index not in resolved:
                                resolved[index] = result
                    if broken:
                        raise BrokenProcessPool("worker process died")
                except BrokenProcessPool:
                    # A hard worker death poisons the whole pool: every
                    # in-flight attempt is lost.  Rebuild it with one
                    # worker and resubmit the survivors — their aborted
                    # attempts already consumed budget at launch.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pending.clear()
                    restarts += 1
                    if restarts > policy.max_pool_restarts:
                        for index in range(n):
                            if index not in resolved:
                                errors[index].append(
                                    "BrokenProcessPool: restart budget "
                                    "exhausted")
                                resolved[index] = _FAILED
                                self._note_failure(stage)
                        break
                    workers = 1
                    pool = ProcessPoolExecutor(max_workers=workers)
                    for index in range(n):
                        if index not in resolved and index not in waiting:
                            errors[index].append(
                                "BrokenProcessPool: worker process died")
                            retry_or_fail(index)
                    continue
                # Straggler sweep: anything older than the percentile
                # deadline gets one speculative duplicate (budget allowing).
                if (policy.speculate and workers > 1
                        and len(durations) >= policy.straggler_min_samples):
                    deadline = max(
                        policy.straggler_min_seconds,
                        policy.straggler_factor * percentile(
                            durations, policy.straggler_percentile))
                    now = time.perf_counter()
                    for index, _attempt, t0 in list(pending.values()):
                        if (index not in resolved
                                and now - t0 > deadline
                                and in_flight(index) == 1
                                and attempts_started[index]
                                < policy.max_attempts):
                            speculated[index] = True
                            self._note_speculation(stage)
                            waiting.append(index)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        outcomes: List[TaskOutcome] = []
        for index in range(n):
            value = resolved.get(index, _FAILED)
            outcomes.append(TaskOutcome(
                index=index,
                ok=value is not _FAILED,
                result=None if value is _FAILED else value,
                attempts=attempts_started[index],
                retries=retries[index],
                speculated=speculated[index],
                errors=tuple(errors[index]),
            ))
        return outcomes

    # -- public API ---------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], configs: Sequence[Any],
            stage: str = "task") -> List[TaskOutcome]:
        """Run ``fn`` over *configs* under supervision; outcomes in config
        order.  Never raises for task failures — inspect ``ok``."""
        configs = list(configs)
        if self.jobs == 1 or len(configs) <= 1:
            return self._map_serial(fn, configs, stage)
        return self._map_parallel(fn, configs, stage)
