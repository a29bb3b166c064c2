"""The resilience layer: supervised retry and pool rebuild.

Covers the deterministic fault plan (targeted kills, jitter) and
:func:`supervise`'s serial and parallel paths (retry with backoff,
budget exhaustion, pool-rebuild after a hard worker death).  Its one
production caller, :meth:`~repro.serving.SkeletonService.submit_batch`,
is exercised under injected faults in ``tests/test_serving.py`` and
``tests/test_resilience_units.py``.
"""

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.resilience import (
    ExecutorFaultPlan,
    SupervisorPolicy,
    outcome_counters,
    supervise,
)

FAST = SupervisorPolicy(backoff_base=0.0)


# -- module-level task functions (must pickle into pool workers) ----------


def _square(config):
    return config * config


def _hard_exit(config):
    if config == 0:
        os._exit(1)  # kills the worker process, poisons the pool
    return config * config


def _crash_first_then_sleep(config):
    # Task 0 kills its worker at once; every other task runs long enough
    # to be queued or in flight whenever that happens.
    if config == 0:
        os._exit(1)
    time.sleep(0.1)
    return config * config


def _always_raise(config):
    raise ValueError(f"bad config {config}")


class _RefusingPool:
    """Stand-in process pool: the first instance breaks under the first
    attempt sent, and refuses the next one the way a broken
    ``ProcessPoolExecutor`` does; rebuilt instances run attempts inline."""

    built = 0

    def __init__(self, max_workers):
        type(self).built += 1
        self.broken = type(self).built == 1
        self.sent = 0

    def submit(self, fn, payload):
        self.sent += 1
        if self.broken and self.sent > 1:
            raise BrokenProcessPool("pool already broken")
        future = Future()
        if self.broken:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


# -- ExecutorFaultPlan ----------------------------------------------------


class TestFaultPlan:
    def test_null_plan_never_fires(self):
        plan = ExecutorFaultPlan()
        assert not any(plan.kills("s", t, a)
                       for t in range(20) for a in range(3))

    def test_explicit_kills_cover_first_attempts_only(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 2): 2})
        assert plan.kills("s", 2, 0) and plan.kills("s", 2, 1)
        assert not plan.kills("s", 2, 2)
        assert not plan.kills("other", 2, 0)
        assert not plan.kills("s", 3, 0)

    def test_backoff_jitter_in_unit_interval_and_seeded(self):
        plan = ExecutorFaultPlan(seed=3)
        draw = plan.backoff_jitter("s", 4, 1)
        assert 0.0 <= draw < 1.0
        assert draw == ExecutorFaultPlan(seed=3).backoff_jitter("s", 4, 1)
        assert draw != ExecutorFaultPlan(seed=4).backoff_jitter("s", 4, 1)


# -- SupervisorPolicy -----------------------------------------------------


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_base=-1)

    def test_backoff_grows_exponentially(self):
        base = 0.01
        policy = SupervisorPolicy(backoff_base=base)
        for attempt in (1, 2, 3):
            wait = policy.backoff_seconds("s", 0, attempt)
            floor = base * 2 ** (attempt - 1)
            assert floor <= wait <= 1.5 * floor
            assert wait == policy.backoff_seconds("s", 0, attempt)

    def test_backoff_jitter_is_deterministic(self):
        policy = SupervisorPolicy(backoff_base=0.01)
        a = policy.backoff_seconds("s", 0, 1)
        assert a == policy.backoff_seconds("s", 0, 1)
        assert 0.01 <= a <= 0.015
        plan = ExecutorFaultPlan(seed=99)
        b = policy.backoff_seconds("s", 0, 1, plan)
        assert b == policy.backoff_seconds("s", 0, 1, plan)


# -- supervise: serial path ------------------------------------------------


class TestSerialSupervision:
    def test_clean_run_matches_plain_map(self):
        outcomes = supervise(_square, [1, 2, 3], jobs=1, stage="s",
                             policy=FAST)
        assert [o.result for o in outcomes] == [1, 4, 9]
        assert all(o.ok and o.attempts == 1 and not o.retries
                   for o in outcomes)

    def test_transient_kill_retries_to_success(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 1): 2})
        outcomes = supervise(_square, [1, 2, 3], jobs=1, stage="s",
                             policy=FAST, fault_plan=plan)
        assert [o.result for o in outcomes] == [1, 4, 9]
        assert outcomes[1].attempts == 3 and outcomes[1].retries == 2
        assert len(outcomes[1].errors) == 2
        assert outcome_counters(outcomes)["retries"] == 2

    def test_budget_exhaustion_reports_failure(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 0): 99})
        outcomes = supervise(_square, [1, 2], jobs=1, stage="s",
                             policy=FAST, fault_plan=plan)
        assert not outcomes[0].ok and outcomes[1].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert "InjectedWorkerCrash" in outcomes[0].errors[-1]
        assert outcome_counters(outcomes)["failures"] == 1

    def test_real_exceptions_also_supervised(self):
        outcomes = supervise(_always_raise, [5], jobs=1, stage="s",
                             policy=FAST)
        assert not outcomes[0].ok
        assert all("ValueError: bad config 5" in e
                   for e in outcomes[0].errors)


# -- supervise: parallel path ----------------------------------------------


class TestParallelSupervision:
    def test_clean_run_preserves_config_order(self):
        outcomes = supervise(_square, list(range(8)), jobs=2, stage="s",
                             policy=FAST)
        assert [o.result for o in outcomes] == [i * i for i in range(8)]

    def test_transient_kill_retries_to_success(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 1): 2})
        outcomes = supervise(_square, [1, 2, 3, 4], jobs=2, stage="s",
                             policy=FAST, fault_plan=plan)
        assert [o.result for o in outcomes] == [1, 4, 9, 16]
        assert outcomes[1].retries == 2
        assert outcome_counters(outcomes)["retries"] == 2

    def test_budget_exhaustion_reports_failure(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 0): 99})
        outcomes = supervise(_square, [1, 2, 3], jobs=2, stage="s",
                             policy=FAST, fault_plan=plan)
        assert not outcomes[0].ok
        assert [o.result for o in outcomes[1:]] == [4, 9]
        assert outcome_counters(outcomes)["failures"] == 1

    def test_hard_worker_death_rebuilds_pool(self):
        # os._exit kills the worker: the pool breaks, the supervisor must
        # rebuild it and still resolve every task (task 0 fails after its
        # budget — _hard_exit dies on every attempt — others succeed).
        outcomes = supervise(_hard_exit, [0, 1, 2, 3], jobs=2, stage="s",
                             policy=FAST)
        assert not outcomes[0].ok
        assert any("BrokenProcessPool" in e for e in outcomes[0].errors)
        assert [o.result for o in outcomes if o.index > 0] == [1, 4, 9]

    def test_pool_break_spares_queued_bystanders(self):
        # A break costs every in-flight attempt, but after the first one
        # attempts run alone, so the crash-looping task 0 pays for its own
        # later crashes instead of draining everyone else's budget.
        outcomes = supervise(_crash_first_then_sleep, list(range(6)),
                             jobs=2, stage="s", policy=FAST)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert [o.result for o in outcomes[1:]] == [1, 4, 9, 16, 25]
        assert all(o.retries <= 1 for o in outcomes[1:])

    def test_pool_break_counters_are_sums_over_outcomes(self):
        outcomes = supervise(_crash_first_then_sleep, list(range(6)),
                             jobs=2, stage="s", policy=FAST)
        counters = outcome_counters(outcomes)
        assert counters == {
            "attempts": sum(o.attempts for o in outcomes),
            "retries": sum(o.retries for o in outcomes),
            "failures": sum(1 for o in outcomes if not o.ok),
        }
        assert counters["failures"] == 1
        # every retry launched one more attempt beyond each task's first
        assert counters["retries"] == counters["attempts"] - len(outcomes)

    def test_pool_refusing_new_attempts_is_a_break(self, monkeypatch):
        # A worker can die while attempts are still being sent; submit
        # then raises instead of returning a future.  The unsent attempts
        # must wait for the rebuilt pool, not escape as an exception.
        monkeypatch.setattr(_RefusingPool, "built", 0)
        monkeypatch.setattr("repro.resilience.supervisor.ProcessPoolExecutor",
                            _RefusingPool)
        outcomes = supervise(_square, [1, 2, 3], jobs=2, stage="s",
                             policy=FAST)
        assert [o.result for o in outcomes] == [1, 4, 9]
        assert [o.attempts for o in outcomes] == [2, 1, 1]
        assert outcome_counters(outcomes) == {
            "attempts": 4, "retries": 1, "failures": 0}
