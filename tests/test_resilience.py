"""The resilience layer: supervised retry and speculation.

Covers the deterministic fault plan (seeded kills, delays, jitter) and
the :class:`ResilientRunner`'s serial and parallel supervision paths
(retry with backoff, budget exhaustion, pool-rebuild after a hard worker
death, straggler speculation).  The runner's one production caller,
:meth:`~repro.serving.SkeletonService.submit_batch`, is exercised under
injected faults in ``tests/test_serving.py`` and
``tests/test_resilience_units.py``.
"""

import os
import time

import pytest

from repro.observability import Tracer, build_metrics
from repro.resilience import (
    ExecutorFaultPlan,
    ResilientRunner,
    SupervisorPolicy,
)

FAST = SupervisorPolicy(backoff_base=0.0)


# -- module-level task functions (must pickle into pool workers) ----------


def _square(config):
    return config * config


def _slow_square(config):
    # Task 0 stalls long enough to trip a tight straggler deadline.
    if config == 0:
        time.sleep(0.4)
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


# -- ExecutorFaultPlan ----------------------------------------------------


class TestFaultPlan:
    def test_null_plan_never_fires(self):
        plan = ExecutorFaultPlan()
        assert plan.is_null
        assert not any(plan.kills("s", t, a)
                       for t in range(20) for a in range(3))
        assert plan.delay("s", 0, 0) == 0.0

    def test_explicit_kills_cover_first_attempts_only(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 2): 2})
        assert plan.kills("s", 2, 0) and plan.kills("s", 2, 1)
        assert not plan.kills("s", 2, 2)
        assert not plan.kills("other", 2, 0)
        assert not plan.kills("s", 3, 0)

    def test_stochastic_kills_deterministic_per_seed(self):
        plan = ExecutorFaultPlan(seed=7, kill_probability=0.5)
        draws = [plan.kills("s", t, 0) for t in range(64)]
        again = [ExecutorFaultPlan(seed=7, kill_probability=0.5)
                 .kills("s", t, 0) for t in range(64)]
        other = [ExecutorFaultPlan(seed=8, kill_probability=0.5)
                 .kills("s", t, 0) for t in range(64)]
        assert draws == again
        assert draws != other
        assert 10 < sum(draws) < 54  # roughly half fire

    def test_delay_applies_to_first_attempt_only(self):
        plan = ExecutorFaultPlan(delay_tasks={("s", 1): 0.25})
        assert plan.delay("s", 1, 0) == 0.25
        assert plan.delay("s", 1, 1) == 0.0  # retries/speculation escape

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
            SupervisorPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError):
            SupervisorPolicy(straggler_percentile=2.0)

    def test_backoff_grows_exponentially(self):
        policy = SupervisorPolicy(backoff_base=0.01, backoff_factor=2.0,
                                  backoff_jitter=0.0)
        waits = [policy.backoff_seconds("s", 0, a) for a in (1, 2, 3)]
        assert waits == [0.01, 0.02, 0.04]

    def test_backoff_jitter_is_deterministic(self):
        policy = SupervisorPolicy(backoff_base=0.01, backoff_jitter=0.5)
        a = policy.backoff_seconds("s", 0, 1)
        assert a == policy.backoff_seconds("s", 0, 1)
        assert 0.01 <= a <= 0.015
        plan = ExecutorFaultPlan(seed=99)
        b = policy.backoff_seconds("s", 0, 1, plan)
        assert b == policy.backoff_seconds("s", 0, 1, plan)


# -- ResilientRunner: serial path -----------------------------------------


class TestSerialSupervision:
    def test_clean_run_matches_plain_map(self):
        runner = ResilientRunner(jobs=1, policy=FAST)
        outcomes = runner.map(_square, [1, 2, 3], stage="s")
        assert [o.result for o in outcomes] == [1, 4, 9]
        assert all(o.ok and o.attempts == 1 and not o.retries
                   for o in outcomes)

    def test_transient_kill_retries_to_success(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 1): 2})
        runner = ResilientRunner(jobs=1, policy=FAST, fault_plan=plan)
        outcomes = runner.map(_square, [1, 2, 3], stage="s")
        assert [o.result for o in outcomes] == [1, 4, 9]
        assert outcomes[1].attempts == 3 and outcomes[1].retries == 2
        assert len(outcomes[1].errors) == 2
        assert runner.stage_counters["s"]["retries"] == 2

    def test_budget_exhaustion_reports_failure(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 0): 99})
        runner = ResilientRunner(jobs=1, policy=FAST, fault_plan=plan)
        outcomes = runner.map(_square, [1, 2], stage="s")
        assert not outcomes[0].ok and outcomes[1].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert "InjectedWorkerCrash" in outcomes[0].errors[-1]
        assert runner.stage_counters["s"]["failures"] == 1

    def test_real_exceptions_also_supervised(self):
        runner = ResilientRunner(jobs=1, policy=FAST)
        outcomes = runner.map(_always_raise, [5], stage="s")
        assert not outcomes[0].ok
        assert all("ValueError: bad config 5" in e
                   for e in outcomes[0].errors)


# -- ResilientRunner: parallel path ---------------------------------------


class TestParallelSupervision:
    def test_clean_run_preserves_config_order(self):
        runner = ResilientRunner(jobs=2, policy=FAST)
        outcomes = runner.map(_square, list(range(8)), stage="s")
        assert [o.result for o in outcomes] == [i * i for i in range(8)]

    def test_transient_kill_retries_to_success(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 1): 2})
        tracer = Tracer(record_events=False)
        runner = ResilientRunner(jobs=2, policy=FAST, fault_plan=plan,
                                 tracer=tracer)
        outcomes = runner.map(_square, [1, 2, 3, 4], stage="s")
        assert [o.result for o in outcomes] == [1, 4, 9, 16]
        assert outcomes[1].retries == 2
        assert build_metrics(tracer).task_retries == {"s": 2}

    def test_budget_exhaustion_reports_failure(self):
        plan = ExecutorFaultPlan(kill_tasks={("s", 0): 99})
        tracer = Tracer(record_events=False)
        runner = ResilientRunner(jobs=2, policy=FAST, fault_plan=plan,
                                 tracer=tracer)
        outcomes = runner.map(_square, [1, 2, 3], stage="s")
        assert not outcomes[0].ok
        assert [o.result for o in outcomes[1:]] == [4, 9]
        assert build_metrics(tracer).task_failures == {"s": 1}

    def test_hard_worker_death_rebuilds_pool(self):
        # os._exit kills the worker: the pool breaks, the supervisor must
        # rebuild it and still resolve every task (task 0 fails after its
        # budget — _hard_exit dies on every attempt — others succeed).
        runner = ResilientRunner(jobs=2, policy=FAST)
        outcomes = runner.map(_hard_exit, [0, 1, 2, 3], stage="s")
        assert not outcomes[0].ok
        assert any("BrokenProcessPool" in e for e in outcomes[0].errors)
        assert [o.result for o in outcomes if o.index > 0] == [1, 4, 9]

    def test_pool_break_spares_queued_bystanders(self):
        # A break costs every in-flight attempt, but after the first one
        # attempts run alone, so the crash-looping task 0 pays for its own
        # later crashes instead of draining everyone else's budget.
        runner = ResilientRunner(jobs=2, policy=FAST)
        outcomes = runner.map(_crash_first_then_sleep, list(range(6)),
                              stage="s")
        assert not outcomes[0].ok
        assert outcomes[0].attempts == FAST.max_attempts
        assert [o.result for o in outcomes[1:]] == [1, 4, 9, 16, 25]
        assert all(o.retries <= 1 for o in outcomes[1:])

    def test_straggler_speculation_fires(self):
        policy = SupervisorPolicy(
            backoff_base=0.0, straggler_min_samples=3,
            straggler_min_seconds=0.05, straggler_factor=1.5,
            poll_seconds=0.01)
        tracer = Tracer(record_events=False)
        runner = ResilientRunner(jobs=2, policy=policy, tracer=tracer)
        outcomes = runner.map(_slow_square, list(range(8)), stage="s")
        assert [o.result for o in outcomes] == [i * i for i in range(8)]
        assert outcomes[0].speculated
        assert build_metrics(tracer).task_speculations == {"s": 1}

    def test_speculation_can_be_disabled(self):
        policy = SupervisorPolicy(
            backoff_base=0.0, speculate=False, straggler_min_samples=3,
            straggler_min_seconds=0.05, straggler_factor=1.5,
            poll_seconds=0.01)
        runner = ResilientRunner(jobs=2, policy=policy)
        outcomes = runner.map(_slow_square, list(range(8)), stage="s")
        assert not any(o.speculated for o in outcomes)
