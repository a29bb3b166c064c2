"""Direct unit tests for the resilience accounting primitives.

The integration batteries (chaos drills, the serving layer) exercise
supervision end to end; these tests pin the *arithmetic* in isolation —
the per-stage counters :meth:`~repro.serving.SkeletonService.submit_batch`
reports through :attr:`~repro.serving.ServiceStats.supervision`, and the
attempt/retry bookkeeping of :func:`~repro.resilience.supervise`.
"""

import pytest

from repro.network import get_scenario
from repro.resilience import (
    ExecutorFaultPlan,
    SupervisorPolicy,
    outcome_counters,
    supervise,
)
from repro.serving import ServiceConfig, SkeletonService

BATCH = "serve:batch"


# -- submit_batch supervision counters -------------------------------------


@pytest.fixture(scope="module")
def small_net():
    return get_scenario("window").build(seed=3, num_nodes=140)


@pytest.fixture(scope="module")
def other_net():
    return get_scenario("one_hole").build(seed=3, num_nodes=140)


def _batch_service(max_attempts=3, plan=None):
    # jobs=1: the serial supervision path.
    policy = SupervisorPolicy(max_attempts=max_attempts, backoff_base=0.0)
    return SkeletonService(ServiceConfig(jobs=1, supervisor=policy,
                                         fault_plan=plan))


def test_unsupervised_run_has_no_supervision_counters(small_net):
    # Single requests run the monolithic extractor, outside the runner.
    service = SkeletonService()
    assert service.request(small_net).ok
    assert service.stats().supervision == {}


def test_clean_supervised_run_counts_attempts_only(small_net, other_net):
    service = _batch_service()
    responses = service.submit_batch([small_net, other_net])
    assert all(r.ok for r in responses)
    # first-try success everywhere: attempts == tasks, nothing else
    assert service.stats().supervision == {BATCH: {
        "attempts": 2, "retries": 0, "failures": 0}}


def test_killed_attempt_shows_up_as_exactly_one_retry(small_net, other_net):
    clean = _batch_service()
    clean.submit_batch([small_net, other_net])
    chaotic = _batch_service(
        plan=ExecutorFaultPlan(seed=5, kill_tasks={(BATCH, 0): 1}))
    responses = chaotic.submit_batch([small_net, other_net])
    assert all(r.ok for r in responses)
    counters = chaotic.stats().supervision[BATCH]
    assert counters["retries"] == 1
    assert counters["failures"] == 0
    # the retried attempt is counted: attempts = tasks + retries
    assert counters["attempts"] == \
        clean.stats().supervision[BATCH]["attempts"] + 1


def test_exhausted_task_counts_one_failure_and_matches_report(small_net,
                                                              other_net):
    service = _batch_service(
        max_attempts=2,
        plan=ExecutorFaultPlan(seed=5, kill_tasks={(BATCH, 0): 99}))
    responses = service.submit_batch([small_net, other_net, small_net])
    stats = service.stats()
    counters = stats.supervision[BATCH]
    assert counters["failures"] == 1
    assert counters["retries"] == 1  # max_attempts=2 ⇒ one retry then give up
    # the one lost task fails exactly the requests on its key
    assert [r.status for r in responses] == ["failed", "ok", "failed"]
    assert all("InjectedWorkerCrash" in r.error
               for r in responses if not r.ok)
    assert stats.failed == 2 and stats.ok == 1


# -- supervise attempt/retry bookkeeping -----------------------------------


POLICY = SupervisorPolicy(max_attempts=3, backoff_base=0.0)


def _flaky(threshold):
    calls = {"n": 0}

    def fn(config):
        calls["n"] += 1
        if calls["n"] < threshold:
            raise RuntimeError(f"boom {calls['n']}")
        return config * 10

    return fn, calls


def test_outcome_arithmetic_success_on_retry():
    fn, _ = _flaky(threshold=2)
    outcomes = supervise(fn, [7], jobs=1, stage="unit", policy=POLICY)
    outcome, = outcomes
    assert outcome.ok and outcome.result == 70
    assert outcome.attempts == 2
    assert outcome.retries == 1
    assert len(outcome.errors) == 1
    assert outcome_counters(outcomes) == {
        "attempts": 2, "retries": 1, "failures": 0}


def test_outcome_arithmetic_budget_exhausted():
    fn, calls = _flaky(threshold=99)
    outcomes = supervise(fn, [7], jobs=1, stage="unit", policy=POLICY)
    outcome, = outcomes
    assert not outcome.ok
    assert outcome.attempts == 3 and outcome.retries == 2
    assert calls["n"] == 3
    assert len(outcome.errors) == 3
    assert outcome_counters(outcomes)["failures"] == 1
