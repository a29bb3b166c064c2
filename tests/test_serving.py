"""The serving-layer correctness battery (DESIGN.md §14).

The contract under test: :class:`~repro.serving.SkeletonService` changes
*when* the pipeline runs — cache hits, dedup coalescing, shedding,
deadlines, supervised batch retries — but never *what* it produces.
Every served artifact must be bit-identical to a direct pipeline run on
the same network, for every artifact kind; the lifecycle semantics (dedup invariants, bounded-queue admission,
deadline actions, chaos recovery, cache-poisoning recovery) are pinned
on a virtual clock so they are exact statements, not races.
"""

import pytest

from repro.core import SkeletonParams, extract_skeleton
from repro.network import get_scenario
from repro.observability import Tracer
from repro.observability.metrics import build_metrics
from repro.perf import ArtifactCache
from repro.resilience import ExecutorFaultPlan, SupervisorPolicy
from repro.resilience.faults import corrupt_cache_entries
from repro.serving import (
    ARTIFACT_KINDS,
    RESULT_STAGE,
    ServiceConfig,
    SkeletonService,
    VirtualClock,
    WorkloadSpec,
    run_workload,
)
from repro.shard import diff_results


@pytest.fixture(scope="module")
def window_net():
    return get_scenario("window").build(seed=3, num_nodes=160)


@pytest.fixture(scope="module")
def hole_net():
    return get_scenario("one_hole").build(seed=4, num_nodes=160)


@pytest.fixture(scope="module")
def third_net():
    return get_scenario("flower").build(seed=5, num_nodes=160)


# -- serial equivalence: served == direct, every kind ----------------------


@pytest.mark.parametrize("params", [SkeletonParams()], ids=["vectorized"])
def test_served_artifacts_bit_identical_to_direct(window_net, params):
    direct = extract_skeleton(window_net, params)
    service = SkeletonService()

    result = service.request(window_net, "result", params=params)
    assert result.status == "ok"
    assert diff_results(direct, result.artifact) == []

    skeleton = service.request(window_net, "skeleton", params=params)
    assert skeleton.from_cache
    assert skeleton.artifact.nodes == direct.skeleton.nodes
    assert skeleton.artifact.edges == direct.skeleton.edges

    segmentation = service.request(window_net, "segmentation", params=params)
    assert segmentation.artifact.segments == direct.segmentation.segments

    boundary = service.request(window_net, "boundary", params=params)
    assert boundary.artifact == direct.boundary_nodes


def test_all_kinds_share_one_computation(window_net):
    service = SkeletonService()
    for kind in ARTIFACT_KINDS:
        assert service.request(window_net, kind).status == "ok"
    stats = service.stats()
    assert stats.computed == 1
    assert stats.cache_hits == len(ARTIFACT_KINDS) - 1


# -- dedup invariants ------------------------------------------------------


def test_dedup_coalesces_identical_inflight_requests(window_net):
    service = SkeletonService()
    service.pause()
    tickets = [service.submit(window_net) for _ in range(5)]
    assert service.queue_depth == 1
    service.resume()
    responses = [t.result() for t in tickets]
    assert all(r.status == "ok" for r in responses)
    # N identical requests, exactly one pipeline execution, N identical
    # responses (the founder is not flagged as deduped; attachments are).
    stats = service.stats()
    assert stats.computed == 1
    assert stats.dedup_hits == 4
    assert [r.deduped for r in responses] == [False, True, True, True, True]
    assert all(r.artifact.nodes == responses[0].artifact.nodes
               for r in responses)
    assert len({r.content_key for r in responses}) == 1


def test_dedup_disabled_computes_every_request(window_net):
    service = SkeletonService(ServiceConfig(dedup=False, cache_results=False,
                                            max_queue=16))
    service.pause()
    tickets = [service.submit(window_net) for _ in range(3)]
    service.resume()
    assert all(t.result().status == "ok" for t in tickets)
    assert service.stats().computed == 3


def test_threaded_workers_dedup_and_match(window_net):
    with SkeletonService(ServiceConfig(workers=2)) as service:
        service.pause()
        tickets = [service.submit(window_net) for _ in range(6)]
        service.resume()
        responses = [t.result(timeout=120) for t in tickets]
    assert all(r.status == "ok" for r in responses)
    stats = service.stats()
    assert stats.computed == 1
    assert stats.dedup_hits == 5
    assert all(r.artifact.nodes == responses[0].artifact.nodes
               for r in responses)


def test_different_params_do_not_dedup(window_net):
    service = SkeletonService()
    service.pause()
    a = service.submit(window_net, params=SkeletonParams())
    b = service.submit(window_net, params=SkeletonParams(k=5))
    assert service.queue_depth == 2
    service.resume()
    assert a.result().content_key != b.result().content_key
    assert service.stats().computed == 2


# -- bounded-queue admission / load shedding -------------------------------


def test_queue_overflow_sheds(window_net, hole_net, third_net):
    service = SkeletonService(ServiceConfig(max_queue=2))
    service.pause()
    kept = [service.submit(window_net), service.submit(hole_net)]
    shed = service.submit(third_net)
    assert shed.done()
    response = shed.result()
    assert response.status == "shed"
    assert response.artifact is None
    assert "queue full" in response.error
    service.resume()
    assert all(t.result().status == "ok" for t in kept)
    stats = service.stats()
    assert stats.shed == 1 and stats.ok == 2
    assert stats.completed == stats.submitted == 3


def test_dedup_and_cache_hits_bypass_admission(window_net, hole_net):
    service = SkeletonService(ServiceConfig(max_queue=1))
    service.pause()
    founder = service.submit(window_net)
    rider = service.submit(window_net)  # dedup: no queue slot consumed
    assert service.queue_depth == 1
    service.resume()
    assert founder.result().status == "ok"
    assert rider.result().status == "ok"
    service.pause()
    cached = service.submit(window_net)  # cache hit: resolved instantly
    assert cached.done() and cached.result().from_cache
    service.resume()
    assert service.stats().shed == 0


# -- deadlines on the virtual clock ----------------------------------------


def test_deadline_full_is_advisory(window_net):
    clock = VirtualClock()
    service = SkeletonService(clock=clock)
    service.pause()
    ticket = service.submit(window_net, deadline=5.0, deadline_action="full")
    clock.advance(10.0)
    service.resume()
    response = ticket.result()
    assert response.status == "ok"
    assert response.deadline_missed


def test_deadline_shed_drops_expired_queued_requests(window_net):
    clock = VirtualClock()
    service = SkeletonService(clock=clock)
    service.pause()
    expired = service.submit(window_net, deadline=5.0, deadline_action="shed")
    clock.advance(10.0)
    service.resume()
    response = expired.result()
    assert response.status == "shed"
    assert "deadline expired" in response.error
    # an unexpired shed-action request is served normally
    fresh = service.request(window_net, deadline=5.0, deadline_action="shed")
    assert fresh.status == "ok" and not fresh.deadline_missed


@pytest.mark.parametrize("deadline", [-1.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_deadlines_must_be_finite_and_nonnegative(window_net, deadline):
    # A NaN deadline would make every expiry comparison false: a "shed"
    # request could never be shed nor flagged late.
    with pytest.raises(ValueError, match="default_deadline"):
        ServiceConfig(default_deadline=deadline)
    service = SkeletonService()
    with pytest.raises(ValueError, match="deadline"):
        service.submit(window_net, deadline=deadline)
    assert service.stats().submitted == 0


# -- chaos: injected worker faults -----------------------------------------


def test_killed_batch_attempt_retries_to_full_result(window_net, hole_net):
    plan = ExecutorFaultPlan(seed=3, kill_tasks={("serve:batch", 0): 1})
    policy = SupervisorPolicy(max_attempts=3, backoff_base=0.0)
    service = SkeletonService(ServiceConfig(fault_plan=plan,
                                            supervisor=policy))
    responses = service.submit_batch([window_net, hole_net], kind="result")
    assert [r.status for r in responses] == ["ok", "ok"]
    for net, response in zip([window_net, hole_net], responses):
        direct = extract_skeleton(net, SkeletonParams())
        assert diff_results(direct, response.artifact) == []
    assert service.stats().supervision["serve:batch"]["retries"] == 1


# -- cache poisoning recovery ----------------------------------------------


def test_poisoned_cache_entry_quarantines_and_recomputes(tmp_path,
                                                         window_net):
    cache = ArtifactCache(disk_dir=tmp_path)
    service = SkeletonService(cache=cache)
    first = service.request(window_net)
    assert first.status == "ok" and not first.from_cache
    # Force the next lookup through the disk tier, then corrupt it.
    cache.clear(memory_only=True)
    assert corrupt_cache_entries(tmp_path, RESULT_STAGE, limit=1)
    second = service.request(window_net)
    # The digest check must catch the corruption: quarantine, recompute,
    # and serve the correct artifact — never deserialize the poison.
    assert second.status == "ok"
    assert not second.from_cache
    assert second.artifact.nodes == first.artifact.nodes
    assert second.artifact.edges == first.artifact.edges
    assert cache.quarantine_dir is not None
    assert list(cache.quarantine_dir.glob("*.pkl"))
    # and the republished entry serves the third request from cache
    cache.clear(memory_only=True)
    third = service.request(window_net)
    assert third.from_cache
    assert third.artifact.nodes == first.artifact.nodes


# -- batch submission ------------------------------------------------------


def test_batch_orders_dedups_and_matches_direct(window_net, hole_net):
    service = SkeletonService()
    responses = service.submit_batch([window_net, hole_net, window_net])
    assert [r.status for r in responses] == ["ok", "ok", "ok"]
    assert [r.deduped for r in responses] == [False, False, True]
    assert responses[0].artifact.nodes == responses[2].artifact.nodes
    direct = extract_skeleton(hole_net, SkeletonParams())
    assert responses[1].artifact.nodes == direct.skeleton.nodes
    stats = service.stats()
    assert stats.computed == 2 and stats.dedup_hits == 1
    # a second batch is served entirely from the cache
    again = service.submit_batch([window_net, hole_net])
    assert all(r.from_cache for r in again)
    assert service.stats().computed == 2


def test_batch_parallel_fanout_matches_serial(window_net, hole_net,
                                              third_net):
    nets = [window_net, hole_net, third_net]
    serial = SkeletonService(ServiceConfig(jobs=1)).submit_batch(nets)
    parallel = SkeletonService(ServiceConfig(jobs=2)).submit_batch(nets)
    for left, right in zip(serial, parallel):
        assert left.status == right.status == "ok"
        assert left.artifact.nodes == right.artifact.nodes
        assert left.artifact.edges == right.artifact.edges


def test_batch_task_failure_is_isolated(window_net, hole_net):
    plan = ExecutorFaultPlan(seed=11, kill_tasks={("serve:batch", 0): 99})
    policy = SupervisorPolicy(max_attempts=2, backoff_base=0.0,
                              speculate=False)
    service = SkeletonService(ServiceConfig(fault_plan=plan,
                                            supervisor=policy))
    responses = service.submit_batch([window_net, hole_net])
    assert responses[0].status == "failed"
    assert "InjectedWorkerCrash" in responses[0].error
    assert responses[1].status == "ok"
    stats = service.stats()
    assert stats.failed == 1 and stats.ok == 1


def test_batch_mixed_kinds(window_net):
    service = SkeletonService()
    direct = extract_skeleton(window_net, SkeletonParams())
    responses = service.submit_batch([(window_net, "skeleton"),
                                      (window_net, "boundary")])
    assert responses[0].artifact.nodes == direct.skeleton.nodes
    assert responses[1].artifact == direct.boundary_nodes
    assert service.stats().computed == 1


# -- observability ---------------------------------------------------------


def test_tracer_and_metrics_integration(window_net):
    tracer = Tracer()
    service = SkeletonService(tracer=tracer)
    service.request(window_net)
    service.request(window_net)
    assert any(span.name == "serve:compute" for span in tracer.spans)
    report = build_metrics(tracer)
    assert report.cache_hits.get(RESULT_STAGE) == 1
    assert report.cache_misses.get(RESULT_STAGE) == 1


def test_stats_counter_arithmetic_and_latency(window_net, hole_net):
    clock = VirtualClock()
    service = SkeletonService(ServiceConfig(max_queue=1), clock=clock)
    service.pause()
    tickets = [service.submit(window_net), service.submit(window_net)]
    shed = service.submit(hole_net)
    clock.advance(2.0)
    service.resume()
    for ticket in tickets:
        ticket.result()
    stats = service.stats()
    assert stats.completed == stats.submitted == 3
    assert stats.completed == stats.ok + stats.failed + stats.shed
    assert stats.ok == 2
    assert shed.result().status == "shed"
    # latency on the virtual clock is exactly the queueing delay
    assert stats.latency_p50 == pytest.approx(2.0)
    assert stats.latency_p99 == pytest.approx(2.0)
    assert stats.latency_max == pytest.approx(2.0)


# -- lifecycle and validation ----------------------------------------------


def test_ticket_timeout_then_resolution(window_net):
    service = SkeletonService()
    service.pause()
    ticket = service.submit(window_net)
    with pytest.raises(TimeoutError):
        ticket.result(timeout=0.01)
    service.resume()
    assert ticket.result().status == "ok"


def test_stop_drains_queue_and_refuses_new_work(window_net):
    service = SkeletonService()
    service.pause()
    ticket = service.submit(window_net)
    service.stop()
    assert ticket.result().status == "ok"
    with pytest.raises(RuntimeError, match="stopped"):
        service.submit(window_net)


def test_invalid_requests_and_configs_raise(window_net):
    service = SkeletonService()
    with pytest.raises(ValueError, match="kind"):
        service.submit(window_net, "voronoi")
    with pytest.raises(ValueError, match="deadline_action"):
        service.submit(window_net, deadline_action="retry")
    with pytest.raises(ValueError, match="max_queue"):
        ServiceConfig(max_queue=0)
    with pytest.raises(ValueError, match="workers"):
        ServiceConfig(workers=-1)
    with pytest.raises(ValueError, match="deadline_action"):
        ServiceConfig(deadline_action="later")
    # "partial" (a degraded sharded run) is no longer a deadline action
    with pytest.raises(ValueError, match="deadline_action"):
        ServiceConfig(deadline_action="partial")


# -- workload generator ----------------------------------------------------


def test_workload_is_deterministic_and_coalesces():
    spec = WorkloadSpec(seed=11, requests=16, clients=4, catalog_size=3,
                        num_nodes=120)
    first = run_workload(SkeletonService(), spec)
    second = run_workload(SkeletonService(), spec)
    assert first.requests == second.requests == 16
    assert first.shed == 0 and first.failed == 0
    assert first.dedup_hits >= 1
    for name in ("ok", "failed", "shed", "cache_hits",
                 "dedup_hits", "computed"):
        assert getattr(first, name) == getattr(second, name)


def test_workload_on_virtual_clock_with_mixed_kinds():
    clock = VirtualClock()
    service = SkeletonService(clock=clock)
    spec = WorkloadSpec(seed=5, requests=8, clients=2, catalog_size=2,
                        num_nodes=120, mix_kinds=True, think_time=1.0)
    report = run_workload(service, spec)
    assert report.requests == 8
    assert report.shed == 0 and report.failed == 0
    assert report.ok == 8
    # four rounds, a virtual second of think time after each
    assert clock.now() == pytest.approx(4.0)
    payload = report.to_dict()
    assert payload["requests"] == 8
    assert payload["seed"] == 5


def test_lazy_worker_start_and_stop_refusal(window_net):
    service = SkeletonService(ServiceConfig(workers=1))
    # no explicit start(): the first submission spins the workers up
    ticket = service.submit(window_net)
    assert ticket.result(timeout=120).status == "ok"
    service.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        service.start()


# -- the CLI ---------------------------------------------------------------


def test_cli_workload_end_to_end(tmp_path, capsys):
    import json

    from repro.serving.__main__ import main

    json_path = tmp_path / "report.json"
    rc = main(["--requests", "12", "--clients", "3", "--catalog", "2",
               "--nodes", "120", "--seed", "7", "--virtual-clock",
               "--think-time", "0.5", "--json", str(json_path), "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert "clock=virtual" in out
    payload = json.loads(json_path.read_text())
    assert payload["requests"] == 12
    assert payload["shed"] == 0 and payload["failed"] == 0
    assert payload["dedup_hits"] >= 1


def test_cli_check_fails_without_dedup_opportunity(capsys):
    from repro.serving.__main__ import main

    # one client, one network, dedup off: coalescing cannot happen, so
    # the smoke gate must fail loudly rather than pass vacuously
    rc = main(["--requests", "4", "--clients", "1", "--catalog", "1",
               "--nodes", "120", "--no-dedup", "--no-cache", "--check"])
    assert rc == 1
    assert "no dedup coalescing" in capsys.readouterr().err


def test_cli_rejects_bad_config(capsys):
    from repro.serving.__main__ import main

    rc = main(["--requests", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_workload_spec_validation():
    with pytest.raises(ValueError, match="requests"):
        WorkloadSpec(requests=0)
    with pytest.raises(ValueError, match="clients"):
        WorkloadSpec(clients=0)
    with pytest.raises(ValueError, match="catalog_size"):
        WorkloadSpec(catalog_size=0)
    with pytest.raises(ValueError, match="zipf_s"):
        WorkloadSpec(zipf_s=-1.0)
