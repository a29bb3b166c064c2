"""The serving-layer correctness battery (DESIGN.md §13).

The contract under test: :class:`~repro.serving.SkeletonService` changes
*when* the pipeline runs — cache hits, dedup coalescing, shedding,
deadlines — but never *what* it produces.  Every served artifact must
be bit-identical to a direct pipeline run on the same network, for every
artifact kind; the lifecycle semantics (dedup invariants, bounded-queue
admission, deadline actions, cache-poisoning recovery) are pinned on a
virtual clock so they are exact statements, not races.
"""

import pytest

from repro.core import SkeletonParams, extract_skeleton
from repro.core.equivalence import diff_results
from repro.network import get_scenario
from repro.observability import Tracer
from repro.observability.metrics import build_metrics
from repro.perf import ArtifactCache
from repro.serving import (
    ARTIFACT_KINDS,
    RESULT_STAGE,
    ServiceConfig,
    SkeletonService,
    VirtualClock,
)
from tests.conftest import corrupt_cache_entries


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


def test_served_artifacts_bit_identical_to_direct(window_net):
    params = SkeletonParams()
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
    # requested together, the kinds share one in-flight computation
    direct = extract_skeleton(window_net, SkeletonParams())
    service = SkeletonService()
    service.pause()
    tickets = [service.submit(window_net, kind) for kind in ARTIFACT_KINDS]
    assert service.queue_depth == 1
    service.resume()
    responses = {kind: t.result() for kind, t in zip(ARTIFACT_KINDS, tickets)}
    stats = service.stats()
    assert stats.computed == 1
    assert stats.dedup_hits == len(ARTIFACT_KINDS) - 1
    assert responses["skeleton"].artifact.nodes == direct.skeleton.nodes
    assert responses["boundary"].artifact == direct.boundary_nodes
    assert diff_results(direct, responses["result"].artifact) == []


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
    # once the computation has published, a repeat is a cache hit
    repeat = service.submit(window_net).result()
    assert repeat.from_cache and not repeat.deduped
    assert repeat.artifact.nodes == responses[0].artifact.nodes
    assert service.stats().computed == 1


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


def test_lazy_worker_start_and_stop_refusal(window_net):
    service = SkeletonService(ServiceConfig(workers=1))
    # no explicit start(): the first submission spins the workers up
    ticket = service.submit(window_net)
    assert ticket.result(timeout=120).status == "ok"
    service.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        service.start()
