"""Event-driven runtime: latency models, the event loop, convergence
detection, timers under crashes, and partition discovery."""

import pytest

from repro.core import SkeletonParams
from repro.observability import Tracer
from repro.runtime import (
    AsyncProfile,
    AsyncScheduler,
    CrashWindow,
    FaultPlan,
    LatencyModel,
    RetryPolicy,
    SeqWindow,
    SynchronousScheduler,
    live_components,
)
from tests.conftest import PingOnce, chain, skeleton_protocols


def gossip(k):
    """The pipeline protocol with k-hop neighbourhood gossip."""
    return skeleton_protocols(SkeletonParams(k=k, l=1))


def gossip_async(network, k=3, latency=None, plan=None, policy=None,
                 tracer=None, **run_kw):
    sched = AsyncScheduler(
        network, gossip(k), latency=latency, fault_plan=plan,
        retry_policy=policy, tracer=tracer,
    )
    stats = sched.run(**run_kw)
    return sched, stats


class TestLatencyModel:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="gaussian"),
        dict(base=0.0),
        dict(base=-1.0),
        dict(kind="uniform", jitter=-0.5),
        dict(kind="fixed", jitter=0.5),
        dict(kind="heavy_tail", jitter=1.0, tail_alpha=0.0),
        dict(kind="heavy_tail", jitter=1.0, tail_cap=0.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LatencyModel(**kwargs)

    @pytest.mark.parametrize("field", ["base", "jitter", "tail_alpha",
                                       "tail_cap"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(kind="heavy_tail", jitter=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LatencyModel(**kwargs)

    def test_zero_jitter_normalises_to_fixed(self):
        model = LatencyModel.uniform_jitter(0.0)
        assert model.kind == "fixed" and model.is_degenerate

    def test_fixed_is_degenerate(self):
        model = LatencyModel.fixed(base=2.0)
        assert model.is_degenerate
        assert model.max_delay == 2.0
        assert all(model.delay(a, b, s) == 2.0
                   for a in range(3) for b in range(3) for s in range(5))

    def test_uniform_bounds_and_determinism(self):
        model = LatencyModel.uniform_jitter(2.0, base=1.0, seed=5)
        draws = [model.delay(0, 1, s) for s in range(200)]
        assert all(1.0 <= d <= 3.0 for d in draws)
        assert len(set(draws)) > 100  # actually jittered
        assert draws == [model.delay(0, 1, s) for s in range(200)]
        assert not model.is_degenerate
        assert model.max_delay == 3.0

    def test_links_decorrelated(self):
        model = LatencyModel.uniform_jitter(2.0, seed=5)
        assert model.delay(0, 1, 7) != model.delay(1, 0, 7)

    def test_heavy_tail_bounded_by_cap(self):
        model = LatencyModel.heavy_tail(1.0, base=1.0, seed=5, tail_cap=4.0)
        draws = [model.delay(0, 1, s) for s in range(500)]
        assert all(1.0 <= d <= model.max_delay for d in draws)
        assert model.max_delay == (1.0 + 1.0) * 4.0
        # The tail actually straggles: some draw far beyond the uniform
        # window of the same scale.
        assert max(draws) > 2.0


class TestAsyncProfile:
    @pytest.mark.parametrize("kwargs", [
        dict(grace=-0.1),
        dict(backoff=0.9),
        dict(correction_budget=-1),
        dict(aggregation_delay=-0.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AsyncProfile(**kwargs)


class TestSeqWindow:
    def test_duplicate_inside_window(self):
        window = SeqWindow(4)
        assert window.add(7) == (True, 0)
        assert window.add(7) == (False, 0)
        assert len(window) == 1

    def test_eviction_slides_oldest_out(self):
        window = SeqWindow(2)
        assert window.add(1) == (True, 0)
        assert window.add(2) == (True, 0)
        assert window.add(3) == (True, 1)  # 1 evicted
        assert len(window) == 2
        # The evicted seq is forgotten: it reads as fresh again.
        assert window.add(1) == (True, 1)


class TestEventLoop:
    def test_zero_jitter_gossip_matches_synchronous(self):
        network = chain(7)
        sched, stats = gossip_async(network, k=3)
        sync = SynchronousScheduler(network, gossip(3))
        sync_stats = sync.run()
        assert [p.known for p in sched.protocols] == \
            [p.known for p in sync.protocols]
        assert stats.broadcasts == sync_stats.broadcasts
        assert stats.corrections == 0

    def test_convergence_report(self):
        tracer = Tracer()
        sched, stats = gossip_async(chain(7), k=3, tracer=tracer)
        report = stats.convergence
        assert stats.quiesced and report.quiesced
        # The clock stops at the last event: nothing happens after it.
        assert report.virtual_time == max(e.time for e in tracer.events)
        assert report.timer_fires == tracer.timer_fires > 0
        assert report.deliveries > 0
        assert report.events >= report.deliveries
        assert report.max_outstanding > 0
        assert not report.partitioned
        # Deficit accounting settled everywhere.
        assert all(d == 0 for d in sched._deficit.values())

    def test_deadline_raise(self):
        with pytest.raises(RuntimeError, match="quiesce"):
            gossip_async(chain(8), k=7, deadline=2.0)

    def test_deadline_return_partial(self):
        sched, stats = gossip_async(
            chain(8), k=7, deadline=2.0, deadline_action="return_partial"
        )
        assert not stats.quiesced
        assert not stats.convergence.quiesced
        assert stats.convergence.virtual_time <= 2.0
        # Partial state is still the first two hops of knowledge.
        assert sched.protocols[0].known >= {0, 1}

    def test_max_events_budget(self):
        _, stats = gossip_async(
            chain(8), k=7, max_events=3, deadline_action="return_partial"
        )
        assert not stats.quiesced

    def test_invalid_deadline_action(self):
        with pytest.raises(ValueError):
            gossip_async(chain(3), k=1, deadline_action="abort")

    def test_negative_timer_delay_rejected(self):
        sched = AsyncScheduler(chain(3), PingOnce)
        with pytest.raises(ValueError):
            sched.schedule_timer(0, -1.0, "flush")

    def test_jittered_gossip_still_exact(self):
        # Reordering may cost corrections but never coverage: every node
        # still learns exactly its k-hop neighbourhood.
        network = chain(9)
        latency = LatencyModel.uniform_jitter(1.5, seed=11)
        sched, stats = gossip_async(network, k=3, latency=latency)
        assert stats.quiesced
        for v in network.nodes():
            truth = {u for u in network.nodes() if abs(u - v) <= 3}
            assert sched.protocols[v].known == truth

    def test_corrections_not_counted_as_broadcasts(self):
        network = chain(9)
        latency = LatencyModel.uniform_jitter(1.5, seed=11)
        tracer = Tracer()
        _, stats = gossip_async(network, k=3, latency=latency, tracer=tracer)
        query = tracer.query()
        assert stats.corrections > 0
        assert stats.corrections == len(query.of_kind("correction"))
        assert stats.broadcasts == len(query.of_kind("send"))
        # The paper's per-node bound (≤ k algorithmic gossip broadcasts)
        # holds even when repairs happened.
        assert max(query.sends_by_node(phase="nbr").values()) <= 3


class TestAsyncFaults:
    def test_retry_recovers_from_drops(self):
        network = chain(6)
        plan = FaultPlan(seed=3, drop_probability=0.3)
        policy = RetryPolicy(max_retries=8)
        sched, stats = gossip_async(network, k=3, plan=plan, policy=policy)
        assert stats.retries > 0
        for v in network.nodes():
            truth = {u for u in network.nodes() if abs(u - v) <= 3}
            assert sched.protocols[v].known == truth

    def test_crashed_sender_exhausts_retry_budget(self):
        # A permanently crashed sender with no retries left loses the whole
        # frame: one drop per unreachable neighbour.
        plan = FaultPlan(crashes={1: CrashWindow(start=0)})
        sched = AsyncScheduler(chain(3), PingOnce, fault_plan=plan,
                               retry_policy=RetryPolicy(max_retries=0))
        stats = sched.run()
        # Node 1's own ping (2 neighbours) plus each endpoint's ping
        # addressed only to the dead centre.
        assert stats.drops == 4
        assert stats.retries == 0
        assert [p.received for p in sched.protocols] == [0, 0, 0]

    def test_recoverable_crash_defers_timer(self):
        # A timer due inside a crash window fires after recovery instead of
        # being lost; the node still converges.  Node 2's first phase
        # deadline, k hops of 1.5 plus a grace of 2, falls due at 5.0.
        network = chain(5)
        plan = FaultPlan(crashes={2: CrashWindow(start=4, end=6)})
        policy = RetryPolicy(max_retries=8)
        tracer = Tracer()
        sched = AsyncScheduler(
            network,
            skeleton_protocols(SkeletonParams(k=2, l=1),
                               AsyncProfile(aggregation_delay=0.5)),
            fault_plan=plan, retry_policy=policy, tracer=tracer,
        )
        stats = sched.run()
        assert stats.quiesced
        phase_fires = [e.time for e in tracer.events if e.kind == "timer"
                       and e.node == 2 and e.extra["tag"] == "phase"]
        assert phase_fires[0] == 6.0
        assert sched.protocols[2].known == {0, 1, 2, 3, 4}

    def test_permanent_crash_discards_timer(self):
        network = chain(5)
        plan = FaultPlan(crashes={2: CrashWindow(start=1)})
        policy = RetryPolicy(max_retries=2)
        sched = AsyncScheduler(
            network,
            skeleton_protocols(SkeletonParams(k=2, l=1),
                               AsyncProfile(aggregation_delay=0.5)),
            fault_plan=plan, retry_policy=policy,
        )
        stats = sched.run()
        # The run still quiesces: the dead node's pending phase timer is
        # dropped rather than rescheduled forever.
        assert stats.quiesced
        assert stats.convergence.partitioned


class TestLiveComponents:
    def test_no_plan_single_component(self):
        network = chain(5)
        assert live_components(network, None) == [[0, 1, 2, 3, 4]]

    def test_recoverable_crash_does_not_split(self):
        network = chain(5)
        plan = FaultPlan(crashes={2: CrashWindow(start=0, end=10)})
        assert live_components(network, plan) == [[0, 1, 2, 3, 4]]

    def test_permanent_crash_splits_largest_first(self):
        network = chain(6)
        plan = FaultPlan(crashes={2: CrashWindow(start=0)})
        assert live_components(network, plan) == [[3, 4, 5], [0, 1]]


class TestSynchronousDeadlineAction:
    def test_return_partial_flags_quiesced(self):
        sched = SynchronousScheduler(chain(8), gossip(7))
        stats = sched.run(max_rounds=2, deadline_action="return_partial")
        assert not stats.quiesced
        assert sched.protocols[0].known >= {0, 1}

    def test_raise_is_default(self):
        sched = SynchronousScheduler(chain(8), gossip(7))
        with pytest.raises(RuntimeError, match="quiesce"):
            sched.run(max_rounds=2)

    def test_invalid_action_rejected(self):
        sched = SynchronousScheduler(chain(3), PingOnce)
        with pytest.raises(ValueError):
            sched.run(deadline_action="abort")
