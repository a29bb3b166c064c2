"""Fault-injection runtime: determinism, recovery, crash semantics, accounting."""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.core import SkeletonParams, run_distributed_stages
from repro.network import get_scenario
from repro.observability import Tracer
from repro.runtime import (
    AsyncScheduler,
    CrashWindow,
    FaultPlan,
    RetryPolicy,
    SynchronousScheduler,
)
from tests.conftest import chain, linked, skeleton_protocols


def gossip_run(network, k=3, plan=None, policy=None):
    """The pipeline protocol with k-hop gossip; returns each node's
    neighbourhood (``known``) and the run's stats.  Phase 1 lasts exactly
    k rounds, so the recovery tests below give it k = 2 * diameter: a
    retransmitted frame arrives rounds late and still needs time to be
    forwarded before the phase ends."""
    sched = SynchronousScheduler(
        network, skeleton_protocols(SkeletonParams(k=k, l=1)),
        fault_plan=plan, retry_policy=policy,
    )
    stats = sched.run()
    return [frozenset(p.known) for p in sched.protocols], stats


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(drop_probability=-0.1),
        dict(drop_probability=1.0),
        dict(flap_probability=-0.1),
        dict(flap_probability=1.0),
    ])
    def test_probabilities_must_be_in_range(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_crash_window_end_after_start(self):
        with pytest.raises(ValueError):
            CrashWindow(start=5, end=5)
        with pytest.raises(ValueError):
            CrashWindow(start=-1)

    def test_retry_budget_nonnegative(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_crash_window_coverage(self):
        w = CrashWindow(start=2, end=4)
        assert [w.covers(r) for r in (1, 2, 3, 4)] == [False, True, True, False]
        assert not w.is_permanent
        assert CrashWindow(start=2).is_permanent


class TestDeterminism:
    def test_same_seed_same_outcome(self, rectangle_network):
        plan = FaultPlan(seed=11, drop_probability=0.2)
        policy = RetryPolicy(max_retries=2)
        known_a, stats_a = gossip_run(rectangle_network, plan=plan, policy=policy)
        known_b, stats_b = gossip_run(rectangle_network, plan=plan, policy=policy)
        assert known_a == known_b
        assert stats_a.summary() == stats_b.summary()

    def test_different_seed_different_faults(self, rectangle_network):
        a = FaultPlan(seed=1, drop_probability=0.2)
        b = FaultPlan(seed=2, drop_probability=0.2)
        _, stats_a = gossip_run(rectangle_network, plan=a)
        _, stats_b = gossip_run(rectangle_network, plan=b)
        assert stats_a.drops != stats_b.drops

    def test_fault_predicates_are_pure(self):
        plan = FaultPlan(seed=3, drop_probability=0.5, flap_probability=0.5)
        draws = [plan.delivers(1, 2, 7, 42) for _ in range(5)]
        assert len(set(draws)) == 1
        flaps = [plan.link_up(4, 9, 3) for _ in range(5)]
        assert len(set(flaps)) == 1
        # Symmetric link: both directions flap together.
        assert plan.link_up(4, 9, 3) == plan.link_up(9, 4, 3)

    def test_channels_are_decorrelated(self):
        # Data and ack draws with identical coordinates must differ for
        # some coordinate, or a lost frame would imply a lost ack.
        plan = FaultPlan(seed=5, drop_probability=0.5)
        differs = any(
            plan.delivers(a, b, r, s) != plan.ack_delivers(a, b, r, s)
            for a in range(4) for b in range(4) for r in range(4)
            for s in range(4)
        )
        assert differs


class TestZeroDropIdentity:
    def test_gossip_bit_identical(self, rectangle_network):
        known_plain, stats_plain = gossip_run(rectangle_network)
        plan = FaultPlan(seed=99, drop_probability=0.0)
        known_fault, stats_fault = gossip_run(
            rectangle_network, plan=plan, policy=RetryPolicy(max_retries=3)
        )
        assert known_plain == known_fault
        assert stats_fault.retries == 0
        assert stats_fault.drops == 0
        assert stats_fault.redundant_deliveries == 0
        assert stats_plain.broadcasts == stats_fault.broadcasts
        assert stats_plain.receptions == stats_fault.receptions
        assert stats_plain.rounds == stats_fault.rounds
        assert stats_plain.broadcasts_per_node == stats_fault.broadcasts_per_node
        assert stats_plain.broadcasts_per_round == stats_fault.broadcasts_per_round

    def test_distributed_stages_bit_identical(self, rectangle_network):
        plain = run_distributed_stages(rectangle_network)
        faulty = run_distributed_stages(
            rectangle_network,
            fault_plan=FaultPlan(seed=7, drop_probability=0.0),
            retry_policy=RetryPolicy(max_retries=3),
        )
        assert plain.khop_sizes == faulty.khop_sizes
        assert plain.index == faulty.index
        assert plain.critical_nodes == faulty.critical_nodes
        assert plain.site_records == faulty.site_records
        assert plain.stats.broadcasts == faulty.stats.broadcasts
        assert plain.stats.rounds == faulty.stats.rounds
        assert faulty.stats.retries == 0


def _traced_window_run(**kwargs):
    """The distributed stages on Window (400 nodes, seed 1), traced."""
    network = get_scenario("window").build(seed=1, num_nodes=400)
    tracer = Tracer()
    outcome = run_distributed_stages(network, tracer=tracer, **kwargs)
    return outcome, tracer


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def _event_multiset(tracer):
    """Every recorded event without its ``seq``, sorted: what a fabric
    logged, whatever order it logged it in."""
    return sorted(
        json.dumps([e.time, e.kind, e.node, e.phase, e.msg_id, e.parent,
                    e.extra], sort_keys=True)
        for e in tracer.events
    )


# Recorded on the two-loop synchronous scheduler (see test_lossy_run_pinned).
LOSSY_COUNTERS = {
    "broadcasts": 2961, "receptions": 31648, "rounds": 21, "retries": 3143,
    "drops": 5212, "acks_dropped": 1941, "redundant_deliveries": 14738,
    "corrections": 0, "corrections_suppressed": 0, "seen_evictions": 0,
}
LOSSY_PER_ROUND = [298, 297, 295, 295, 297, 296, 295, 293, 297, 24, 108, 85,
                   55, 15, 4, 1, 1, 4, 1, 0, 0]
LOSSY_EVENT_KINDS = {
    "send": 2961, "retry": 3143, "deliver": 16910, "drop": 5200,
    "ack_drop": 1941, "redundant": 14738, "crash": 1, "recover": 1,
}
LOSSY_PER_NODE_DIGEST = (
    "ceaabe5970cd1a1f83e17da4042f11a12ea28c9bfdd6e33941c287c6f4603e4e")
LOSSY_METRICS_DIGEST = (
    "cea69d4f47f57f0b3f5593afe6f827d0556327b55e1441555355afd472a8db19")
LOSSY_EVENTS_DIGEST = (
    "0dffc2e8bc607a862a068b4147e271af030c743a3f865deadcd874e86f89d19f")


@pytest.fixture(scope="module")
def plain_window_run():
    return _traced_window_run()


class TestOneSynchronousFabric:
    """One round body serves every synchronous fabric: a plan or policy
    that never fires changes nothing, down to the event log."""

    @pytest.mark.parametrize("kwargs", [
        dict(fault_plan=FaultPlan(seed=7, drop_probability=0.0),
             retry_policy=RetryPolicy(max_retries=3)),
        dict(retry_policy=RetryPolicy(max_retries=3)),
    ], ids=["zero-probability-plan", "retry-policy-only"])
    def test_idle_fault_layer_logs_the_plain_run(self, plain_window_run,
                                                 kwargs):
        plain, plain_tracer = plain_window_run
        outcome, tracer = _traced_window_run(**kwargs)
        assert outcome.stats == plain.stats
        assert outcome.site_records == plain.site_records
        assert tracer.events == plain_tracer.events

    def test_lossy_run_pinned(self):
        # Drops, flaps, one crash window and ARQ.  The literals were
        # recorded on the synchronous scheduler that still had separate
        # fault-free and faulty round bodies.  The seed is one where no
        # record needs a correction, so the values are the link layer's
        # alone (the correction budget is pinned by
        # TestVoronoiCorrectionUnderLoss).
        plan = FaultPlan(seed=11, drop_probability=0.1, flap_probability=0.05,
                         crashes={17: CrashWindow(start=4, end=9)})
        outcome, tracer = _traced_window_run(
            fault_plan=plan, retry_policy=RetryPolicy(max_retries=3))
        stats = outcome.stats
        counters = {name: getattr(stats, name) for name in stats._COUNTERS}
        assert counters == LOSSY_COUNTERS
        assert stats.broadcasts_per_round == LOSSY_PER_ROUND
        assert _digest(sorted(stats.broadcasts_per_node.items())) \
            == LOSSY_PER_NODE_DIGEST
        report = dataclasses.asdict(tracer.metrics())
        del report["stage_timings"]
        assert _digest(report) == LOSSY_METRICS_DIGEST
        assert Counter(e.kind for e in tracer.events) == LOSSY_EVENT_KINDS
        assert _digest(_event_multiset(tracer)) == LOSSY_EVENTS_DIGEST


class TestRetryRecovery:
    def test_retries_recover_lost_gossip(self):
        net = chain(12)
        plan = FaultPlan(seed=2, drop_probability=0.3)
        bare, bare_stats = gossip_run(net, k=22, plan=plan)
        recovered, stats = gossip_run(
            net, k=22, plan=plan, policy=RetryPolicy(max_retries=8)
        )
        complete = frozenset(range(12))
        assert bare_stats.drops > 0
        # With a generous retry budget (residual per-frame loss 0.3^9 ~ 2e-5)
        # the chain gossip completes even at 30% loss; without it, at least
        # one node misses part of the chain.
        assert all(known == complete for known in recovered)
        assert any(known != complete for known in bare)
        assert stats.retries > 0

    def test_retry_budget_bound(self, rectangle_network):
        policy = RetryPolicy(max_retries=3)
        plan = FaultPlan(seed=4, drop_probability=0.3)
        _, stats = gossip_run(rectangle_network, plan=plan, policy=policy)
        assert 0 < stats.retries <= policy.max_retries * stats.broadcasts

    def test_zero_budget_keeps_dedup_but_never_retransmits(self):
        net = chain(6)
        plan = FaultPlan(seed=8, drop_probability=0.3)
        _, stats = gossip_run(net, k=5, plan=plan, policy=RetryPolicy(max_retries=0))
        assert stats.retries == 0

    def test_ack_loss_causes_redundant_deliveries(self, rectangle_network):
        # A delivered frame whose ack is lost gets retransmitted; the
        # receiver suppresses the duplicate and counts it.
        plan = FaultPlan(seed=6, drop_probability=0.3)
        _, stats = gossip_run(
            rectangle_network, plan=plan, policy=RetryPolicy(max_retries=3)
        )
        assert stats.acks_dropped > 0
        assert stats.redundant_deliveries > 0


class TestCrashes:
    def test_permanent_crash_quiesces(self):
        net = chain(5)
        plan = FaultPlan(crashes={2: CrashWindow(start=0)})
        known, stats = gossip_run(net, k=4, plan=plan)
        # The dead middle node partitions the chain: information never
        # crosses it, and the run still terminates.
        assert 4 not in known[0]
        assert 0 not in known[4]
        assert stats.rounds < 50

    def test_crash_recovery_resumes_with_state(self):
        net = chain(5)
        plan = FaultPlan(crashes={2: CrashWindow(start=1, end=3)})
        # The gossip wave is event-driven, so frames that arrived while the
        # node was down are gone without ARQ; with retries outlasting the
        # outage, the recovered node catches up and the exchange completes.
        known, _ = gossip_run(net, k=8, plan=plan, policy=RetryPolicy(max_retries=4))
        assert all(k == frozenset(range(5)) for k in known)

    def test_crashed_node_does_not_transmit_or_receive(self):
        # Hub 0 (three leaves) is the elected site; relay 1 is down from
        # round k + l + local_max_hops + 1, when the site wave arrives.
        net = linked(6, [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5)])
        plan = FaultPlan(crashes={1: CrashWindow(start=5)})
        sched = SynchronousScheduler(
            net, skeleton_protocols(SkeletonParams(k=1, l=1, local_max_hops=2)),
            fault_plan=plan,
        )
        stats = sched.run()
        assert [p.node_id for p in sched.protocols if p.is_critical] == [0]
        assert sched.protocols[1].site_records == {}
        # The wave cannot route around the dead relay on a chain.
        assert sched.protocols[2].site_records == {}
        assert stats.broadcasts_per_node[1] == 4  # its gossip, no site wave

    def test_distributed_run_with_crash_quiesces(self, rectangle_network):
        plan = FaultPlan(crashes={0: CrashWindow(start=0)})
        outcome = run_distributed_stages(rectangle_network, fault_plan=plan)
        assert outcome.stats.rounds < rectangle_network.num_nodes

    def test_all_nodes_crashed_yields_empty_outcome(self):
        net = chain(4)
        plan = FaultPlan(crashes={v: CrashWindow(start=0) for v in range(4)})
        outcome = run_distributed_stages(net, SkeletonParams(k=1, l=1), fault_plan=plan)
        assert outcome.critical_nodes == []
        assert outcome.stats.broadcasts == 0


class TestFlaps:
    def test_flapping_links_drop_whole_round(self):
        net = chain(8)
        plan = FaultPlan(seed=13, flap_probability=0.4)
        bare, stats = gossip_run(net, k=14, plan=plan)
        assert stats.drops > 0
        recovered, _ = gossip_run(
            net, k=14, plan=plan, policy=RetryPolicy(max_retries=6)
        )
        assert all(k == frozenset(range(8)) for k in recovered)


class TestVoronoiCorrectionUnderLoss:
    """A late shorter path to the site must upgrade the stale record of the
    node it reaches, on either lossy fabric."""

    # Site 0 (the hub: leaves 6-8) reaches node 3 two ways: the 3-hop chain
    # 0-1-2-3 and the 2-hop shortcut 0-4-3.  Node 5 hangs off 3.
    NETWORK = linked(9, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5),
                         (0, 6), (0, 7), (0, 8)])
    PARAMS = SkeletonParams(k=1, l=1, local_max_hops=2)

    def _run(self, scheduler, plan=None):
        # The shortcut relay 4 sleeps through the site wave's arrival, so
        # node 3 (and its descendant 5) join via the long chain; then 4
        # recovers, the retried site frame reaches it, and its shorter
        # wave arrives late at node 3.
        tracer = Tracer()
        sched = scheduler(
            self.NETWORK, skeleton_protocols(self.PARAMS), fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=8), tracer=tracer,
        )
        stats = sched.run()
        assert [p.node_id for p in sched.protocols if p.is_critical] == [0]
        # The paper's ≤ 1 algorithmic site broadcast holds throughout.
        assert max(tracer.query().sends_by_node(phase="site").values()) == 1
        return [p.site_records[0][0] for p in sched.protocols], stats

    def test_late_shorter_path_corrects_descendants(self):
        plan = FaultPlan(crashes={4: CrashWindow(start=10, end=12)})
        dist, stats = self._run(AsyncScheduler, plan)
        assert stats.corrections > 0
        # Records converged to true hop distances despite the stale start.
        assert (dist[3], dist[4], dist[5]) == (2, 1, 3)

    def test_sync_fabric_corrects_descendants(self):
        # The synchronous runtime gives the protocol the same correction
        # budget as the event-driven one: node 3 upgrades its record and
        # re-forwards it, so descendant 5 drops its stale distance 4.
        plan = FaultPlan(crashes={4: CrashWindow(start=5, end=7)})
        dist, stats = self._run(SynchronousScheduler, plan)
        assert stats.corrections > 0
        assert stats.corrections_suppressed == 0
        assert (dist[3], dist[4], dist[5]) == (2, 1, 3)

    def test_no_corrections_without_faults(self):
        for scheduler in (SynchronousScheduler, AsyncScheduler):
            dist, stats = self._run(scheduler)
            assert (stats.corrections, stats.corrections_suppressed) == (0, 0)
            assert (dist[3], dist[4], dist[5]) == (2, 1, 3)
