"""Message accounting under faults: Theorem 5 bounds survive recovery traffic.

The Theorem 5 quantities (per-node broadcast budgets of ≤ k, ≤ l and ≤ 1,
the (k + l + local_max_hops + 1)·n total, and the linear slope in n) are
*algorithmic* bounds — retransmissions are recovery traffic, accounted
separately in ``RunStats.retries``.  These tests pin that split: the
algorithmic counters respect the paper's bounds with and without a lossy
fabric, and total on-air frames stay within the retry-budget envelope.
"""

import pytest

from repro.core import SkeletonParams, run_distributed_stages
from repro.observability import Tracer
from repro.runtime import FaultPlan, RetryPolicy
from tests.conftest import build_test_network

FAULTY = FaultPlan(seed=23, drop_probability=0.15)
RETRIES = RetryPolicy(max_retries=3)

FABRICS = [
    pytest.param(None, None, id="fault-free"),
    pytest.param(FAULTY, None, id="lossy-bare"),
    pytest.param(FAULTY, RETRIES, id="lossy-arq"),
]


@pytest.mark.parametrize("plan,policy", FABRICS)
class TestPerNodeBudgets:
    """Each phase's per-node budget with non-default k, l and
    local_max_hops, read from the lean tracer's aggregates (no event log)."""

    PARAMS = SkeletonParams(k=3, l=4, local_max_hops=2)

    def _phase(self, network, plan, policy, phase):
        tracer = Tracer(record_events=False)
        run_distributed_stages(network, self.PARAMS, fault_plan=plan,
                               retry_policy=policy, tracer=tracer)
        return tracer.metrics().by_phase()[phase]

    def test_neighborhood_gossip_at_most_k(self, rectangle_network, plan, policy):
        nbr = self._phase(rectangle_network, plan, policy, "nbr")
        assert nbr.max_node_sends <= 3
        assert nbr.broadcasts <= 3 * rectangle_network.num_nodes

    def test_value_gossip_at_most_l(self, rectangle_network, plan, policy):
        size = self._phase(rectangle_network, plan, policy, "size")
        assert size.max_node_sends <= 4
        assert size.broadcasts <= 4 * rectangle_network.num_nodes

    def test_voronoi_flood_at_most_one(self, rectangle_network, plan, policy):
        site = self._phase(rectangle_network, plan, policy, "site")
        assert site.max_node_sends <= 1
        assert site.broadcasts <= rectangle_network.num_nodes


@pytest.mark.parametrize("plan,policy", FABRICS)
class TestPipelineBudget:
    def test_total_message_bound(self, rectangle_network, plan, policy):
        params = SkeletonParams()
        outcome = run_distributed_stages(
            rectangle_network, params, fault_plan=plan, retry_policy=policy,
        )
        per_node = params.k + params.l + params.local_max_hops + 1
        assert outcome.stats.broadcasts <= per_node * rectangle_network.num_nodes
        assert outcome.stats.max_node_broadcasts <= per_node

    def test_retry_envelope(self, rectangle_network, plan, policy):
        outcome = run_distributed_stages(
            rectangle_network, fault_plan=plan, retry_policy=policy,
        )
        stats = outcome.stats
        if policy is None:
            assert stats.retries == 0
        else:
            # Total on-air frames = broadcasts + retries, and each broadcast
            # retransmits at most max_retries times.
            assert stats.retries <= policy.max_retries * stats.broadcasts


@pytest.mark.parametrize("plan,policy", FABRICS)
class TestTraceDerivedBudgets:
    """Theorem 5 re-measured from the trace, not the aggregate counters.

    The tracer attributes every recorded transmission to a protocol phase
    and a sender, so the paper's per-node budgets can be asserted phase by
    phase — a strictly finer check than ``max_node_broadcasts``, which
    only sees the whole run.  Cross-validating the two accounting paths
    also pins their agreement under recovery traffic.
    """

    def test_per_phase_per_node_budgets(self, rectangle_network, plan, policy):
        params = SkeletonParams()
        tracer = Tracer()
        outcome = run_distributed_stages(
            rectangle_network, params, fault_plan=plan, retry_policy=policy,
            tracer=tracer,
        )
        query = tracer.query()
        budgets = {"nbr": params.k, "size": params.l,
                   "index": params.local_max_hops, "site": 1}
        for phase, budget in budgets.items():
            per_node = query.sends_by_node(phase=phase)
            assert per_node, phase
            assert max(per_node.values()) <= budget, phase
        # The trace's send events and the scheduler's aggregate counter
        # describe the same traffic.
        assert sum(query.messages_by_phase().values()) \
            == outcome.stats.broadcasts

    def test_phase_totals_bound(self, rectangle_network, plan, policy):
        params = SkeletonParams()
        tracer = Tracer(record_events=False)
        run_distributed_stages(
            rectangle_network, params, fault_plan=plan, retry_policy=policy,
            tracer=tracer,
        )
        n = rectangle_network.num_nodes
        by_phase = tracer.metrics().by_phase()
        assert by_phase["nbr"].broadcasts <= params.k * n
        assert by_phase["size"].broadcasts <= params.l * n
        assert by_phase["index"].broadcasts <= params.local_max_hops * n
        assert by_phase["site"].broadcasts <= n


class TestLinearSlope:
    @pytest.mark.parametrize("plan,policy", FABRICS)
    def test_messages_per_node_flat_as_n_doubles(self, plan, policy):
        ratios = []
        for n in (200, 400):
            network = build_test_network("rectangle", n, 6.0, seed=9)
            outcome = run_distributed_stages(
                network, fault_plan=plan, retry_policy=policy,
            )
            ratios.append(outcome.stats.broadcasts / network.num_nodes)
        # The algorithmic slope is O((k+l+1)·n): per-node broadcasts stay
        # flat as n doubles, faults or not.
        assert ratios[1] == pytest.approx(ratios[0], rel=0.1)

    def test_recovery_traffic_scales_with_drop_rate(self, rectangle_network):
        totals = []
        for rate in (0.05, 0.2):
            outcome = run_distributed_stages(
                rectangle_network,
                fault_plan=FaultPlan(seed=31, drop_probability=rate),
                retry_policy=RETRIES,
            )
            totals.append(outcome.stats.retries)
        assert totals[1] > totals[0] > 0
