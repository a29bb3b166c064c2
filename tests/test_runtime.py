"""Tests for the synchronous runtime, driven by the distributed pipeline's
own per-node program (:class:`SkeletonNodeProtocol`) phase by phase."""

import pytest

from repro.core import SkeletonParams, compute_khop_sizes
from repro.observability import Tracer
from repro.runtime import NodeProtocol, SynchronousScheduler
from tests.conftest import PingOnce, chain, linked, skeleton_protocols

# Two hubs (0 and 8, three leaves each) joined by the path 0-1-...-8: with
# k = l = 1 the hubs are the only elected sites, and node 4 is equidistant.
DUMBBELL = linked(15, [(i, i + 1) for i in range(8)]
                  + [(0, 9), (0, 10), (0, 11), (8, 12), (8, 13), (8, 14)])


def run_skeleton(network, params, tracer=None):
    sched = SynchronousScheduler(network, skeleton_protocols(params),
                                 tracer=tracer)
    return sched, sched.run()


class TestScheduler:
    def test_single_round_delivery(self):
        net = chain(3)
        sched = SynchronousScheduler(net, PingOnce)
        stats = sched.run()
        assert stats.rounds == 1
        assert stats.broadcasts == 3
        # middle node hears both ends; ends hear the middle.
        assert [p.received for p in sched.protocols] == [1, 2, 1]

    def test_receptions_counted_per_link(self):
        net = chain(3)
        stats = SynchronousScheduler(net, PingOnce).run()
        assert stats.receptions == 4  # degree sum

    def test_quiet_network_stops_immediately(self):
        net = chain(3)
        sched = SynchronousScheduler(net, NodeProtocol)
        stats = sched.run()
        assert stats.rounds == 0

    def test_runaway_protocol_raises(self):
        class Chatter(NodeProtocol):
            def on_start(self, api):
                api.broadcast("x")

            def on_message(self, message, api):
                api.broadcast("x")

        net = chain(2)
        with pytest.raises(RuntimeError, match="quiesce"):
            SynchronousScheduler(net, Chatter).run(max_rounds=20)


class TestNeighborhoodGossip:
    """Phase 1: k rounds of aggregated k-hop neighbourhood gossip."""

    def test_matches_centralized_khop(self, rectangle_network):
        sched, _ = run_skeleton(rectangle_network, SkeletonParams(k=3))
        distributed = [len(p.known) for p in sched.protocols]
        assert distributed == compute_khop_sizes(rectangle_network, 3)

    def test_message_bound_is_k_per_node(self, rectangle_network):
        tracer = Tracer()
        run_skeleton(rectangle_network, SkeletonParams(k=3), tracer)
        per_node = tracer.query().sends_by_node(phase="nbr")
        assert max(per_node.values()) <= 3
        assert sum(per_node.values()) <= 3 * rectangle_network.num_nodes

    def test_exactly_k_rounds(self, rectangle_network):
        tracer = Tracer()
        run_skeleton(rectangle_network, SkeletonParams(k=4), tracer)
        rounds = {e.time for e in tracer.query().of_kind("send")
                  if e.phase == "nbr"}
        assert len(rounds) == 4 and max(rounds) - min(rounds) == 3


class TestValueGossip:
    """Phase 2: each node's k-hop size spreads l hops."""

    def test_values_spread_l_hops(self):
        sched, _ = run_skeleton(chain(7), SkeletonParams(k=1, l=2))
        middle = sched.protocols[3]
        assert set(middle.sizes) == {1, 2, 3, 4, 5}
        assert middle.sizes[1] == 3

    def test_lazy_value(self):
        # A node's value exists only once phase 1 has computed it, so no
        # size announcement goes out before the last gossip round.
        tracer = Tracer()
        sched, _ = run_skeleton(chain(3), SkeletonParams(k=2, l=1), tracer)
        sends = tracer.query().of_kind("send")
        assert min(e.time for e in sends if e.phase == "size") \
            > max(e.time for e in sends if e.phase == "nbr")
        assert sched.protocols[1].sizes == {0: 3, 1: 3, 2: 3}


class TestVoronoiFlood:
    """Phase 4: concurrent site flooding from the elected sites."""

    def _flood(self):
        sched, _ = run_skeleton(DUMBBELL, SkeletonParams(k=1, l=1))
        assert [p.node_id for p in sched.protocols if p.is_critical] == [0, 8]
        return sched.protocols

    def test_nearest_site_wins(self):
        # Node 2 is 2 hops from hub 0 and 6 from hub 8.
        assert self._flood()[2].site_records == {0: (2, 1)}

    def test_middle_node_records_both_sites(self):
        assert self._flood()[4].site_records == {0: (4, 3), 8: (4, 5)}

    def test_message_bound_one_per_node(self, rectangle_network):
        tracer = Tracer()
        run_skeleton(rectangle_network, SkeletonParams(), tracer)
        per_node = tracer.query().sends_by_node(phase="site")
        assert max(per_node.values()) <= 1

    def test_parent_pointers_lead_to_site(self, rectangle_network):
        sched, _ = run_skeleton(rectangle_network, SkeletonParams())
        protocols = sched.protocols
        for p in protocols:
            for site, (dist, _) in p.site_records.items():
                node = p.node_id
                for _ in range(dist):
                    node = protocols[node].site_records[site][1]
                assert node == site
