"""Tests for the synchronous runtime and its flooding protocols."""

import pytest

from repro.core import compute_khop_sizes
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.runtime import (
    Message,
    NeighborhoodGossipProtocol,
    NodeProtocol,
    SynchronousScheduler,
    ValueGossipProtocol,
    VoronoiFloodProtocol,
)


def chain(n):
    positions = [Point(float(i), 0.0) for i in range(n)]
    return build_network(positions, radio=UnitDiskRadio(1.1))


class _PingOnce(NodeProtocol):
    """Broadcasts once at start; counts receptions."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = 0

    def on_start(self, api):
        api.broadcast("ping")

    def on_message(self, message, api):
        self.received += 1


class TestScheduler:
    def test_single_round_delivery(self):
        net = chain(3)
        sched = SynchronousScheduler(net, _PingOnce)
        stats = sched.run()
        assert stats.rounds == 1
        assert stats.broadcasts == 3
        # middle node hears both ends; ends hear the middle.
        assert [p.received for p in sched.protocols] == [1, 2, 1]

    def test_receptions_counted_per_link(self):
        net = chain(3)
        stats = SynchronousScheduler(net, _PingOnce).run()
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

    def test_stats_merge(self):
        net = chain(3)
        s1 = SynchronousScheduler(net, _PingOnce).run()
        s2 = SynchronousScheduler(net, _PingOnce).run()
        merged = s1.merged_with(s2)
        assert merged.broadcasts == s1.broadcasts + s2.broadcasts
        assert merged.rounds == s1.rounds + s2.rounds


class TestNeighborhoodGossip:
    def test_matches_centralized_khop(self, rectangle_network):
        k = 3
        sched = SynchronousScheduler(
            rectangle_network, lambda v: NeighborhoodGossipProtocol(v, k=k)
        )
        sched.run()
        distributed = [p.neighborhood_size for p in sched.protocols]
        assert distributed == compute_khop_sizes(rectangle_network, k)

    def test_message_bound_is_k_per_node(self, rectangle_network):
        k = 3
        stats = SynchronousScheduler(
            rectangle_network, lambda v: NeighborhoodGossipProtocol(v, k=k)
        ).run()
        assert stats.broadcasts <= k * rectangle_network.num_nodes
        assert stats.max_node_broadcasts <= k

    def test_exactly_k_rounds(self, rectangle_network):
        k = 4
        stats = SynchronousScheduler(
            rectangle_network, lambda v: NeighborhoodGossipProtocol(v, k=k)
        ).run()
        assert stats.rounds == k

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            NeighborhoodGossipProtocol(0, k=0)


class TestValueGossip:
    def test_values_spread_l_hops(self):
        net = chain(7)
        l = 2
        sched = SynchronousScheduler(
            net, lambda v: ValueGossipProtocol(v, l=l, value=v * 10)
        )
        sched.run()
        middle = sched.protocols[3]
        assert set(middle.values) == {1, 2, 3, 4, 5}
        assert middle.values[1] == 10

    def test_lazy_value(self):
        net = chain(3)
        protocols = {}

        def factory(v):
            protocols[v] = ValueGossipProtocol(v, l=1)
            return protocols[v]

        sched = SynchronousScheduler(net, factory)
        for v, p in protocols.items():
            p.set_value(v)
        sched.run()
        assert protocols[1].values == {0: 0, 1: 1, 2: 2}

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            ValueGossipProtocol(0, l=0)


class TestVoronoiFlood:
    def test_nearest_site_wins(self):
        net = chain(7)
        sites = {0, 6}
        sched = SynchronousScheduler(
            net, lambda v: VoronoiFloodProtocol(v, is_site=v in sites, alpha=1)
        )
        sched.run()
        # Node 2 is at distance 2 from site 0 and 4 from site 6.
        records = sched.protocols[2].recorded_sites
        assert 0 in records
        assert records[0][0] == 2

    def test_middle_node_records_both_sites(self):
        net = chain(7)
        sites = {0, 6}
        sched = SynchronousScheduler(
            net, lambda v: VoronoiFloodProtocol(v, is_site=v in sites, alpha=1)
        )
        sched.run()
        assert len(sched.protocols[3].recorded_sites) == 2

    def test_message_bound_one_per_node(self, rectangle_network):
        sites = {0, 50, 100}
        stats = SynchronousScheduler(
            rectangle_network,
            lambda v: VoronoiFloodProtocol(v, is_site=v in sites, alpha=1),
        ).run()
        assert stats.broadcasts <= rectangle_network.num_nodes
        assert stats.max_node_broadcasts <= 1

    def test_parent_pointers_lead_to_site(self):
        net = chain(5)
        sched = SynchronousScheduler(
            net, lambda v: VoronoiFloodProtocol(v, is_site=v == 0, alpha=1)
        )
        sched.run()
        node = 4
        hops = 0
        while node != 0:
            _, parent = sched.protocols[node].recorded_sites[0]
            node = parent
            hops += 1
        assert hops == 4

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            VoronoiFloodProtocol(0, is_site=True, alpha=-1)


def test_message_payload_items():
    msg = Message(sender=0, kind="x", payload={"a": 1})
    assert msg.payload_items()["a"] == 1
    with pytest.raises(TypeError):
        Message(sender=0, kind="x", payload=[1]).payload_items()
