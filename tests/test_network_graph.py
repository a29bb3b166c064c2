"""Unit tests for SensorNetwork and build_network."""

import pickle
import random

import numpy as np
import pytest

from repro.geometry import Field, Point, make_field
from repro.geometry.shapes import rectangle_ring
from repro.network import UnitDiskRadio, build_network, line_of_sight_blocked
from repro.network.graph import SensorNetwork
from repro.network.traversal import UNREACHED
from repro.reference import ReferenceEngine, path_to_source


def chain(n):
    """A simple path network 0-1-2-...-n-1 at unit spacing."""
    positions = [Point(float(i), 0.0) for i in range(n)]
    return build_network(positions, radio=UnitDiskRadio(1.1))


class TestConstruction:
    def test_adjacency_is_symmetric(self, rectangle_network):
        for u in rectangle_network.nodes():
            for v in rectangle_network.neighbors(u):
                assert u in rectangle_network.neighbors(v)

    def test_no_self_loops(self, rectangle_network):
        for u in rectangle_network.nodes():
            assert u not in rectangle_network.neighbors(u)

    def test_udg_links_within_range_only(self):
        positions = [Point(0, 0), Point(3, 0), Point(7, 0)]
        net = build_network(positions, radio=UnitDiskRadio(4.0))
        assert net.has_edge(0, 1)
        assert net.has_edge(1, 2)
        assert not net.has_edge(0, 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork([Point(0, 0)], [[0], [0]])

    def test_neighbor_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork([Point(0, 0)], [[5]])

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork([Point(0, 0), Point(1, 0)], [[0], [0]])

    def test_average_degree(self):
        net = chain(3)
        assert net.average_degree == pytest.approx(4 / 3)

    def test_empty_network(self):
        net = build_network([], radio=UnitDiskRadio(1.0))
        assert net.num_nodes == 0
        assert net.is_connected()


class TestLineOfSight:
    def test_wall_blocks_links(self):
        # Two nodes on either side of a hole wall.
        field = Field(
            outer=rectangle_ring(0, 0, 10, 10),
            holes=[rectangle_ring(4, 0.5, 6, 9.5)],
        )
        positions = [Point(3.5, 5), Point(6.5, 5)]
        net = build_network(positions, radio=UnitDiskRadio(5.0), field=field)
        assert not net.has_edge(0, 1)

    def test_clear_path_keeps_links(self):
        field = Field(outer=rectangle_ring(0, 0, 10, 10))
        positions = [Point(3.5, 5), Point(6.5, 5)]
        net = build_network(positions, radio=UnitDiskRadio(5.0), field=field)
        assert net.has_edge(0, 1)

    def test_los_can_be_disabled(self):
        field = Field(
            outer=rectangle_ring(0, 0, 10, 10),
            holes=[rectangle_ring(4, 0.5, 6, 9.5)],
        )
        positions = [Point(3.5, 5), Point(6.5, 5)]
        net = build_network(positions, radio=UnitDiskRadio(5.0), field=field,
                            respect_line_of_sight=False)
        assert net.has_edge(0, 1)

    def test_helper_function(self):
        field = Field(
            outer=rectangle_ring(0, 0, 10, 10),
            holes=[rectangle_ring(4, 4, 6, 6)],
        )
        assert line_of_sight_blocked(field, Point(3, 5), Point(7, 5))
        assert not line_of_sight_blocked(field, Point(1, 1), Point(2, 1))


class TestTraversal:
    def test_bfs_distances_on_chain(self):
        net = chain(5)
        dist = net.bfs_distances(0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_max_hops(self):
        net = chain(5)
        dist = net.bfs_distances(0, max_hops=2)
        assert set(dist) == {0, 1, 2}

    def test_bfs_blocked_nodes(self):
        net = chain(5)
        dist = net.bfs_distances(0, blocked={2})
        assert set(dist) == {0, 1}

    def test_khop_sizes_chain(self):
        oracle = ReferenceEngine(chain(5))
        assert oracle.all_khop_sizes(1).tolist() == [2, 3, 3, 3, 2]
        assert oracle.all_khop_sizes(1, include_self=False).tolist() == \
            [1, 2, 2, 2, 1]

    def test_khop_rejects_zero(self):
        with pytest.raises(ValueError):
            ReferenceEngine(chain(3)).all_khop_sizes(0)

    def test_bfs_matches_networkx(self, rectangle_network):
        import networkx as nx

        g = rectangle_network.to_networkx()
        expected = nx.single_source_shortest_path_length(g, 0)
        assert rectangle_network.bfs_distances(0) == dict(expected)

    def test_multi_source_distances_and_paths(self):
        net = chain(6)
        dist, parent = ReferenceEngine(net).multi_source_distances([0, 5])
        assert dist[0, 3] == 3
        assert dist[1, 3] == 2
        path = path_to_source(parent[0], 3)
        assert path == [3, 2, 1, 0]

    def test_multi_source_unreached(self):
        positions = [Point(0, 0), Point(100, 100)]
        net = build_network(positions, radio=UnitDiskRadio(1.0))
        dist, _ = ReferenceEngine(net).multi_source_distances([0])
        assert dist[0, 1] == UNREACHED


class TestPickle:
    def test_round_trip_keeps_lists_types_and_hash(self):
        rng = random.Random(4)
        positions = [Point(rng.uniform(0, 20), rng.uniform(0, 20))
                     for _ in range(150)] + [Point(100.0, 100.0)]
        net = build_network(positions, radio=UnitDiskRadio(3.0))
        clone = pickle.loads(pickle.dumps(net))  # no content hash cached yet
        assert clone.positions == net.positions
        assert clone.adjacency == net.adjacency
        assert clone.adjacency[-1] == []
        assert all(type(p.x) is float and type(p.y) is float
                   for p in clone.positions)
        assert all(type(v) is int for nbrs in clone.adjacency for v in nbrs)
        assert clone.content_hash() == net.content_hash()

    def test_empty_network_round_trips(self):
        clone = pickle.loads(pickle.dumps(SensorNetwork([], [])))
        assert clone.positions == [] and clone.adjacency == []


class TestComponents:
    def test_connected_chain(self):
        assert chain(4).is_connected()

    def test_disconnected_components(self):
        positions = [Point(0, 0), Point(1, 0), Point(50, 0), Point(51, 0), Point(52, 0)]
        net = build_network(positions, radio=UnitDiskRadio(1.5))
        comps = net.connected_components()
        assert [len(c) for c in comps] == [3, 2]

    def test_largest_component_subgraph(self):
        positions = [Point(0, 0), Point(1, 0), Point(50, 0), Point(51, 0), Point(52, 0)]
        net = build_network(positions, radio=UnitDiskRadio(1.5))
        largest = net.largest_component_subgraph()
        assert largest.num_nodes == 3
        assert largest.is_connected()

    def test_induced_subgraph_compacts_ids(self):
        net = chain(5)
        sub = net.induced_subgraph([1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)

    def test_to_networkx_preserves_structure(self, rectangle_network):
        g = rectangle_network.to_networkx()
        assert g.number_of_nodes() == rectangle_network.num_nodes
        assert g.number_of_edges() == rectangle_network.num_edges
