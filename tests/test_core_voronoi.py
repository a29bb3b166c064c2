"""Tests for Voronoi cell construction (§III-B, Theorem 4)."""

import pytest

from repro.core import SkeletonParams, build_voronoi, compute_indices, find_critical_nodes
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.reference import path_to_site


def path_network(n):
    positions = [Point(float(i), 0.0) for i in range(n)]
    return build_network(positions, radio=UnitDiskRadio(1.1))


@pytest.fixture(scope="module")
def rect_voronoi(rectangle_network):
    data = compute_indices(rectangle_network)
    critical = find_critical_nodes(rectangle_network, data)
    return build_voronoi(rectangle_network, critical)


class TestPathVoronoi:
    def test_two_sites_split_the_path(self):
        net = path_network(9)
        vor = build_voronoi(net, [0, 8])
        assert vor.cell_of[:4] == [0] * 4
        assert vor.cell_of[5:] == [8] * 4

    def test_middle_is_segment_node(self):
        net = path_network(9)
        vor = build_voronoi(net, [0, 8], SkeletonParams(alpha=1))
        assert 4 in vor.segment_nodes
        assert vor.sites_recorded_by(4) == [0, 8]

    def test_alpha_zero_narrows_segments(self):
        net = path_network(10)  # even split: no exactly-equidistant node
        vor0 = build_voronoi(net, [0, 9], SkeletonParams(alpha=0))
        vor1 = build_voronoi(net, [0, 9], SkeletonParams(alpha=1))
        assert len(vor0.segment_nodes) <= len(vor1.segment_nodes)

    def test_records_sorted_by_distance(self):
        net = path_network(9)
        vor = build_voronoi(net, [0, 8], SkeletonParams(alpha=2))
        for records in vor.records:
            distances = [d for _, d in records]
            assert distances == sorted(distances)

    def test_site_is_its_own_cell(self):
        net = path_network(9)
        vor = build_voronoi(net, [0, 8])
        assert vor.cell_of[0] == 0
        assert vor.cell_of[8] == 8

    def test_requires_at_least_one_site(self):
        with pytest.raises(ValueError):
            build_voronoi(path_network(3), [])

    def test_path_to_site_endpoints(self):
        net = path_network(9)
        vor = build_voronoi(net, [0, 8])
        path = path_to_site(vor, 4, 0)
        assert path[0] == 4 and path[-1] == 0
        assert len(path) == 5


class TestTheorem4:
    def test_cells_are_connected(self, rect_voronoi):
        assert rect_voronoi.cells_are_connected()

    def test_every_node_assigned(self, rect_voronoi):
        assert all(c >= 0 for c in rect_voronoi.cell_of)

    def test_cells_partition_network(self, rect_voronoi):
        total = sum(
            len(rect_voronoi.cell_members(site)) for site in rect_voronoi.sites
        )
        assert total == rect_voronoi.network.num_nodes


class TestAdjacency:
    def test_voronoi_nodes_are_segment_nodes(self, rect_voronoi):
        assert rect_voronoi.voronoi_nodes <= rect_voronoi.segment_nodes

    def test_pair_segments_record_both_sites(self, rect_voronoi):
        for (a, b), nodes in rect_voronoi.pair_segments.items():
            for v in nodes:
                recorded = rect_voronoi.sites_recorded_by(v)
                assert a in recorded and b in recorded

    def test_border_edges_cross_cells(self, rect_voronoi):
        for (a, b), border in rect_voronoi.pair_border_edges.items():
            for u, v in border:
                assert rect_voronoi.cell_of[u] == a
                assert rect_voronoi.cell_of[v] == b

    def test_adjacent_pairs_cover_segment_pairs(self, rect_voronoi):
        assert set(rect_voronoi.pair_segments) <= set(rect_voronoi.adjacent_pairs())

    def test_adjacency_graph_connected(self, rect_voronoi):
        # The cell adjacency graph of a connected network must be connected.
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(rect_voronoi.sites)
        g.add_edges_from(rect_voronoi.adjacent_pairs())
        assert nx.is_connected(g)
