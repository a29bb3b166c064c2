"""Tests for critical skeleton node identification (Definitions 2–5)."""

import pytest

from repro.core import (
    SkeletonParams,
    compute_indices,
    find_critical_nodes,
)
from repro.core.neighborhood import IndexData
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.reference import is_locally_maximal


def path_network(n=7):
    positions = [Point(float(i), 0.0) for i in range(n)]
    return build_network(positions, radio=UnitDiskRadio(1.1))


class TestLocalMaximality:
    def test_peak_is_maximal(self):
        net = path_network(5)
        values = [1.0, 2.0, 5.0, 2.0, 1.0]
        assert is_locally_maximal(net, 2, values, hops=1)
        assert not is_locally_maximal(net, 1, values, hops=1)

    def test_tie_broken_by_id(self):
        net = path_network(3)
        values = [3.0, 3.0, 1.0]
        # Node 1 wins the tie against node 0 lexicographically.
        assert is_locally_maximal(net, 1, values, hops=1)
        assert not is_locally_maximal(net, 0, values, hops=1)

    def test_larger_hops_suppresses_smaller_peaks(self):
        net = path_network(7)
        values = [0, 5, 0, 0, 0, 6, 0]
        assert is_locally_maximal(net, 1, values, hops=1)
        assert is_locally_maximal(net, 5, values, hops=1)
        # Over 4 hops, node 1 sees node 5's higher value.
        assert not is_locally_maximal(net, 1, values, hops=4)
        assert is_locally_maximal(net, 5, values, hops=4)


class TestFindCriticalNodes:
    def test_at_least_one_critical_node(self, rectangle_network):
        critical = find_critical_nodes(rectangle_network)
        assert len(critical) >= 1

    def test_global_maximum_is_always_critical(self, rectangle_network):
        data = compute_indices(rectangle_network)
        critical = find_critical_nodes(rectangle_network, data)
        best = max(rectangle_network.nodes(), key=lambda v: (data.index[v], v))
        assert best in critical

    def test_plateau_elects_exactly_one(self):
        net = path_network(4)
        data = IndexData(
            khop_sizes=[1] * 4, centrality=[1.0] * 4, index=[1.0] * 4
        )
        params = SkeletonParams(local_max_hops=4)
        critical = find_critical_nodes(net, data, params)
        assert critical == [3]  # highest id on a full plateau

    def test_no_two_adjacent_criticals_with_distinct_indices(self, rectangle_network):
        data = compute_indices(rectangle_network)
        critical = set(find_critical_nodes(rectangle_network, data))
        for u in critical:
            for v in rectangle_network.neighbors(u):
                assert v not in critical

    def test_larger_locality_means_fewer_criticals(self, rectangle_network):
        few = find_critical_nodes(
            rectangle_network, params=SkeletonParams(local_max_hops=3)
        )
        many = find_critical_nodes(
            rectangle_network, params=SkeletonParams(local_max_hops=1)
        )
        assert len(few) <= len(many)

    def test_criticals_are_medially_placed(self, rectangle_network):
        critical = find_critical_nodes(rectangle_network)
        field = rectangle_network.field
        clearances = [
            field.distance_to_boundary(rectangle_network.positions[v])
            for v in critical
        ]
        # On a 100 x 40 rectangle the skeleton clearance is up to 20;
        # critical nodes should average well away from the walls.
        assert sum(clearances) / len(clearances) > 8.0
