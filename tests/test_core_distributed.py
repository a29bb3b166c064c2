"""Distributed-vs-centralized equivalence and Theorem 5 message bounds."""

import pytest

from repro.core import (
    SkeletonParams,
    build_voronoi,
    compute_indices,
    extract_skeleton_distributed,
    find_critical_nodes,
    run_distributed_stages,
)
from repro.runtime import AsyncProfile, LatencyModel
from tests.conftest import chain


@pytest.fixture(scope="module")
def distributed(rectangle_network):
    return run_distributed_stages(rectangle_network, SkeletonParams())


@pytest.fixture(scope="module")
def centralized(rectangle_network):
    params = SkeletonParams()
    data = compute_indices(rectangle_network, params)
    critical = find_critical_nodes(rectangle_network, data, params)
    voronoi = build_voronoi(rectangle_network, critical, params)
    return data, critical, voronoi


class TestEquivalence:
    def test_khop_sizes_match(self, distributed, centralized):
        data, _, _ = centralized
        assert distributed.khop_sizes == data.khop_sizes

    def test_centrality_matches(self, distributed, centralized):
        data, _, _ = centralized
        for d, c in zip(distributed.centrality, data.centrality):
            assert d == pytest.approx(c)

    def test_indices_match(self, distributed, centralized):
        data, _, _ = centralized
        for d, c in zip(distributed.index, data.index):
            assert d == pytest.approx(c)

    def test_critical_nodes_match(self, distributed, centralized):
        _, critical, _ = centralized
        assert distributed.critical_nodes == critical

    def test_cell_assignment_matches(self, distributed, centralized):
        # Synchronous waves arrive in distance order, so each node's
        # nearest recorded site is its centralized cell (ties may differ
        # only between equidistant sites).
        _, _, voronoi = centralized
        agree = 0
        for v in distributed.network.nodes():
            cell = distributed.cell_of(v)
            if cell == voronoi.cell_of[v]:
                agree += 1
            else:
                # Must still be an equidistant site.
                recorded = dict(voronoi.records[v])
                assert cell in recorded
                best = min(recorded.values())
                assert recorded[cell] == best
                agree += 1
        assert agree == distributed.network.num_nodes

    def test_segment_nodes_subset_of_centralized(self, distributed, centralized):
        # The distributed flood stops waves at segment nodes, so its record
        # sets are a subset of the exact centralized ones.
        _, _, voronoi = centralized
        assert distributed.segment_nodes <= voronoi.segment_nodes


class TestTheorem5Bounds:
    def test_message_bound(self, distributed, centralized):
        params = distributed.params
        n = distributed.network.num_nodes
        bound = (params.k + params.l + params.local_max_hops + 1) * n
        assert distributed.stats.broadcasts <= bound

    def test_per_node_bound(self, distributed):
        params = distributed.params
        assert distributed.stats.max_node_broadcasts <= (
            params.k + params.l + params.local_max_hops + 1
        )

    def test_rounds_scale_sublinearly(self, rectangle_network):
        # Rounds = k + l + h + O(network radius), far below n.
        outcome = run_distributed_stages(rectangle_network)
        assert outcome.stats.rounds < rectangle_network.num_nodes / 4

    def test_message_growth_is_linear(self):
        from tests.conftest import build_test_network

        sizes = []
        for n in (200, 400):
            network = build_test_network("rectangle", n, 6.0, seed=9)
            outcome = run_distributed_stages(network)
            sizes.append((network.num_nodes, outcome.stats.broadcasts))
        (n1, m1), (n2, m2) = sizes
        # Messages per node stay flat as n doubles.
        assert m2 / n2 == pytest.approx(m1 / n1, rel=0.1)


@pytest.mark.parametrize("name,value", [
    ("latency", LatencyModel.fixed()),
    ("async_profile", AsyncProfile()),
    ("deadline", 10.0),
], ids=["latency", "async_profile", "deadline"])
def test_sync_scheduler_rejects_async_only_arguments(name, value):
    # Silently ignoring them would report an untuned run as a tuned one.
    with pytest.raises(ValueError, match=f"^{name} only apply to "
                                         f"scheduler='async'$"):
        extract_skeleton_distributed(chain(3), **{name: value})
