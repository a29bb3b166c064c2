"""Tests for coarse skeleton establishment (§III-C)."""

import pytest

from repro.core import (
    SkeletonParams,
    build_coarse_skeleton,
    build_voronoi,
    compute_indices,
    find_critical_nodes,
)
from repro.reference import use_reference_engine


@pytest.fixture(scope="module")
def coarse_setup(rectangle_network):
    params = SkeletonParams()
    data = compute_indices(rectangle_network, params)
    critical = find_critical_nodes(rectangle_network, data, params)
    voronoi = build_voronoi(rectangle_network, critical, params)
    coarse = build_coarse_skeleton(voronoi, data.index, params)
    return data, voronoi, coarse


class TestCoarseSkeleton:
    def test_contains_all_sites(self, coarse_setup):
        _, voronoi, coarse = coarse_setup
        assert set(voronoi.sites) <= coarse.nodes

    def test_is_connected(self, coarse_setup):
        _, _, coarse = coarse_setup
        assert coarse.is_connected()

    def test_every_adjacent_pair_connected(self, coarse_setup):
        _, voronoi, coarse = coarse_setup
        assert set(coarse.pair_paths) == set(voronoi.adjacent_pairs())

    def test_paths_are_network_walks(self, coarse_setup):
        _, _, coarse = coarse_setup
        net = coarse.network
        for path in coarse.pair_paths.values():
            for a, b in zip(path, path[1:]):
                assert net.has_edge(a, b), f"{a}-{b} not a network edge"

    def test_paths_run_between_their_sites(self, coarse_setup):
        _, _, coarse = coarse_setup
        for (a, b), path in coarse.pair_paths.items():
            assert path[0] == a and path[-1] == b

    def test_connector_has_max_index_among_pair_segments(self, coarse_setup):
        data, voronoi, coarse = coarse_setup
        for pair, connector in coarse.connectors.items():
            segments = voronoi.pair_segments.get(pair)
            if not segments:
                continue  # border-edge fallback pair
            best = max(segments, key=lambda v: (data.index[v], v))
            assert connector == best

    def test_edges_consistent_with_nodes(self, coarse_setup):
        _, _, coarse = coarse_setup
        for edge in coarse.edges:
            assert edge <= coarse.nodes

    def test_degree_and_neighbors(self, coarse_setup):
        _, _, coarse = coarse_setup
        some = next(iter(coarse.nodes))
        assert coarse.degree(some) == len(coarse.neighbors_in_skeleton(some))

    def test_cycle_rank_nonnegative(self, coarse_setup):
        _, _, coarse = coarse_setup
        assert coarse.cycle_rank() >= 0

    def test_to_networkx_roundtrip(self, coarse_setup):
        _, _, coarse = coarse_setup
        g = coarse.to_networkx()
        assert g.number_of_nodes() == len(coarse.nodes)
        assert g.number_of_edges() == len(coarse.edges)


class TestReferenceEngineBitIdentity:
    """Stages 1–3 on the batched kernels must reproduce the same stages run
    on the reference engine's per-node BFS and per-path walks exactly —
    same connectors, same pair paths, same edges."""

    @staticmethod
    def _coarse(network):
        data = compute_indices(network)
        voronoi = build_voronoi(network, find_critical_nodes(network, data))
        return build_coarse_skeleton(voronoi, data.index)

    @pytest.fixture(scope="class", params=["rectangle", "annulus"])
    def both_engines(self, request, rectangle_network, annulus_network):
        network = {"rectangle": rectangle_network,
                   "annulus": annulus_network}[request.param]
        with use_reference_engine():
            reference = self._coarse(network)
        return {"reference": reference, "kernel": self._coarse(network)}

    def test_nodes_edges_identical(self, both_engines):
        ref, kernel = both_engines["reference"], both_engines["kernel"]
        assert kernel.nodes == ref.nodes
        assert kernel.edges == ref.edges
        assert kernel.sites == ref.sites

    def test_connectors_and_paths_identical(self, both_engines):
        ref, kernel = both_engines["reference"], both_engines["kernel"]
        assert kernel.connectors == ref.connectors
        assert kernel.pair_paths == ref.pair_paths
