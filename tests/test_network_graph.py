"""Unit tests for SensorNetwork and build_network."""

import gc
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.equivalence import diff_results
from repro.core.pipeline import extract_skeleton
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

    @pytest.mark.parametrize("adjacency, message", [
        ([[1, 5, -1], [0], []], "neighbour -1 of node 0 out of range"),
        ([[1], [9, 1, 0], []], "node 1 lists itself as a neighbour"),
        ([[1], [0, 4], [7, 2]], "neighbour 4 of node 1 out of range"),
    ])
    def test_first_offence_is_reported(self, adjacency, message):
        # The error names the first offence in (node, sorted neighbour)
        # order, whatever the input order.
        positions = [Point(0, 0), Point(1, 0), Point(2, 0)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            SensorNetwork(positions, adjacency)

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

    def test_state_keys_and_dtypes(self):
        # The pickle layout is what disk caches hold (since CACHE_VERSION 3).
        net = chain(4)
        state = net.__getstate__()
        assert set(state) == {"positions", "indptr", "indices", "field",
                              "radio", "content_hash"}
        assert state["positions"].dtype == np.float64
        assert state["positions"].shape == (4, 2)
        assert state["indptr"].dtype == np.int64
        assert state["indptr"].tolist() == [0, 1, 3, 5, 6]
        assert state["indices"].dtype == np.int64
        assert state["indices"].tolist() == [1, 0, 2, 1, 3, 2]

    def test_constructed_and_unpickled_copies_agree(self, rectangle_network,
                                                    rectangle_result):
        net = rectangle_network
        built = SensorNetwork(net.positions, net.adjacency,
                              field=net.field, radio=net.radio)
        clone = pickle.loads(pickle.dumps(net))
        for copy in (built, clone):
            assert copy.content_hash() == net.content_hash()
            assert diff_results(rectangle_result,
                                extract_skeleton(copy)) == []

    def test_extraction_never_builds_list_views(self, rectangle_network):
        clone = pickle.loads(pickle.dumps(rectangle_network))
        extract_skeleton(clone)
        assert clone._positions is None
        assert clone._adjacency is None

    def test_extracted_network_is_freed_without_a_collection(
            self, rectangle_network):
        # Reference counting alone must free the network: nothing it owns
        # (its cached traversal engines included) may point back at it.
        clone = pickle.loads(pickle.dumps(rectangle_network))
        gc.disable()
        try:
            result = extract_skeleton(clone)
            alive = weakref.ref(clone)
            del clone, result
            assert alive() is None
        finally:
            gc.enable()


class TestContentHash:
    # Pinned digests: on-disk cache entries are keyed by content_hash(),
    # so any change to it silently orphans every stored artifact.
    def test_golden_digest(self):
        rng = random.Random(23)
        positions = [Point(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(60)] + [Point(50.0, 50.0)]
        net = build_network(positions, radio=UnitDiskRadio(2.5))
        assert (net.num_nodes, net.num_edges) == (61, 281)
        assert net.content_hash() == (
            "c3456f5b568873b3e50a87b8d613f339b31e904a80f4604787f43fbb727f65b6")

    def test_golden_digest_empty(self):
        assert SensorNetwork([], []).content_hash() == (
            "311ff504b00096eabfb0f9064440cb71af281b48f345c6ebbe6dce73f19e213a")

    def test_neighbour_order_and_duplicates_do_not_matter(self):
        positions = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)]
        tidy = SensorNetwork(positions, [[1, 2], [0], [0]])
        messy = SensorNetwork(positions, [[2, 1, 2], [0, 0], [0]])
        assert messy.adjacency == tidy.adjacency == [[1, 2], [0], [0]]
        assert messy.content_hash() == tidy.content_hash()


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


@st.composite
def graphs_and_keeps(draw):
    """A random graph (often disconnected), the unsorted neighbour lists
    with repeats it was built from, and an unsorted ``keep`` list with
    repeats, possibly empty."""
    n = draw(st.integers(0, 25))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))),
                          max_size=3 * n))
    adjacency = [[] for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adjacency[u].append(v)
            adjacency[v].append(u)
    positions = [Point(float(i), float(i % 3)) for i in range(n)]
    keep = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return SensorNetwork(positions, adjacency), adjacency, keep


class TestArrayStoreProperties:
    @given(graphs_and_keeps())
    def test_construction_and_induced_subgraph_match_lists(self, case):
        net, raw_adjacency, keep = case
        assert net.adjacency == [sorted(set(nbrs)) for nbrs in raw_adjacency]
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        expected = SensorNetwork(
            [net.positions[old] for old in keep_sorted],
            [[remap[v] for v in net.adjacency[old] if v in remap]
             for old in keep_sorted])
        sub = net.induced_subgraph(keep)
        assert sub.positions == expected.positions
        assert sub.adjacency == expected.adjacency
        assert sub.num_edges == expected.num_edges
        assert sub.content_hash() == expected.content_hash()

    @given(graphs_and_keeps())
    def test_components_match_bfs(self, case):
        net, _, _ = case
        seen, expected = set(), []
        for start in net.nodes():
            if start not in seen:
                component = sorted(net.bfs_distances(start))
                seen.update(component)
                expected.append(component)
        expected.sort(key=len, reverse=True)
        assert net.connected_components() == expected
        assert net.is_connected() == (len(expected) <= 1)
