"""The α-pruned Voronoi flood against the dense BFS oracle (hypothesis).

:meth:`TraversalEngine.voronoi_flood` records a ``(site, node)`` pair
only within ``alpha`` hops of the node's best distance and never forwards
a pruned wave.  Fuzzed over arbitrary graphs (isolated nodes and sites,
disconnected components), random UDG deployments that are not reduced to
their largest component, QUDG deployments, and ``alpha`` in ``0..3`` or
beyond the diameter (no pruning):

* the table equals the dense ``multi_source_distances`` ``dist`` /
  ``parent`` restricted to the recorded pairs;
* closure: every recorded ``(s, v)`` with ``v != s`` has its parent
  recorded for ``s`` too, so reverse paths never leave the table;
* every endpoint the coarse stage plans resolves to the dense BFS path;
* the one-pass reverse-path walk over many ``(row, node)`` pairs equals
  per-path parent-chain walks, and rejects an unrecorded endpoint.

Also covers the vectorised border scan and the O(n + E) Theorem 4 check
against their scalar definitions, and the distributed lift's table.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkeletonParams, run_distributed_stages
from repro.core.coarse import plan_connectors
from repro.core.distributed import voronoi_from_distributed
from repro.core.voronoi import border_edges_from_cells, build_voronoi
from repro.geometry import make_field
from repro.geometry.primitives import Point
from repro.network import (
    QuasiUnitDiskRadio,
    SensorNetwork,
    UnitDiskRadio,
    build_network,
)
from repro.network.deployment import uniform_deployment
from repro.network.traversal import UNREACHED
from repro.reference import (
    ReferenceEngine,
    path_to_site,
    path_to_source,
    use_reference_engine,
)
from repro.runtime import FaultPlan, RetryPolicy

#: Beyond the diameter of every graph drawn here (at most 120 nodes), so
#: nothing is pruned and each level's duplicate filter sees the whole BFS
#: frontier.
UNPRUNED = 200
alphas = st.one_of(st.integers(min_value=0, max_value=3), st.just(UNPRUNED))


@st.composite
def arbitrary_graphs(draw):
    """Any simple graph on up to 40 nodes, isolated nodes included."""
    n = draw(st.integers(min_value=1, max_value=40))
    adjacency = [set() for _ in range(n)]
    node = st.integers(min_value=0, max_value=n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return SensorNetwork([Point(float(i), 0.0) for i in range(n)], adjacency)


def deployment(seed, radio, n=120):
    """A random deployment, deliberately *not* reduced to its largest
    component."""
    field = make_field("rectangle")
    rng = random.Random(seed)
    positions = uniform_deployment(field, n, rng=rng)
    return build_network(positions, radio=radio, field=field, rng=rng)


@st.composite
def deployments(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    radio = draw(st.sampled_from([
        UnitDiskRadio(5.0), UnitDiskRadio(7.0),
        QuasiUnitDiskRadio(5.0, alpha=0.4, p=0.3),
    ]))
    return deployment(seed, radio)


networks = st.one_of(arbitrary_graphs(), deployments())


@st.composite
def flood_inputs(draw):
    network = draw(networks)
    n = network.num_nodes
    sites = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                                min_size=1, max_size=min(n, 12))))
    return network, sites, draw(alphas)


def check_against_dense(network, sites, alpha):
    table = network.traversal().voronoi_flood(sites, alpha)
    oracle = ReferenceEngine(network)
    dist, parent = oracle.multi_source_distances(sites)
    for got, want in zip(table, oracle.voronoi_flood(sites, alpha)):
        assert np.array_equal(got, want)
    # Restricted to the recorded pairs, the table *is* the dense flood.
    assert np.array_equal(table.dist, dist[table.site_row, table.node])
    assert np.array_equal(table.parent, parent[table.site_row, table.node])
    # Every node a site's wave reaches first is recorded.
    reached = dist != UNREACHED
    recorded = set(zip(table.site_row.tolist(), table.node.tolist()))
    for node in np.flatnonzero(reached.any(axis=0)):
        best = dist[reached[:, node], node].min()
        for row in np.flatnonzero(reached[:, node]):
            in_table = (int(row), int(node)) in recorded
            assert in_table == (dist[row, node] - best <= alpha)
    return table


def check_closure(table, sites):
    keys = set(zip(table.site_row.tolist(), table.node.tolist()))
    for row, node, par in zip(table.site_row.tolist(), table.node.tolist(),
                              table.parent.tolist()):
        if node == sites[row]:
            assert par == -1
        else:
            assert (row, par) in keys


class TestReversePathWalk:
    @given(flood_inputs(), st.data())
    @settings(deadline=None)
    def test_one_pass_walk_equals_per_path_walks(self, inputs, data):
        """One lockstep walk over drawn ``(row, node)`` requests, rows
        mixed and repeated, equals the reference engine's per-path
        parent-chain walks and the dense BFS paths; one endpoint that did
        not record its site makes both engines raise."""
        network, sites, alpha = inputs
        engine, oracle = network.traversal(), ReferenceEngine(network)
        table = engine.voronoi_flood(sites, alpha)
        pairs = list(zip(table.site_row.tolist(), table.node.tolist()))
        requests = data.draw(st.lists(st.sampled_from(pairs), max_size=60))
        rows, nodes = [r for r, _ in requests], [v for _, v in requests]
        paths = engine.reconstruct_paths(table, rows, nodes)
        assert paths == oracle.reconstruct_paths(table, rows, nodes)
        _, parent = oracle.multi_source_distances(sites)
        assert paths == [path_to_source(parent[r], v) for r, v in requests]
        recorded = set(pairs)
        unrecorded = [(r, v) for r in range(len(sites))
                      for v in range(network.num_nodes)
                      if (r, v) not in recorded]
        if unrecorded:
            requests.insert(data.draw(st.integers(0, len(requests))),
                            data.draw(st.sampled_from(unrecorded)))
            rows, nodes = [r for r, _ in requests], [v for _, v in requests]
            for walker in (engine, oracle):
                with pytest.raises(ValueError, match="not reached"):
                    walker.reconstruct_paths(table, rows, nodes)


class TestPrunedFlood:
    @given(flood_inputs())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_dense_flood_at_recorded_pairs(self, inputs):
        check_against_dense(*inputs)

    @given(flood_inputs())
    @settings(max_examples=40, deadline=None)
    def test_recorded_parents_are_recorded(self, inputs):
        network, sites, alpha = inputs
        check_closure(network.traversal().voronoi_flood(sites, alpha), sites)

    @given(deployments(), alphas)
    @settings(max_examples=25, deadline=None)
    def test_planned_coarse_endpoints_resolve(self, network, alpha):
        rng = random.Random(network.num_nodes)
        sites = sorted(rng.sample(range(network.num_nodes), 10))
        voronoi = build_voronoi(network, sites, SkeletonParams(alpha=alpha))
        _, parent = ReferenceEngine(network).multi_source_distances(
            voronoi.sites)
        index = [float(v % 7) for v in range(network.num_nodes)]
        _, plans = plan_connectors(voronoi.adjacent_pairs(),
                                   voronoi.pair_segments,
                                   voronoi.pair_border_edges, index)
        for _pair, (sa, na), (sb, nb), _joined in plans:
            for site, node in ((sa, na), (sb, nb)):
                row = voronoi.site_index(site)
                assert path_to_site(voronoi, node, site) == \
                    path_to_source(parent[row], node)

    def test_isolated_site_records_only_itself(self):
        network = SensorNetwork([Point(float(i), 0.0) for i in range(4)],
                                [[1], [0, 2], [1], []])
        table = network.traversal().voronoi_flood([0, 3], alpha=2)
        assert table.site_row.tolist() == [0, 0, 0, 1]
        assert table.node.tolist() == [0, 1, 2, 3]
        assert table.dist.tolist() == [0, 1, 2, 0]
        assert table.parent.tolist() == [-1, 0, 1, -1]

    def test_unrecorded_pair_raises(self):
        network = SensorNetwork([Point(float(i), 0.0) for i in range(9)],
                                [[v for v in (u - 1, u + 1) if 0 <= v < 9]
                                 for u in range(9)])
        voronoi = build_voronoi(network, [0, 8], SkeletonParams(alpha=0))
        # Node 1 is 1 hop from site 0 and 7 from site 8: pruned.
        with pytest.raises(ValueError, match="not reached"):
            path_to_site(voronoi, 1, 8)
        assert path_to_site(voronoi, 1, 0) == [1, 0]

    @given(flood_inputs())
    @settings(max_examples=25, deadline=None)
    def test_reference_engine_builds_the_same_voronoi(self, inputs):
        network, sites, alpha = inputs
        params = SkeletonParams(alpha=alpha)
        with use_reference_engine():
            ref = build_voronoi(network, sites, params)
        vec = build_voronoi(network, sites, params)
        for got, want in zip(vec.table, ref.table):
            assert np.array_equal(got, want)
        assert vec.records == ref.records
        assert vec.pair_border_edges == ref.pair_border_edges


def scalar_border_edges(network, cell_of):
    """The per-edge scan the vectorised border pass replaces."""
    out = {}
    for u in range(network.num_nodes):
        for v in network.neighbors(u):
            cu, cv = cell_of[u], cell_of[v]
            if v <= u or cu < 0 or cv < 0 or cu == cv:
                continue
            pair = (min(cu, cv), max(cu, cv))
            out.setdefault(pair, []).append((u, v) if cu == pair[0] else (v, u))
    return out


def scalar_cells_connected(voronoi):
    """Theorem 4 by one search per cell, the O(sites · n) definition."""
    for site in set(voronoi.cell_of) - {-1}:
        members = set(voronoi.cell_members(site))
        start = next(iter(members))
        seen, stack = {start}, [start]
        while stack:
            for v in voronoi.network.neighbors(stack.pop()):
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != members:
            return False
    return True


class TestCellScans:
    @given(arbitrary_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_border_scan_matches_scalar_scan(self, network, rng):
        cell_of = [rng.choice([-1, 0, 3, 5, 9])
                   for _ in range(network.num_nodes)]
        got = border_edges_from_cells(network, cell_of)
        want = scalar_border_edges(network, cell_of)
        assert list(got.items()) == list(want.items())

    @given(flood_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_cell_check_matches_per_cell_search(self, inputs, rng):
        network, sites, alpha = inputs
        voronoi = build_voronoi(network, sites, SkeletonParams(alpha=alpha))
        assert voronoi.cells_are_connected() == scalar_cells_connected(voronoi)
        # Random relabelling usually splits some cell.
        voronoi = dataclasses.replace(voronoi, cell=np.array(
            [rng.choice(sites + [-1]) for _ in range(network.num_nodes)],
            dtype=np.int64))
        assert voronoi.cells_are_connected() == scalar_cells_connected(voronoi)

    def test_site_index_rejects_non_sites(self):
        network = SensorNetwork([Point(0.0, 0.0), Point(1.0, 0.0)],
                                [[1], [0]])
        voronoi = build_voronoi(network, [1])
        assert voronoi.site_index(1) == 0
        with pytest.raises(ValueError):
            voronoi.site_index(0)


class TestDistributedTable:
    @pytest.mark.parametrize("drop", [0.0, 0.3])
    def test_table_keeps_every_recorded_entry(self, drop):
        network = deployment(4, UnitDiskRadio(6.0), n=100)
        network = network.largest_component_subgraph()
        outcome = run_distributed_stages(
            network, fault_plan=FaultPlan(seed=2, drop_probability=drop),
            retry_policy=RetryPolicy(max_retries=2),
            deadline_action="return_partial")
        voronoi = voronoi_from_distributed(outcome)
        rows = {site: row for row, site in enumerate(voronoi.sites)}
        expected = sorted(
            (rows[site], node, d, -1 if par is None else par)
            for node, recorded in enumerate(outcome.site_records)
            for site, (d, par) in recorded.items() if site in rows)
        assert list(zip(*(c.tolist() for c in voronoi.table))) == expected
