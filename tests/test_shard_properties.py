"""Property-based tests (hypothesis) for the tiling and merge invariants.

Three families, each one pillar of the exactness argument in DESIGN.md §12:

* **halo coverage** — for random fields and random grids, every owned
  node's full ``halo_hops``-hop graph ball lies inside its owner tile's
  member set (the geometric halo over-covers the graph ball);
* **ownership partition** — every node is owned by exactly one tile, no
  node is orphaned, and ``owner_of`` agrees with the per-tile lists;
* **merge order-invariance** — the stage-1 and flood merges are pure
  reductions: permuting shard result order never changes the output;
* **batch-table exactness** — every pair the monolithic flood records
  sits in its site's batch table with the same distance and parent, so
  stage 3 may walk the batch tables instead of flooding again.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkeletonParams
from repro.core.voronoi import build_voronoi, voronoi_from_entries
from repro.geometry import make_field
from repro.network import UnitDiskRadio, build_network
from repro.network.deployment import uniform_deployment
from repro.network.traversal import FloodTable
from repro.perf import ParallelRunner
from repro.shard import merge_flood_records, merge_stage1, plan_tiles
from repro.shard.plan import halo_hops_for
from repro.shard.tile import flood_batch_task, stage1_tile_task

import numpy as np


def _random_network(seed: int, n: int):
    rng = random.Random(seed)
    field = make_field("rectangle")
    positions = uniform_deployment(field, n, rng=rng)
    return build_network(positions, radio=UnitDiskRadio(6.0), field=field,
                         rng=rng)


def _ball(network, source: int, hops: int) -> set:
    """The ``hops``-hop graph ball around *source* (source included)."""
    seen = {source}
    frontier = {source}
    for _ in range(hops):
        frontier = {w for v in frontier
                    for w in network.adjacency[v]} - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def _stage1_configs(network, plan, params):
    """The per-tile stage-1 configs exactly as ``run_sharded`` builds them."""
    return [{"tile": flat, "params": params, "cache_dir": None,
             "members": np.asarray(tile.members, dtype=np.int64),
             "owned": np.asarray(tile.owned, dtype=np.int64)}
            for flat, tile in enumerate(plan.tiles) if tile.owned]


def _run_tasks(network, task, configs):
    """Run shard *task* over *configs* inline, with *network* installed
    as the task network the way ``run_sharded``'s runner installs it."""
    return ParallelRunner(1, network=network).map(task, configs)


grids = st.tuples(st.integers(min_value=1, max_value=4),
                  st.integers(min_value=1, max_value=4))
seeds = st.integers(min_value=0, max_value=2**16)
sizes = st.integers(min_value=30, max_value=110)


class TestHaloCoverage:
    @given(seed=seeds, n=sizes, grid=grids)
    @settings(max_examples=15, deadline=None)
    def test_khop_ball_of_every_owned_node_is_inside_owner_tile(
            self, seed, n, grid):
        network = _random_network(seed, n)
        params = SkeletonParams()
        plan = plan_tiles(network, grid, params)
        hops = halo_hops_for(params)
        for tile in plan.tiles:
            members = set(tile.members)
            for node in tile.owned:
                assert _ball(network, node, hops) <= members, (
                    f"halo of tile ({tile.tx},{tile.ty}) misses part of "
                    f"node {node}'s {hops}-hop ball"
                )


class TestOwnershipPartition:
    @given(seed=seeds, n=sizes, grid=grids)
    @settings(max_examples=20, deadline=None)
    def test_every_node_owned_exactly_once(self, seed, n, grid):
        network = _random_network(seed, n)
        plan = plan_tiles(network, grid)
        owned_lists = [tile.owned for tile in plan.tiles]
        all_owned = [v for owned in owned_lists for v in owned]
        assert len(all_owned) == len(set(all_owned)), "double-owned node"
        assert set(all_owned) == set(range(network.num_nodes)), \
            "orphaned node"

    @given(seed=seeds, n=sizes, grid=grids)
    @settings(max_examples=20, deadline=None)
    def test_owner_map_agrees_with_tile_lists(self, seed, n, grid):
        network = _random_network(seed, n)
        plan = plan_tiles(network, grid)
        for flat, tile in enumerate(plan.tiles):
            for node in tile.owned:
                assert plan.owner_of[node] == flat
            assert set(tile.owned) <= set(tile.members)


class TestMergeOrderInvariance:
    @given(seed=seeds, grid=grids, order=st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_stage1_merge_is_order_invariant(self, seed, grid, order):
        network = _random_network(seed, 80)
        params = SkeletonParams()
        plan = plan_tiles(network, grid, params)
        results = _run_tasks(network, stage1_tile_task,
                             _stage1_configs(network, plan, params))
        reference = merge_stage1(network.num_nodes, results)
        shuffled = list(results)
        order.shuffle(shuffled)
        permuted = merge_stage1(network.num_nodes, shuffled)
        assert permuted[0].khop_sizes == reference[0].khop_sizes
        assert permuted[0].centrality == reference[0].centrality
        assert permuted[0].index == reference[0].index
        assert permuted[1] == reference[1]

    @given(seed=seeds, order=st.randoms(use_true_random=False),
           num_batches=st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_flood_merge_is_order_invariant(self, seed, order, num_batches):
        network = _random_network(seed, 80)
        params = SkeletonParams()
        plan = plan_tiles(network, (2, 2), params)
        results = _run_tasks(network, stage1_tile_task,
                             _stage1_configs(network, plan, params))
        _, sites = merge_stage1(network.num_nodes, results)
        if not sites:
            return
        batches = [sites[i::num_batches] for i in range(num_batches)]
        batches = [b for b in batches if b]
        flood = _run_tasks(network, flood_batch_task,
                           [{"sites": b, "params": params, "cache_dir": None}
                            for b in batches])

        def merged_records(results):
            entries = merge_flood_records(network.num_nodes, params.alpha,
                                          results)
            return voronoi_from_entries(network, sites, entries,
                                        FloodTable.empty()).records

        reference = merged_records(flood)
        shuffled = list(flood)
        order.shuffle(shuffled)
        assert merged_records(shuffled) == reference
        # Batches prune against their own best, a superset of the global
        # records: the merge recovers the monolithic records exactly.
        assert reference == build_voronoi(network, sites, params).records

    def test_stage1_merge_rejects_missing_tiles(self):
        network = _random_network(3, 60)
        params = SkeletonParams()
        plan = plan_tiles(network, (2, 2), params)
        configs = _stage1_configs(network, plan, params)
        results = _run_tasks(network, stage1_tile_task, configs)
        if len(results) < 2:
            pytest.skip("degenerate tiling: everything in one tile")
        with pytest.raises(ValueError, match="incomplete"):
            merge_stage1(network.num_nodes, results[:-1])

    def test_stage1_merge_rejects_double_ownership(self):
        network = _random_network(3, 60)
        params = SkeletonParams()
        plan = plan_tiles(network, (2, 2), params)
        configs = _stage1_configs(network, plan, params)
        results = _run_tasks(network, stage1_tile_task, configs)
        if len(results) < 2:
            pytest.skip("degenerate tiling: everything in one tile")
        with pytest.raises(ValueError, match="double-owned"):
            merge_stage1(network.num_nodes, results + [results[0]])


class TestBatchTableExactness:
    @given(seed=seeds, order=st.randoms(use_true_random=False),
           num_batches=st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_batch_rows_hold_every_monolithic_record(self, seed, order,
                                                     num_batches):
        network = _random_network(seed, 90)
        params = SkeletonParams()
        plan = plan_tiles(network, (2, 2), params)
        _, sites = merge_stage1(
            network.num_nodes,
            _run_tasks(network, stage1_tile_task,
                       _stage1_configs(network, plan, params)))
        if not sites:
            return
        # A random batching: any partition, sites in any order per batch.
        shuffled = list(sites)
        order.shuffle(shuffled)
        batches = [b for b in (shuffled[i::num_batches]
                               for i in range(num_batches)) if b]
        floods = _run_tasks(network, flood_batch_task,
                            [{"sites": b, "params": params, "cache_dir": None}
                             for b in batches])
        mono = build_voronoi(network, sites, params).table
        for flood in floods:
            table = flood["table"]
            for row, site in enumerate(flood["sites"].tolist()):
                lo, hi = mono.row_span(sites.index(site))
                blo, bhi = table.row_span(row)
                recorded = mono.node[lo:hi]
                batch_nodes = table.node[blo:bhi]
                assert table.recorded(row, recorded).all(), (
                    f"site {site}: a monolithic record is missing from "
                    f"its batch row")
                at = np.searchsorted(batch_nodes, recorded)
                assert np.array_equal(table.dist[blo:bhi][at],
                                      mono.dist[lo:hi])
                assert np.array_equal(table.parent[blo:bhi][at],
                                      mono.parent[lo:hi])
