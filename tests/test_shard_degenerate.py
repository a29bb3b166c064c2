"""Degenerate tilings merge without error, bit-identical to monolithic.

Satellite coverage for the merge path's edge cases: grids where most
tiles own nothing (tiny clustered deployments under a coarse grid),
tiles that own nodes but elect zero critical nodes, the trivial single-
tile grid, single-node and two-node networks, and grids far finer than
the deployment.  None of these may raise, and each must reproduce the
monolithic extraction exactly.
"""

import random

import pytest

from repro.core import SkeletonParams, extract_skeleton
from repro.geometry import make_field
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.network.deployment import uniform_deployment
from repro.shard import assert_equivalent, plan_tiles, run_sharded


def _cluster_network(n=40, seed=3):
    """Nodes packed into one corner of a large field: under a coarse grid
    most tiles own nothing."""
    field = make_field("rectangle")
    rng = random.Random(seed)
    box = field.bounding_box()
    positions = [Point(box.min_x + rng.random() * box.width * 0.22,
                       box.min_y + rng.random() * box.height * 0.22)
                 for _ in range(n)]
    return build_network(positions, radio=UnitDiskRadio(6.0), field=field,
                         rng=random.Random(seed))


def _uniform_network(n=60, seed=5):
    field = make_field("rectangle")
    rng = random.Random(seed)
    positions = uniform_deployment(field, n, rng=rng)
    return build_network(positions, radio=UnitDiskRadio(6.0), field=field,
                         rng=random.Random(seed))


class TestEmptyTiles:
    def test_clustered_deployment_leaves_tiles_empty(self):
        network = _cluster_network()
        plan = plan_tiles(network, (4, 4), SkeletonParams())
        assert any(not tile.owned for tile in plan.tiles)

    @pytest.mark.parametrize("grid", ["2x2", "4x4", "8x8"])
    def test_empty_tiles_merge_bit_identical(self, grid):
        network = _cluster_network()
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid=grid)
        assert_equivalent(mono, run.result)


class TestSingleTileGrid:
    def test_1x1_grid_is_the_monolithic_pipeline(self):
        network = _uniform_network()
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid="1x1")
        assert_equivalent(mono, run.result)
        assert len(run.plan.tiles) == 1

    def test_1x1_grid_on_tiny_network(self):
        network = _cluster_network(n=8, seed=11)
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid="1x1")
        assert_equivalent(mono, run.result)


class TestTinyNetworks:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("grid", ["1x1", "2x2", "3x3"])
    def test_near_empty_networks_merge(self, n, grid):
        field = make_field("rectangle")
        box = field.bounding_box()
        positions = [Point(box.min_x + 1.0 + i * 2.0, box.min_y + 1.0)
                     for i in range(n)]
        network = build_network(positions, radio=UnitDiskRadio(6.0),
                                field=field, rng=random.Random(0))
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid=grid)
        assert_equivalent(mono, run.result)

    def test_zero_node_network(self):
        field = make_field("rectangle")
        network = build_network([], radio=UnitDiskRadio(6.0), field=field,
                                rng=random.Random(0))
        run = run_sharded(network, SkeletonParams(), grid="2x2")
        assert run.result.skeleton.nodes == set()


class TestZeroCriticalTiles:
    def test_some_tiles_elect_no_sites_yet_merge_exactly(self):
        # A fine grid over a modest deployment: many owning tiles are too
        # small (or too peripheral) to elect any critical node locally.
        network = _uniform_network(n=50, seed=9)
        params = SkeletonParams()
        mono = extract_skeleton(network, params)
        run = run_sharded(network, params, grid="6x6")
        assert_equivalent(mono, run.result)
        owner_of = run.plan.owner_of
        sites_by_tile = {}
        for site in run.result.critical_nodes:
            sites_by_tile.setdefault(owner_of[site], []).append(site)
        owning_tiles = [i for i, t in enumerate(run.plan.tiles) if t.owned]
        assert len(sites_by_tile) < len(owning_tiles)  # siteless tiles exist
