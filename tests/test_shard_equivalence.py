"""Cross-shard equivalence battery: sharded extraction is bit-identical.

The load-bearing guarantee of :mod:`repro.shard` (DESIGN.md §12): for any
tile grid, on the CSR kernels or on the pure-Python reference engine, the
merged sharded result must match the monolithic pipeline on *every*
artifact — stage 1 indices through final segmentation — on every
fig-4-scale scenario.  One divergent broadcast, record ordering, or
tie-break anywhere in the tiled path fails here with the first divergent
stage named.
"""

import functools

import pytest

from repro.core import SkeletonParams, extract_skeleton
from repro.experiments import scaled_nodes
from repro.geometry import make_field
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network, get_scenario
from repro.network.deployment import uniform_deployment
from repro.reference import use_reference_engine
from repro.shard import (
    assert_equivalent,
    diff_results,
    parse_grid,
    run_sharded,
)

# Every fig-4 evaluation scenario plus the paper's running example.
SCENARIO_NAMES = [
    "window", "one_hole", "flower", "smile", "music", "airplane",
    "cactus", "star_hole", "spiral", "two_holes", "star",
]
GRIDS = ["1x1", "2x2", "4x4"]
SCALE = 0.25
SEED = 1


@functools.lru_cache(maxsize=None)
def _network(name: str):
    scenario = get_scenario(name)
    return scenario.build(seed=SEED,
                          num_nodes=scaled_nodes(scenario.num_nodes, SCALE))


@functools.lru_cache(maxsize=None)
def _monolithic(name: str):
    return extract_skeleton(_network(name), SkeletonParams())


class TestEquivalenceAcrossScenarios:
    """11 scenarios x 3 grids on the CSR kernels."""

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bit_identical(self, name, grid):
        run = run_sharded(_network(name), SkeletonParams(), grid=grid)
        assert_equivalent(_monolithic(name), run.result)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_tile_counts_agree_with_each_other(self, name):
        """Transitivity spot-check: all grids produce the same skeleton."""
        results = [run_sharded(_network(name), SkeletonParams(),
                               grid=grid).result for grid in GRIDS]
        for other in results[1:]:
            assert results[0].skeleton.nodes == other.skeleton.nodes
            assert results[0].skeleton.edges == other.skeleton.edges


class TestEquivalenceReferenceBackend:
    """The tiled path run on the pure-Python reference engine must equal
    the monolithic run on the kernels.  Serial, so every task sees the
    substituted engine."""

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bit_identical(self, name, grid):
        with use_reference_engine():
            run = run_sharded(_network(name), SkeletonParams(), grid=grid,
                              jobs=1)
        assert_equivalent(_monolithic(name), run.result)


class TestDisconnectedComponents:
    """Components split across tiles — no seam may invent connectivity."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _two_island_network():
        import random

        rng = random.Random(7)
        field = make_field("rectangle")
        pts = uniform_deployment(field, 150, rng=rng)
        positions = pts + [Point(p.x + 200.0, p.y) for p in pts]
        return build_network(positions, radio=UnitDiskRadio(5.0), rng=rng)

    @pytest.mark.parametrize("grid", ["1x1", "2x2", "4x1"])
    def test_islands_split_across_tiles(self, grid):
        network = self._two_island_network()
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid=grid)
        assert_equivalent(mono, run.result)

    def test_vertical_split_isolates_each_island(self):
        """A 2x1 grid puts each island wholly inside one tile; the merge
        must still reproduce the monolithic result exactly."""
        network = self._two_island_network()
        mono = extract_skeleton(network, SkeletonParams())
        run = run_sharded(network, SkeletonParams(), grid=parse_grid("2x1"))
        assert not diff_results(mono, run.result)


class TestParallelAndCachedRuns:
    """Worker count and cache reuse must not leak into the output."""

    def test_jobs_do_not_change_output(self):
        network = _network("window")
        serial = run_sharded(network, SkeletonParams(), grid="2x2", jobs=1)
        parallel = run_sharded(network, SkeletonParams(), grid="2x2", jobs=2)
        assert_equivalent(serial.result, parallel.result)

    def test_cached_rerun_is_identical(self, tmp_path):
        from repro.perf import ArtifactCache

        network = _network("one_hole")
        cache = ArtifactCache(disk_dir=tmp_path / "cache")
        cold = run_sharded(network, SkeletonParams(), grid="2x2", cache=cache)
        warm = run_sharded(network, SkeletonParams(), grid="2x2", cache=cache)
        assert_equivalent(cold.result, warm.result)
        assert cache.hit_rate > 0.0

    def test_failed_shard_task_propagates(self, monkeypatch):
        """The fan-out is fail-fast: a shard task's exception leaves
        ``run_sharded`` instead of yielding a partial result."""
        import repro.shard.api as shard_api

        def crash(_config):
            raise RuntimeError("shard task crashed")

        monkeypatch.setattr(shard_api, "stage1_tile_task", crash)
        with pytest.raises(RuntimeError, match="shard task crashed"):
            run_sharded(_network("window"), SkeletonParams(), grid="2x2",
                        jobs=1)
