"""Degenerate-input behavior of the full pipeline: graceful, never a crash.

Covers the edges a deployed system actually meets: empty and single-node
networks, disconnected deployments, and runs where no critical node exists
(possible only under faults — centralized tie-breaking always elects at
least one node per component).
"""

import math

import pytest

from repro.core import (
    LoopStrategy,
    SkeletonParams,
    build_voronoi,
    empty_skeleton_result,
    extract_skeleton,
    extract_skeleton_distributed,
    find_critical_nodes,
    run_distributed_stages,
    voronoi_from_distributed,
)
from repro.core.loops import hop_clearance
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.runtime import CrashWindow, FaultPlan


def udg(points, radio_range=1.5):
    return build_network(
        [Point(float(x), float(y)) for x, y in points],
        radio=UnitDiskRadio(radio_range),
    )


class TestEmptyNetwork:
    def test_centralized_returns_complete_empty_result(self):
        result = extract_skeleton(udg([]))
        assert result.skeleton_nodes == set()
        assert result.critical_nodes == []
        assert result.boundary_nodes == set()
        assert result.voronoi.sites == []
        assert result.voronoi.table.node.size == 0
        assert result.final_cycle_rank() == 0
        assert result.loops == []
        # Every summary view must survive the vacuous case.
        summary = result.stage_summary()
        assert summary["nodes"] == 0
        assert summary["final_nodes"] == 0

    def test_find_critical_nodes_elects_nobody(self):
        # extract_skeleton returns before stage 1 at n = 0; the stage
        # function itself must still cope.
        assert find_critical_nodes(udg([])) == []

    def test_hop_clearance_is_empty(self):
        assert hop_clearance(udg([]), set()) == []

    def test_distributed_returns_complete_empty_result(self):
        result = extract_skeleton_distributed(udg([]))
        assert result.skeleton_nodes == set()
        assert result.critical_nodes == []
        assert result.run_stats is not None
        assert result.run_stats.broadcasts == 0


class TestSingleNode:
    def test_single_node_is_its_own_skeleton(self):
        result = extract_skeleton(udg([(0, 0)]))
        assert result.critical_nodes == [0]
        assert result.skeleton_nodes == {0}
        assert result.skeleton.edges == set()
        assert result.final_cycle_rank() == 0

    def test_single_node_distributed_matches(self):
        result = extract_skeleton_distributed(udg([(0, 0)]))
        assert result.critical_nodes == [0]
        assert result.skeleton_nodes == {0}

    def test_two_nodes(self):
        result = extract_skeleton(udg([(0, 0), (1, 0)]))
        # Deterministic tie-breaking elects exactly one of the pair.
        assert len(result.critical_nodes) == 1
        assert result.final_cycle_rank() == 0


class TestDisconnectedComponents:
    def test_each_component_gets_a_skeleton(self):
        # Two well-separated clusters: one critical node each, and the
        # skeleton is honestly disconnected (it mirrors the network).
        grid = [(x, y) for x in range(4) for y in range(4)]
        far = [(x + 30, y) for x, y in grid]
        result = extract_skeleton(udg(grid + far, radio_range=1.2))
        assert len(result.critical_nodes) == 2
        assert not result.skeleton.is_connected()
        assert result.final_cycle_rank() == 0

    def test_distributed_handles_disconnection(self):
        pairs = [(0, 0), (1, 0), (20, 0), (21, 0)]
        outcome = run_distributed_stages(udg(pairs))
        # Waves cannot cross the gap: each node only records its own
        # component's site.
        assert len(outcome.critical_nodes) == 2
        for node, records in enumerate(outcome.site_records):
            assert all(
                (site < 2) == (node < 2) for site in records
            )


class TestZeroCriticalNodes:
    def test_all_crashed_distributed_degenerates_gracefully(self):
        net = udg([(i, 0) for i in range(5)])
        plan = FaultPlan(crashes={v: CrashWindow(start=0) for v in range(5)})
        result = extract_skeleton_distributed(net, fault_plan=plan)
        assert result.critical_nodes == []
        assert result.skeleton_nodes == set()
        assert result.final_cycle_rank() == 0
        assert result.run_stats.broadcasts == 0

    def test_voronoi_from_distributed_none_without_sites(self):
        net = udg([(i, 0) for i in range(5)])
        plan = FaultPlan(crashes={v: CrashWindow(start=0) for v in range(5)})
        outcome = run_distributed_stages(net, fault_plan=plan)
        assert voronoi_from_distributed(outcome) is None

    def test_build_voronoi_requires_sites(self):
        # The centralized builder's documented contract: site-less calls are
        # a programming error, not a degenerate input.
        net = udg([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            build_voronoi(net, [], SkeletonParams())

    def test_empty_result_helper_is_well_formed(self):
        net = udg([(0, 0), (1, 0), (2, 0)])
        result = empty_skeleton_result(net, SkeletonParams())
        assert result.skeleton_nodes == set()
        assert result.voronoi.table.node.size == 0
        assert result.voronoi.cell_of == [-1, -1, -1]
        assert result.stage_summary()["critical_nodes"] == 0


@pytest.mark.parametrize("overrides", [
    {"traversal_batch_width": 0},
    {"k": 0},
    {"l": 0},
    {"alpha": -1},
    {"local_max_hops": 0},
    {"prune_length": -1},
    # The classifier compares strategies by identity, so a string would
    # silently run the BOUNDARY branch.
    {"loop_strategy": "interior"},
    {"loop_strategy": None},
    {"min_loop_hops": -1},
    {"boundary_threshold_factor": -0.1},
    {"boundary_threshold_factor": math.nan},
    {"isoperimetric_threshold": math.inf},
    {"isoperimetric_threshold": -1.0},
    {"interior_factor": -math.inf},
    {"interior_factor": math.nan},
], ids=lambda overrides: "{}={}".format(*next(iter(overrides.items()))))
def test_params_reject_invalid(overrides):
    (name,) = overrides
    with pytest.raises(ValueError, match=rf"^{name} must") as err:
        SkeletonParams(**overrides)
    if name == "loop_strategy":
        for strategy in LoopStrategy:
            assert f"LoopStrategy.{strategy.name}" in str(err.value)


def test_params_accept_every_strategy_and_zero_bounds():
    for strategy in LoopStrategy:
        SkeletonParams(loop_strategy=strategy, min_loop_hops=0,
                       boundary_threshold_factor=0.0,
                       isoperimetric_threshold=0.0, interior_factor=0.0)
