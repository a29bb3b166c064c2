"""Cross-scheduler equivalence and graceful degradation.

The zero-jitter (degenerate latency) event-driven run must be
*bit-identical* to the synchronous run — in each protocol phase's per-node
state and for the full distributed pipeline — so that any divergence
observed under jitter is attributable to asynchrony, not to simulator
drift.  Partitions must terminate via the convergence detector and surface
per-fragment partial results.
"""

import pytest

from repro.core import SkeletonParams, extract_skeleton_distributed, \
    run_distributed_stages
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network
from repro.observability import Tracer
from repro.runtime import (
    AsyncProfile,
    AsyncScheduler,
    CrashWindow,
    FaultPlan,
    LatencyModel,
    SynchronousScheduler,
    live_components,
)
from tests.conftest import build_test_network, skeleton_protocols


@pytest.fixture(scope="module")
def network():
    return build_test_network("rectangle", 220, 6.0, seed=9)


@pytest.fixture(scope="module")
def annulus():
    # Dense enough that the fault-free extraction keeps the hole's loop —
    # the homotopy-under-jitter test below needs a meaningful baseline.
    return build_test_network("annulus", 500, 5.0, seed=9)


class TestZeroJitterProtocolIdentity:
    """Per-node protocol state, phase by phase, on both schedulers."""

    @pytest.fixture(scope="class")
    def runs(self, network):
        runs = []
        for scheduler in (SynchronousScheduler, AsyncScheduler):
            tracer = Tracer()
            sched = scheduler(network, skeleton_protocols(SkeletonParams()),
                              tracer=tracer)
            runs.append((sched.protocols, sched.run(), tracer.query()))
        return runs

    def test_neighborhood_gossip(self, runs):
        (sync, s_stats, _), (asyn, a_stats, _) = runs
        assert [p.known for p in sync] == [p.known for p in asyn]
        assert a_stats.broadcasts == s_stats.broadcasts
        assert a_stats.corrections == 0 and a_stats.corrections_suppressed == 0

    def test_value_gossip(self, runs):
        (sync, _, _), (asyn, _, _) = runs
        assert [p.sizes for p in sync] == [p.sizes for p in asyn]
        assert [p.indices for p in sync] == [p.indices for p in asyn]

    def test_voronoi_flood(self, runs):
        (sync, _, s_query), (asyn, _, a_query) = runs
        assert [p.site_records for p in sync] == \
            [p.site_records for p in asyn]
        # The same nodes forward the same number of site waves.
        assert a_query.sends_by_node(phase="site") == \
            s_query.sends_by_node(phase="site")


class TestZeroJitterPipelineIdentity:
    @pytest.fixture(scope="class")
    def outcomes(self, network):
        params = SkeletonParams()
        return (
            run_distributed_stages(network, params),
            run_distributed_stages(network, params, scheduler="async"),
        )

    def test_stage_artifacts_identical(self, outcomes):
        sync, asyn = outcomes
        assert asyn.khop_sizes == sync.khop_sizes
        assert asyn.centrality == sync.centrality
        assert asyn.index == sync.index
        assert asyn.critical_nodes == sync.critical_nodes
        assert asyn.site_records == sync.site_records

    def test_skeleton_identical(self, network):
        sync = extract_skeleton_distributed(network)
        asyn = extract_skeleton_distributed(network, scheduler="async")
        assert asyn.critical_nodes == sync.critical_nodes
        assert asyn.skeleton.nodes == sync.skeleton.nodes
        assert sorted(asyn.skeleton.edges) == sorted(sync.skeleton.edges)
        assert asyn.voronoi.cell_of == sync.voronoi.cell_of
        assert not asyn.partitioned
        assert asyn.run_stats.quiesced
        assert asyn.run_stats.convergence is not None

    def test_no_correction_traffic(self, outcomes):
        _, asyn = outcomes
        assert asyn.stats.corrections == 0
        assert asyn.stats.corrections_suppressed == 0

    def test_theorem5_budget_preserved(self, outcomes):
        sync, asyn = outcomes
        assert asyn.stats.broadcasts == sync.stats.broadcasts


class TestJitteredPipeline:
    def test_small_jitter_keeps_skeleton_usable(self, annulus):
        from repro.analysis import evaluate_skeleton

        jitter = 1.0
        latency = LatencyModel.uniform_jitter(jitter, seed=7)
        result = extract_skeleton_distributed(
            annulus, scheduler="async", latency=latency,
            async_profile=AsyncProfile(
                grace=2.0 * latency.max_delay / latency.base,
                aggregation_delay=jitter,
            ),
        )
        assert result.run_stats.quiesced
        quality = evaluate_skeleton(
            annulus, result.skeleton.nodes, result.skeleton.edges,
            preserved_hole_count=1,
        )
        assert quality.connected
        assert quality.homotopy_ok

    def test_jitter_pays_bounded_corrections(self, network):
        latency = LatencyModel.uniform_jitter(1.0, seed=7)
        profile = AsyncProfile(aggregation_delay=1.0)
        result = run_distributed_stages(
            network, scheduler="async", latency=latency, async_profile=profile,
        )
        stats = result.stats
        assert stats.corrections > 0  # reordering really happened
        # Algorithmic budget untouched: corrections are accounted apart.
        params = result.params
        bound = (params.k + params.l + params.local_max_hops + 1)
        assert max(stats.broadcasts_per_node.values()) <= bound


class TestPartitionTolerance:
    @pytest.fixture(scope="class")
    def split(self):
        # Two clusters joined by a single bridge node; killing it
        # partitions the survivors.
        positions = (
            [Point(float(i % 4), float(i // 4)) for i in range(16)]
            + [Point(5.0, 1.5)]
            + [Point(7.0 + i % 4, float(i // 4)) for i in range(16)]
        )
        network = build_network(positions, radio=UnitDiskRadio(2.3))
        plan = FaultPlan(crashes={16: CrashWindow(start=0)})
        return network, plan

    def test_live_components(self, split):
        network, plan = split
        components = live_components(network, plan)
        assert len(components) == 2
        assert [len(c) for c in components] == [16, 16]
        assert 16 not in {v for comp in components for v in comp}

    @pytest.mark.parametrize("scheduler", ["sync", "async"])
    def test_partitioned_extraction_terminates(self, split, scheduler):
        network, plan = split
        result = extract_skeleton_distributed(
            network, fault_plan=plan, scheduler=scheduler,
            deadline_action="return_partial",
        )
        assert result.partitioned
        assert result.component_results is not None
        assert len(result.component_results) == 2
        if scheduler == "async":
            assert result.run_stats.convergence.partitioned

    @pytest.mark.parametrize("scheduler", ["sync", "async"])
    def test_component_results_are_self_contained(self, split, scheduler):
        network, plan = split
        result = extract_skeleton_distributed(
            network, fault_plan=plan, scheduler=scheduler,
            deadline_action="return_partial",
        )
        for component in result.component_results:
            # Largest-first, original ids, compacted subgraph.
            assert component.nodes == sorted(component.nodes)
            sub = component.result
            assert sub.network.num_nodes == len(component.nodes)
            assert set(sub.skeleton.nodes) <= set(range(len(component.nodes)))
        sizes = [len(c.nodes) for c in result.component_results]
        assert sizes == sorted(sizes, reverse=True)

    def test_unpartitioned_run_has_no_component_results(self, network):
        result = extract_skeleton_distributed(network, scheduler="async")
        assert not result.partitioned
        assert result.component_results is None
