"""Sharded skeleton extraction: tile stage 1, fan out, merge — bit-identical.

:func:`run_sharded` runs the paper's stage 1 over spatial tiles via the
:class:`~repro.perf.ParallelRunner`, merges the tiles' outputs into the
exact index data and sites the monolithic :class:`SkeletonExtractor`
would have produced, and runs stages 2–4 with the monolithic code on
them — same critical nodes, same records, same paths, same loops, same
final skeleton.  The equivalence battery in
``tests/test_shard_equivalence.py`` asserts that identity on every
fig-4 scenario and tile grid.

Phase 1 is the one fan-out: one ``map``, one worker pool per call, each
worker receiving the network once, from the pool initializer; configs
carry node ids only.  Phase layout (DESIGN.md §12):

1. ``shard:stage1`` — per-tile indices + election on halo-expanded
   subgraphs (exact by the halo-radius argument in :mod:`.plan`);
2. ``shard:flood`` — :func:`~repro.core.voronoi.build_voronoi`, the
   monolithic stage-2 flood from all sites at once, in the calling
   process.  It does not tile: every site's wave may cross every seam;
3. ``shard:paths`` — :func:`~repro.core.coarse.build_coarse_skeleton`,
   the monolithic stage-3 build walking the phase-2 flood table, in the
   calling process;
4. ``shard:finish`` — :func:`~repro.core.pipeline.finish_skeleton`, the
   pipeline's shared tail (boundary detection, loop classification,
   refinement, segmentation) on the merged artifacts.  Loop
   classification must run on the merged site graph: a cycle's
   genuineness depends on witnesses and boundary clearance anywhere
   along its realized ring, which no single tile can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.params import SkeletonParams
from ..core.pipeline import empty_skeleton_result, finish_skeleton, stage_span
from ..core.result import SkeletonResult
from ..network.graph import SensorNetwork
from ..perf import ParallelRunner, set_task_context
from .merge import merge_stage1
from .plan import TilePlan, plan_tiles
from .tile import flood_batch_task, paths_batch_task, stage1_tile_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Tracer

__all__ = ["ShardRun", "run_sharded"]


@dataclass
class ShardRun:
    """A sharded extraction plus its run accounting.  Per-phase wall time
    is the ``shard:*`` spans of the tracer passed to :func:`run_sharded`."""

    result: SkeletonResult
    plan: TilePlan
    jobs: int

    @property
    def is_degraded(self) -> bool:
        # Runs are fail-fast and never partial; kept for benchmark callers.
        return False

    @property
    def num_flood_batches(self) -> int:
        # Stage 2 is one flood from all sites; kept for benchmark callers.
        return 1


def run_sharded(network: SensorNetwork,
                params: Optional[SkeletonParams] = None,
                grid=(2, 2),
                jobs: Optional[int] = None,
                cache=None,
                tracer: Optional["Tracer"] = None) -> ShardRun:
    """Tile, extract and merge; the full accounting variant.

    ``jobs`` follows the suite convention (explicit > ``REPRO_JOBS`` >
    serial); *cache* memoizes the per-tile stage-1 indices and the
    stage-2 decomposition (the monolithic ``"voronoi"`` entry) across
    runs and processes; *tracer* records one span per phase so shard runs
    show up in the MetricsReport next to monolithic stage spans.

    Phase 1 maps once, on a worker pool shut down before it returns; its
    workers get *network* once each, from the pool initializer, and every
    config carries node ids only.  The fan-out is fail-fast: any shard
    task's exception propagates out of this call, and a returned run is
    always complete.
    """
    params = params if params is not None else SkeletonParams()
    runner = ParallelRunner(jobs, network=network)
    with stage_span(tracer, "shard:plan"):
        plan = plan_tiles(network, grid, params)
    n = network.num_nodes
    if n == 0:
        return ShardRun(result=empty_skeleton_result(network, params),
                        plan=plan, jobs=runner.jobs)
    cache_dir = (str(cache.disk_dir)
                 if cache is not None and getattr(cache, "disk_dir", None)
                 is not None else None)

    # Phase 1 — per-tile stage 1 over halo-expanded subgraphs.
    with stage_span(tracer, "shard:stage1"):
        configs = [{
            "tile": flat, "params": params, "cache_dir": cache_dir,
            "members": np.asarray(tile.members, dtype=np.int64),
            "owned": np.asarray(tile.owned, dtype=np.int64),
        } for flat, tile in enumerate(plan.tiles) if tile.owned]
        previous = set_task_context(cache, tracer)
        try:
            tile_results = runner.map(stage1_tile_task, configs)
        finally:
            set_task_context(*previous)
        index_data, sites = merge_stage1(n, tile_results)
    if not sites:
        # Only reachable on degenerate inputs — a non-empty network
        # always elects at least its global (index, id) maximum.
        return ShardRun(
            result=empty_skeleton_result(network, params,
                                         index_data=index_data),
            plan=plan, jobs=runner.jobs)

    # Phases 2–3 — the monolithic stage-2 and stage-3 builds.
    with stage_span(tracer, "shard:flood"):
        voronoi = flood_batch_task(network, sites, params, cache=cache,
                                   tracer=tracer)
    with stage_span(tracer, "shard:paths"):
        coarse = paths_batch_task(voronoi, index_data.index, params,
                                  tracer=tracer)

    # Phase 4 — the pipeline's shared tail on the merged site graph.
    with stage_span(tracer, "shard:finish"):
        result = finish_skeleton(network, params, index_data, sites, voronoi,
                                 coarse, tracer=tracer)
    return ShardRun(result=result, plan=plan, jobs=runner.jobs)
