"""Sharded skeleton extraction: tile, fan out, merge — bit-identical.

:func:`run_sharded` runs the paper's pipeline over spatial tiles
(stage 1) and site batches (stages 2–3) via the
:class:`~repro.perf.ParallelRunner`, then merges the shard outputs into
the exact artifacts the monolithic :class:`SkeletonExtractor` would have
produced — same critical nodes, same records, same paths, same loops,
same final skeleton.  The equivalence battery in
``tests/test_shard_equivalence.py`` asserts that identity on every
fig-4 scenario and tile grid.

Phases 1 and 2 share one worker pool per call, and each worker receives
the network once, from the pool initializer; configs carry node ids and
site lists only.  Phase layout (DESIGN.md §12):

1. ``shard:stage1`` — per-tile indices + election on halo-expanded
   subgraphs (exact by the halo-radius argument in :mod:`.plan`);
2. ``shard:flood`` — Voronoi flooding sharded by *site batch* over the
   full graph (exact because flood rows are source-independent); each
   batch returns its flood table, parents included;
3. ``shard:paths`` — the monolithic stage-3 build
   (:mod:`repro.core.coarse`: connector planning, one sorted endpoint
   list per site, pair-path stitch) with each reverse path walked in
   its site's phase-2 batch table, in the calling process — no second
   flood, no workers;
4. ``shard:finish`` — :func:`~repro.core.pipeline.finish_skeleton`, the
   pipeline's shared tail (boundary detection, loop classification,
   refinement, segmentation) on the merged artifacts.  Loop
   classification must run on the merged site graph: a cycle's
   genuineness depends on witnesses and boundary clearance anywhere
   along its realized ring, which no single tile can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.coarse import _coarse_skeleton
from ..core.params import SkeletonParams
from ..core.pipeline import empty_skeleton_result, finish_skeleton, stage_span
from ..core.result import SkeletonResult
from ..core.voronoi import voronoi_from_entries
from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable
from ..perf import ParallelRunner, set_task_context
from .merge import merge_flood_records, merge_stage1
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
    num_flood_batches: int = 0

    @property
    def is_degraded(self) -> bool:
        # Runs are fail-fast and never partial; kept for benchmark callers.
        return False


def _group_by_tile(items: List[int], owner_of) -> List[List[int]]:
    """Partition sorted *items* (node ids) into per-owner-tile batches.

    Grouping sites by their owner tile keeps batches spatially coherent
    (warm halo data in the cache) and — more importantly — deterministic:
    the batch split is a pure function of the plan, never of the worker
    count.
    """
    groups: Dict[int, List[int]] = {}
    for item in items:
        groups.setdefault(owner_of[item], []).append(item)
    return [groups[key] for key in sorted(groups)]


def run_sharded(network: SensorNetwork,
                params: Optional[SkeletonParams] = None,
                grid=(2, 2),
                jobs: Optional[int] = None,
                cache=None,
                tracer: Optional["Tracer"] = None) -> ShardRun:
    """Tile, extract and merge; the full accounting variant.

    ``jobs`` follows the suite convention (explicit > ``REPRO_JOBS`` >
    serial); *cache* memoizes per-shard artifacts across runs and
    processes; *tracer* records one span per phase so shard runs show up
    in the MetricsReport next to monolithic stage spans.

    One worker pool serves phases 1 and 2 and is shut down before this
    call returns; its workers get *network* once each, from the pool
    initializer, and every config carries node ids only.  The fan-out is
    fail-fast: any shard task's exception propagates out of this call,
    and a returned run is always complete.
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

    previous = set_task_context(cache, tracer)
    try:
        with runner:
            # Phase 1 — per-tile stage 1 over halo-expanded subgraphs.
            with stage_span(tracer, "shard:stage1"):
                configs = [{
                    "tile": flat, "params": params, "cache_dir": cache_dir,
                    "members": np.asarray(tile.members, dtype=np.int64),
                    "owned": np.asarray(tile.owned, dtype=np.int64),
                } for flat, tile in enumerate(plan.tiles) if tile.owned]
                index_data, sites = merge_stage1(
                    n, runner.map(stage1_tile_task, configs))
            if not sites:
                # Only reachable on degenerate inputs — a non-empty network
                # always elects at least its global (index, id) maximum.
                return ShardRun(
                    result=empty_skeleton_result(network, params,
                                                 index_data=index_data),
                    plan=plan, jobs=runner.jobs)

            # Phase 2 — site-sharded Voronoi flooding over the full graph.
            with stage_span(tracer, "shard:flood"):
                batches = _group_by_tile(sites, plan.owner_of)
                floods = runner.map(flood_batch_task, [
                    {"sites": batch, "params": params, "cache_dir": cache_dir}
                    for batch in batches])
                records = merge_flood_records(n, params.alpha, floods)
                # The decomposition keeps no table of its own: phase 3
                # reads each site's parents from its batch's table.
                voronoi = voronoi_from_entries(network, sites, records,
                                               FloodTable.empty())

            # Phase 3 — the shared stage-3 build, its reverse paths walked
            # in the phase-2 tables, in this process.
            batch_of = {site: b for b, batch in enumerate(batches)
                        for site in batch}

            def resolve_paths(requests: Dict[int, List[int]]):
                grouped: Dict[int, List[Tuple[int, List[int]]]] = {}
                for site, targets in requests.items():
                    grouped.setdefault(batch_of[site], []).append(
                        (site, targets))
                resolved: Dict[Tuple[int, int], List[int]] = {}
                for b, group in grouped.items():
                    resolved.update(paths_batch_task(
                        dict(floods[b], requests=group, params=params)))
                return resolved

            with stage_span(tracer, "shard:paths"):
                coarse = _coarse_skeleton(voronoi, index_data.index,
                                          resolve_paths)
    finally:
        set_task_context(*previous)

    # Phase 4 — the pipeline's shared tail on the merged site graph.
    with stage_span(tracer, "shard:finish"):
        result = finish_skeleton(network, params, index_data, sites, voronoi,
                                 coarse, tracer=tracer)
    return ShardRun(result=result, plan=plan, jobs=runner.jobs,
                    num_flood_batches=len(batches))
