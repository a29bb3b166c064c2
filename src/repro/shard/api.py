"""Sharded skeleton extraction: tile, fan out, merge — bit-identical.

:func:`extract_skeleton_sharded` runs the paper's pipeline over spatial
tiles (stage 1) and site batches (stages 2–3) via the
:class:`~repro.perf.ParallelRunner`, then merges the shard outputs into
the exact artifacts the monolithic :class:`SkeletonExtractor` would have
produced — same critical nodes, same records, same paths, same loops,
same final skeleton.  The equivalence battery in
``tests/test_shard_equivalence.py`` asserts that identity on every
fig-4 scenario and tile grid.

Phase layout (DESIGN.md §12):

1. ``shard:stage1`` — per-tile indices + election on halo-expanded
   subgraphs (exact by the halo-radius argument in :mod:`.plan`);
2. ``shard:flood`` — Voronoi flooding sharded by *site batch* over the
   full graph (exact because flood rows are source-independent);
3. ``shard:paths`` — reverse-path realization for the planned
   connectors, sharded the same way;
4. ``shard:finish`` — border scan, connector planning, seam stitching,
   boundary detection and loop classification on the merged artifacts.
   Loop classification must run on the merged site graph: a cycle's
   genuineness depends on witnesses and boundary clearance anywhere
   along its realized ring, which no single tile can see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.byproducts import detect_boundary_nodes, segmentation_from_voronoi
from ..core.coarse import plan_connectors
from ..core.loops import identify_loops
from ..core.params import SkeletonParams
from ..core.pipeline import empty_skeleton_result, stage_span
from ..core.refine import refine_skeleton
from ..core.result import SkeletonResult
from ..network.graph import SensorNetwork
from ..perf import ParallelRunner, effective_jobs, set_task_context
from .merge import (
    assemble_coarse,
    assemble_voronoi,
    merge_flood_records,
    merge_stage1,
)
from .plan import TilePlan, plan_tiles
from .tile import flood_batch_task, paths_batch_task, stage1_tile_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Tracer

__all__ = ["ShardRun", "run_sharded", "extract_skeleton_sharded"]


@dataclass
class ShardRun:
    """A sharded extraction plus its run accounting."""

    result: SkeletonResult
    plan: TilePlan
    jobs: int
    #: wall-clock seconds per phase, in execution order.
    timings: Dict[str, float] = field(default_factory=dict)
    num_flood_batches: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

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

    The fan-out is fail-fast: any shard task's exception propagates out
    of this call, and a returned run is always complete.
    """
    params = params if params is not None else SkeletonParams()
    worker_count = effective_jobs(jobs)
    runner = ParallelRunner(worker_count)
    cache_dir = (str(cache.disk_dir)
                 if cache is not None and getattr(cache, "disk_dir", None)
                 is not None else None)
    timings: Dict[str, float] = {}

    def run_tasks(fn, configs):
        """Map *fn* over *configs* with the shard task context set."""
        previous = set_task_context(cache, tracer)
        try:
            return runner.map(fn, configs)
        finally:
            set_task_context(*previous)

    def timed(name: str):
        class _Timer:
            def __enter__(self_inner):
                self_inner.t0 = time.perf_counter()
                self_inner.span = stage_span(tracer, name)
                self_inner.span.__enter__()
                return self_inner

            def __exit__(self_inner, *exc):
                self_inner.span.__exit__(*exc)
                timings[name] = timings.get(name, 0.0) + \
                    (time.perf_counter() - self_inner.t0)
                return False

        return _Timer()

    n = network.num_nodes
    with timed("shard:plan"):
        plan = plan_tiles(network, grid, params)
    if n == 0:
        return ShardRun(result=empty_skeleton_result(network, params),
                        plan=plan, jobs=worker_count, timings=timings)

    # Phase 1 — per-tile stage 1 over halo-expanded subgraphs.
    with timed("shard:stage1"):
        configs = []
        for flat, tile in enumerate(plan.tiles):
            if not tile.owned:
                continue
            members = np.asarray(tile.members, dtype=np.int64)
            subnet = network.induced_subgraph(tile.members)
            owned_local = np.searchsorted(members,
                                          np.asarray(tile.owned,
                                                     dtype=np.int64))
            configs.append({
                "tile": flat, "subnet": subnet, "members": members,
                "owned_local": owned_local, "params": params,
                "cache_dir": cache_dir,
            })
        tile_results = run_tasks(stage1_tile_task, configs)
        index_data, sites = merge_stage1(n, tile_results)

    if not sites:
        # Only reachable on degenerate inputs — a non-empty network always
        # elects at least its global (index, id) maximum.
        return ShardRun(
            result=empty_skeleton_result(network, params,
                                         index_data=index_data),
            plan=plan, jobs=worker_count, timings=timings)

    # Phase 2 — site-sharded Voronoi flooding over the full graph.
    with timed("shard:flood"):
        batches = _group_by_tile(sites, plan.owner_of)
        configs = [{"network": network, "sites": batch, "params": params,
                    "cache_dir": cache_dir} for batch in batches]
        flood_results = run_tasks(flood_batch_task, configs)
        records = merge_flood_records(n, params.alpha, flood_results)
        voronoi = assemble_voronoi(network, sites, records)

    # Phase 3 — connector planning, then sharded path realization.
    with timed("shard:paths"):
        connectors, plans = plan_connectors(
            voronoi.adjacent_pairs(), voronoi.pair_segments,
            voronoi.pair_border_edges, index_data.index,
        )
        requests_by_site: Dict[int, set] = {}
        for _pair, (site_a, node_a), (site_b, node_b), _joined in plans:
            requests_by_site.setdefault(site_a, set()).add(node_a)
            requests_by_site.setdefault(site_b, set()).add(node_b)
        site_batches = _group_by_tile(sorted(requests_by_site),
                                      plan.owner_of)
        configs = [{
            "network": network, "params": params, "cache_dir": cache_dir,
            "requests": [(site, tuple(sorted(requests_by_site[site])))
                         for site in batch],
        } for batch in site_batches]
        path_results = run_tasks(paths_batch_task, configs)
        resolved: Dict[Tuple[int, int], List[int]] = {}
        for part in path_results:
            resolved.update(part)
        coarse = assemble_coarse(network, sites, connectors, plans, resolved)

    # Phase 4 — merge-side finish: by-products, seam-aware loop
    # classification on the merged site graph, refinement.
    with timed("shard:finish"):
        boundary = detect_boundary_nodes(
            network, index_data.khop_sizes, params.boundary_threshold_factor
        )
        analysis = identify_loops(
            coarse, voronoi, params,
            boundary_nodes=boundary, index=index_data.index, tracer=tracer,
        )
        skeleton = refine_skeleton(coarse, analysis, voronoi, params)
        segmentation = segmentation_from_voronoi(voronoi)

    result = SkeletonResult(
        network=network,
        params=params,
        index_data=index_data,
        critical_nodes=sites,
        voronoi=voronoi,
        coarse=coarse,
        loop_analysis=analysis,
        skeleton=skeleton,
        segmentation=segmentation,
        boundary_nodes=boundary,
    )
    return ShardRun(result=result, plan=plan, jobs=worker_count,
                    timings=timings, num_flood_batches=len(batches))


def extract_skeleton_sharded(network: SensorNetwork,
                             params: Optional[SkeletonParams] = None,
                             grid=(2, 2),
                             jobs: Optional[int] = None,
                             cache=None,
                             tracer: Optional["Tracer"] = None,
                             ) -> SkeletonResult:
    """One-call sharded extraction, returning just the result record."""
    return run_sharded(network, params, grid=grid, jobs=jobs, cache=cache,
                       tracer=tracer).result
