"""Tiled sharded skeleton extraction for large fields (DESIGN.md §12).

Partition a deployment into overlapping spatial tiles, run the pipeline's
parallelizable phases per shard through the
:class:`~repro.perf.ParallelRunner`, and merge — with the guarantee that
the merged result is bit-identical to the monolithic
:class:`~repro.core.SkeletonExtractor` at every tile count.
"""

from .api import ShardRun, extract_skeleton_sharded, run_sharded
from ..core.equivalence import assert_equivalent, diff_results
from .merge import (
    assemble_coarse,
    assemble_voronoi,
    merge_flood_records,
    merge_stage1,
)
from .plan import Tile, TilePlan, halo_hops_for, max_edge_length, parse_grid, plan_tiles

__all__ = [
    "ShardRun",
    "extract_skeleton_sharded",
    "run_sharded",
    "diff_results",
    "assert_equivalent",
    "Tile",
    "TilePlan",
    "plan_tiles",
    "parse_grid",
    "halo_hops_for",
    "max_edge_length",
    "merge_stage1",
    "merge_flood_records",
    "assemble_voronoi",
    "assemble_coarse",
]
