"""Tiled sharded skeleton extraction for large fields (DESIGN.md §12).

Partition a deployment into overlapping spatial tiles, run the pipeline's
parallelizable phases per shard through the
:class:`~repro.perf.ParallelRunner`, and merge; stage 3's planning and
stitch and the whole stage-4 tail are the monolithic code, so the merged
result is bit-identical to the monolithic
:class:`~repro.core.SkeletonExtractor` at every tile count.
``run_sharded(...).result`` is the extraction.
"""

from .api import ShardRun, run_sharded
from ..core.equivalence import assert_equivalent, diff_results
from .merge import merge_flood_records, merge_stage1
from .plan import Tile, TilePlan, halo_hops_for, max_edge_length, parse_grid, plan_tiles

__all__ = [
    "ShardRun",
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
]
