"""The paper's core contribution: boundary-free skeleton extraction.

Public entry points: :class:`SkeletonExtractor` / :func:`extract_skeleton`
(centralized engine) and :class:`DistributedExtraction` (message-passing
engine with Theorem 5 accounting).
"""

from .params import LoopStrategy, SkeletonParams
from .neighborhood import IndexData, compute_indices, compute_khop_sizes, compute_l_centrality
from .identification import find_critical_nodes
from .voronoi import VoronoiDecomposition, build_voronoi
from .coarse import CoarseSkeleton, build_coarse_skeleton
from .loops import Loop, LoopAnalysis, identify_loops
from .distributed import (
    DistributedExtraction,
    SkeletonNodeProtocol,
    extract_skeleton_distributed,
    run_distributed_stages,
    voronoi_from_distributed,
)
from .refine import (
    SkeletonGraph,
    merge_fake_loops,
    prune_short_branches,
    rebuild_with_genuine_loops,
    refine_skeleton,
)
from .byproducts import Segmentation, detect_boundary_nodes, segmentation_from_voronoi
from .result import SkeletonResult
from .pipeline import SkeletonExtractor, empty_skeleton_result, extract_skeleton

__all__ = [
    "LoopStrategy",
    "SkeletonParams",
    "IndexData",
    "compute_indices",
    "compute_khop_sizes",
    "compute_l_centrality",
    "find_critical_nodes",
    "VoronoiDecomposition",
    "build_voronoi",
    "CoarseSkeleton",
    "build_coarse_skeleton",
    "Loop",
    "LoopAnalysis",
    "identify_loops",
    "DistributedExtraction",
    "SkeletonNodeProtocol",
    "extract_skeleton_distributed",
    "run_distributed_stages",
    "voronoi_from_distributed",
    "SkeletonGraph",
    "rebuild_with_genuine_loops",
    "merge_fake_loops",
    "prune_short_branches",
    "refine_skeleton",
    "Segmentation",
    "detect_boundary_nodes",
    "segmentation_from_voronoi",
    "SkeletonResult",
    "SkeletonExtractor",
    "empty_skeleton_result",
    "extract_skeleton",
]
