"""The end-to-end skeleton extraction pipeline (Section III).

:class:`SkeletonExtractor` chains the four stages of the paper's algorithm —
skeleton node identification, Voronoi cell construction, coarse skeleton
establishment and final clean-up — over pure connectivity.  Positions and
the deployment field are never consulted; they ride along solely for
evaluation.

:func:`finish_skeleton` is the one tail (stage 4, both by-products, the
:class:`SkeletonResult`) of the monolithic, sharded and distributed runs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, List, Optional

from ..network.graph import SensorNetwork
from ..network.traversal import FloodTable
from .byproducts import Segmentation, detect_boundary_nodes, segmentation_from_voronoi
from .coarse import CoarseSkeleton, build_coarse_skeleton
from .identification import find_critical_nodes
from .loops import LoopAnalysis, identify_loops
from .neighborhood import IndexData, compute_indices
from .params import SkeletonParams
from .refine import SkeletonGraph, refine_skeleton
from .result import SkeletonResult
from .voronoi import VoronoiDecomposition, build_voronoi, voronoi_from_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Tracer

__all__ = ["SkeletonExtractor", "extract_skeleton", "empty_skeleton_result",
           "finish_skeleton", "stage_span"]


def stage_span(tracer: Optional["Tracer"], name: str):
    """A wall-clock span over one pipeline stage, or a no-op without a
    tracer — the single guard every entry point shares."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, category="pipeline")


def empty_skeleton_result(network: SensorNetwork,
                          params: SkeletonParams,
                          index_data: Optional[IndexData] = None) -> SkeletonResult:
    """A degenerate (but fully-formed) result for runs that yield nothing.

    Covers the graceful edge cases: an empty network, and a faulty
    distributed run in which no node survived to elect itself critical.
    Every artifact is present and empty, so downstream consumers (metrics,
    rendering, experiments) need no special-casing.
    """
    n = network.num_nodes
    if index_data is None:
        index_data = IndexData(khop_sizes=[0] * n, centrality=[0.0] * n,
                               index=[0.0] * n)
    voronoi = voronoi_from_entries(network, [], ([], [], []),
                                   FloodTable.empty())
    coarse = CoarseSkeleton(network=network, nodes=set(), edges=set(), sites=[])
    return SkeletonResult(
        network=network,
        params=params,
        index_data=index_data,
        critical_nodes=[],
        voronoi=voronoi,
        coarse=coarse,
        loop_analysis=LoopAnalysis(loops=[], kept_pairs=set(), removed_pairs=set()),
        skeleton=SkeletonGraph(nodes=set(), edges=set()),
        segmentation=Segmentation(segments={}),
        boundary_nodes=set(),
    )


def finish_skeleton(network: SensorNetwork,
                    params: SkeletonParams,
                    index_data: IndexData,
                    critical: List[int],
                    voronoi: VoronoiDecomposition,
                    coarse: CoarseSkeleton,
                    tracer: Optional["Tracer"] = None) -> SkeletonResult:
    """Stage 4 and both by-products over stage 1–3 artifacts, assembled
    into the result record.

    Stages 3–4 read only the cells and the index, so every execution —
    monolithic, sharded, distributed — ends here, whatever built its
    artifacts.  Runs under one ``stage4:refine`` span.
    """
    with stage_span(tracer, "stage4:refine"):
        # By-product 2 first (Fig. 3b): the boundary nodes double as the
        # hole evidence for loop classification.
        boundary = detect_boundary_nodes(
            network, index_data.khop_sizes, params.boundary_threshold_factor
        )

        # Stage 4 — identify loops, drop fakes, prune (Fig. 1e–h).
        analysis = identify_loops(
            coarse, voronoi, params,
            boundary_nodes=boundary, index=index_data.index,
            tracer=tracer,
        )
        skeleton = refine_skeleton(coarse, analysis, voronoi, params)

        # By-product 1 (Fig. 3a).
        segmentation = segmentation_from_voronoi(voronoi)

    return SkeletonResult(
        network=network,
        params=params,
        index_data=index_data,
        critical_nodes=critical,
        voronoi=voronoi,
        coarse=coarse,
        loop_analysis=analysis,
        skeleton=skeleton,
        segmentation=segmentation,
        boundary_nodes=boundary,
    )


class SkeletonExtractor:
    """Boundary-free, connectivity-only skeleton extraction.

    Usage::

        extractor = SkeletonExtractor(SkeletonParams(k=4, l=4))
        result = extractor.extract(network)
        result.skeleton_nodes        # the refined skeleton
        result.segmentation         # by-product 1 (Fig. 3a)
        result.boundary_nodes       # by-product 2 (Fig. 3b)
    """

    def __init__(self, params: Optional[SkeletonParams] = None, cache=None):
        self.params = params if params is not None else SkeletonParams()
        #: optional :class:`repro.perf.ArtifactCache` memoizing the
        #: expensive stage artifacts (indices, voronoi) across extractions.
        self.cache = cache

    def extract(self, network: SensorNetwork,
                tracer: Optional["Tracer"] = None) -> SkeletonResult:
        """Run all four stages and return the full result record.

        An empty network yields an empty-but-complete result rather than an
        error: production pipelines feed arbitrary deployments and a
        zero-node slice is a valid (if vacuous) input.  A *tracer* records
        one wall-clock span per stage; it never affects the result.
        """
        params = self.params
        if network.num_nodes == 0:
            return empty_skeleton_result(network, params)

        # Stage 1 — skeleton node identification (Fig. 1b).
        with stage_span(tracer, "stage1:identification"):
            index_data = compute_indices(network, params,
                                         cache=self.cache, tracer=tracer)
            critical = find_critical_nodes(network, index_data, params)

        # Stage 2 — Voronoi cells and segment nodes (Fig. 1c).
        with stage_span(tracer, "stage2:voronoi"):
            voronoi = build_voronoi(network, critical, params,
                                    cache=self.cache, tracer=tracer)

        # Stage 3 — coarse skeleton (Fig. 1d).
        with stage_span(tracer, "stage3:coarse"):
            coarse = build_coarse_skeleton(voronoi, index_data.index, params,
                                           tracer=tracer)

        return finish_skeleton(network, params, index_data, critical,
                               voronoi, coarse, tracer=tracer)


def extract_skeleton(network: SensorNetwork,
                     params: Optional[SkeletonParams] = None,
                     tracer: Optional["Tracer"] = None,
                     cache=None) -> SkeletonResult:
    """One-call convenience wrapper around :class:`SkeletonExtractor`."""
    return SkeletonExtractor(params, cache=cache).extract(network, tracer=tracer)
