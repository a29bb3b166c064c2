"""Algorithm parameters with the paper's defaults.

The paper uses ``k = l = 4`` for skeleton node identification (Section IV),
``α = 1`` as the segment-node tie threshold (Section III-B), and prunes
"branches with small length" (Section III-D).  Section V-B argues the
algorithm is not sensitive to k and l — the parameter-sensitivity bench
(E-SEC5B) verifies that claim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["LoopStrategy", "SkeletonParams"]


class LoopStrategy(enum.Enum):
    """How cycles of the coarse skeleton are classified genuine vs fake.

    ``BOUNDARY`` (default) keeps a cycle only when the boundary nodes it
    encloses cover it all the way around — hole boundaries are the loop
    evidence, mirroring the role boundary nodes play for the paper's end
    nodes.  ``VORONOI_WITNESS`` follows the paper's observation that a small
    end-node loop "indicat[es] that there is at least one Voronoi node": a
    cycle is fake iff some Voronoi node is near-equidistant to *all* of the
    cycle's sites (at least three records).  ``INTERIOR`` keeps a cycle that
    encloses a large skeleton-free component.  All strategies also treat
    cycles shorter than ``min_loop_hops`` as fake.
    """

    BOUNDARY = "boundary"
    VORONOI_WITNESS = "voronoi_witness"
    INTERIOR = "interior"


@dataclass(frozen=True)
class SkeletonParams:
    """Tunable knobs of the extraction pipeline (paper defaults).

    Attributes:
        k: hop radius of the neighbourhood-size flooding (Definition 2).
        l: hop radius of the l-centrality averaging (Definition 3).
        alpha: hop-count tie threshold for segment nodes (Section III-B).
        local_max_hops: radius over which an index must be maximal for a
            node to declare itself critical (Definition 5 says "locally
            maximal"; 1 = strictly above all 1-hop neighbours with
            deterministic tie-breaking).
        include_self: count a node in its own k-hop neighbourhood and
            l-centrality average.
        prune_length: skeleton branches shorter than this many hops are
            trimmed in the final clean-up.
        loop_strategy: fake-loop classification strategy (Section III-D).
        boundary_threshold_factor: k-hop sizes below this fraction of the
            network median flag a node as boundary (the Fig. 3b by-product,
            also the hole evidence of the BOUNDARY loop strategy).
        isoperimetric_threshold: BOUNDARY strategy — a cycle is genuine only
            when its length is at least ``threshold × 2π × c_max``, where
            ``c_max`` is the largest hop-clearance inside it; contractible
            cycles fit in a boundary-free disk and stay below 1.
        interior_factor: INTERIOR strategy — an enclosed skeleton-free
            component must hold at least ``interior_factor × |cycle|`` nodes.
        min_loop_hops: cycles shorter than this many hops are always fake —
            they cannot wrap a hole that matters at hop resolution (the
            discrete analogue of the paper's end-node-loop threshold).
        traversal_batch_width: number of nodes whose k-hop reach rows the
            traversal engine (:class:`repro.network.TraversalEngine`)
            builds per batch — bounds the stage-1 working set to one
            sparse ``batch_width × |N_k|`` reach block.
    """

    k: int = 4
    l: int = 4
    alpha: int = 1
    local_max_hops: int = 1
    include_self: bool = True
    prune_length: int = 4
    loop_strategy: LoopStrategy = LoopStrategy.BOUNDARY
    boundary_threshold_factor: float = 0.67
    isoperimetric_threshold: float = 1.4
    interior_factor: float = 0.5
    min_loop_hops: int = 10
    traversal_batch_width: int = 1024

    def __post_init__(self) -> None:
        if not isinstance(self.loop_strategy, LoopStrategy):
            valid = ", ".join(f"LoopStrategy.{s.name}" for s in LoopStrategy)
            raise ValueError(f"loop_strategy must be one of {valid}, "
                             f"got {self.loop_strategy!r}")
        if self.traversal_batch_width < 1:
            raise ValueError("traversal_batch_width must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.local_max_hops < 1:
            raise ValueError("local_max_hops must be >= 1")
        if self.prune_length < 0:
            raise ValueError("prune_length must be >= 0")
        if self.min_loop_hops < 0:
            raise ValueError("min_loop_hops must be >= 0")
        for name in ("boundary_threshold_factor", "isoperimetric_threshold",
                     "interior_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value!r}")
