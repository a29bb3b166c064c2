"""Neighbourhood sizes, l-centrality and the node index (Section II-C).

These are the discrete analogues of the paper's continuous quantities:

* ``|N_k(p)|`` — the k-hop neighbourhood size, the discrete stand-in for the
  disk–region intersection area λ(D_i(p, kR)) (Theorem 1);
* ``c_l(p)`` — the l-centrality, Definition 3: the average k-hop size over
  p's l-hop neighbours, mirroring the ε-centrality integral of Definition 1;
* ``i(p) = (|N_k(p)| + c_l(p)) / 2`` — the index of Definition 4, the single
  scalar each node uses to decide whether it is a critical skeleton node.

All three come from the batched CSR kernels of
:class:`repro.network.TraversalEngine`; with the paper's default
``k = l = 4`` the engine computes sizes and centrality in a single sweep
of sparse ball products.  Sums are integral, so each centrality is one
correctly rounded division, bit-identical to the per-node BFS of the
pure-Python reference engine the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..network.graph import SensorNetwork
from .params import SkeletonParams

__all__ = ["IndexData", "compute_khop_sizes", "compute_l_centrality", "compute_indices"]


@dataclass(frozen=True)
class IndexData:
    """Per-node neighbourhood statistics, indexed by node id."""

    khop_sizes: List[int]
    centrality: List[float]
    index: List[float]

    def __len__(self) -> int:
        return len(self.index)


def compute_khop_sizes(network: SensorNetwork, k: int,
                       include_self: bool = True,
                       batch_width: Optional[int] = None) -> List[int]:
    """``|N_k(p)|`` for every node.

    This matches what the first round of controlled flooding delivers to
    each node in the distributed implementation.
    """
    engine = network.traversal(batch_width)
    return engine.all_khop_sizes(k, include_self=include_self).tolist()


def compute_l_centrality(network: SensorNetwork, l: int,
                         khop_sizes: Sequence[int],
                         include_self: bool = True,
                         batch_width: Optional[int] = None) -> List[float]:
    """Definition 3: average k-hop size over each node's l-hop neighbours."""
    engine = network.traversal(batch_width)
    return engine.l_centrality(l, khop_sizes,
                               include_self=include_self).tolist()


def compute_indices(network: SensorNetwork,
                    params: Optional[SkeletonParams] = None,
                    cache=None, tracer=None) -> IndexData:
    """Definition 4: the per-node index combining size and centrality.

    Using both metrics suppresses density noise better than the raw k-hop
    size alone (Section II-C) — the E-ABL bench quantifies that.  With
    ``l == k`` (the paper default) the k-hop reach is reused for the
    centrality accumulation instead of re-traversing.

    When *cache* (an :class:`repro.perf.ArtifactCache`) is given, the
    result is memoized under the graph's content hash and the parameters
    that actually determine it — ``k``, ``l``, ``include_self``.  The
    batch width is not part of the key: it bounds the working set and
    never changes the result.
    """
    params = params if params is not None else SkeletonParams()
    if cache is not None:
        return cache.get_or_build(
            "indices",
            (network.content_hash(), params.k, params.l, params.include_self),
            lambda: compute_indices(network, params, tracer=tracer),
            tracer=tracer,
        )
    engine = network.traversal(params.traversal_batch_width)
    sizes, centrality = engine.khop_stats(
        params.k, params.l, include_self=params.include_self, tracer=tracer
    )
    return IndexData(
        khop_sizes=sizes.tolist(),
        centrality=centrality.tolist(),
        index=((sizes + centrality) / 2.0).tolist(),
    )
