"""Neighbourhood sizes, l-centrality and the node index (Section II-C).

These are the discrete analogues of the paper's continuous quantities:

* ``|N_k(p)|`` — the k-hop neighbourhood size, the discrete stand-in for the
  disk–region intersection area λ(D_i(p, kR)) (Theorem 1);
* ``c_l(p)`` — the l-centrality, Definition 3: the average k-hop size over
  p's l-hop neighbours, mirroring the ε-centrality integral of Definition 1;
* ``i(p) = (|N_k(p)| + c_l(p)) / 2`` — the index of Definition 4, the single
  scalar each node uses to decide whether it is a critical skeleton node.

Two interchangeable backends compute them: the pure-Python per-node BFS
(``backend="reference"``, the oracle) and the batched CSR kernels of
:class:`repro.network.TraversalEngine` (``backend="vectorized"``, the
default).  Sums are integral in both, so outputs are bit-identical; with
the paper's default ``k = l = 4`` the vectorized path computes sizes and
centrality in a single sweep of sparse ball products.
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
                       backend: str = "reference",
                       batch_width: Optional[int] = None) -> List[int]:
    """``|N_k(p)|`` for every node.

    This matches what the first round of controlled flooding delivers to
    each node in the distributed implementation.  ``backend="reference"``
    runs one bounded BFS per node; ``"vectorized"`` runs the batched CSR
    sweep of :class:`repro.network.TraversalEngine`.
    """
    if backend == "vectorized":
        engine = network.traversal(batch_width)
        return [int(s) for s in engine.all_khop_sizes(k, include_self=include_self)]
    return network.k_hop_sizes(k, include_self=include_self)


def compute_l_centrality(network: SensorNetwork, l: int,
                         khop_sizes: Sequence[int],
                         include_self: bool = True,
                         backend: str = "reference",
                         batch_width: Optional[int] = None) -> List[float]:
    """Definition 3: average k-hop size over each node's l-hop neighbours."""
    if len(khop_sizes) != network.num_nodes:
        raise ValueError("khop_sizes length must equal the node count")
    if backend == "vectorized":
        engine = network.traversal(batch_width)
        cent = engine.l_centrality(l, khop_sizes, include_self=include_self)
        return [float(c) for c in cent]
    centrality = []
    for node in network.nodes():
        reach = network.bfs_distances(node, max_hops=l)
        members = [v for v in reach if include_self or v != node]
        total = sum(khop_sizes[v] for v in members)
        centrality.append(total / len(members) if members else 0.0)
    return centrality


def compute_indices(network: SensorNetwork,
                    params: Optional[SkeletonParams] = None,
                    cache=None, tracer=None) -> IndexData:
    """Definition 4: the per-node index combining size and centrality.

    Using both metrics suppresses density noise better than the raw k-hop
    size alone (Section II-C) — the E-ABL bench quantifies that.  With the
    vectorized backend and ``l == k`` (the paper default) the k-hop reach
    is reused for the centrality accumulation instead of re-traversing.

    When *cache* (an :class:`repro.perf.ArtifactCache`) is given, the
    result is memoized under the graph's content hash and the parameters
    that actually determine it — ``k``, ``l``, ``include_self``.  The
    backend is deliberately *not* part of the key: the backends are
    bit-identical by contract (the cross-backend tests pin it), so runs
    that differ only in backend share the artifact.
    """
    params = params if params is not None else SkeletonParams()
    if cache is not None:
        return cache.get_or_build(
            "indices",
            (network.content_hash(), params.k, params.l, params.include_self),
            lambda: compute_indices(network, params, tracer=tracer),
            tracer=tracer,
        )
    if params.backend == "vectorized":
        engine = network.traversal(params.traversal_batch_width)
        sizes_arr, cent_arr = engine.khop_stats(
            params.k, params.l, include_self=params.include_self, tracer=tracer
        )
        # (s + c) / 2.0 in float64 is the same IEEE operation the
        # reference list comprehension performs element-wise.
        return IndexData(
            khop_sizes=sizes_arr.tolist(),
            centrality=cent_arr.tolist(),
            index=((sizes_arr + cent_arr) / 2.0).tolist(),
        )
    sizes = compute_khop_sizes(network, params.k, include_self=params.include_self)
    centrality = compute_l_centrality(
        network, params.l, sizes, include_self=params.include_self
    )
    index = [(s + c) / 2.0 for s, c in zip(sizes, centrality)]
    return IndexData(khop_sizes=sizes, centrality=centrality, index=index)
