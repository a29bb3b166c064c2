"""Critical skeleton node identification (Definitions 2–5).

A node whose index is locally maximal declares itself a *critical skeleton
node* (Definition 5).  "Locally maximal" is evaluated over the node's
``local_max_hops``-hop neighbourhood; ties are broken by node id so that a
plateau of equal indices elects exactly one critical node instead of zero
(strict comparison) or all (non-strict) — the discrete networks the paper
targets make exact ties common at small k.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..network.graph import SensorNetwork
from .neighborhood import IndexData, compute_indices
from .params import SkeletonParams

__all__ = ["find_critical_nodes"]


def find_critical_nodes(network: SensorNetwork,
                        index_data: Optional[IndexData] = None,
                        params: Optional[SkeletonParams] = None) -> List[int]:
    """All critical skeleton nodes of the network, in id order.

    Guarantees at least one critical node on a non-empty network: the global
    maximum of the (index, id) order is locally maximal everywhere.
    """
    params = params if params is not None else SkeletonParams()
    if index_data is None:
        index_data = compute_indices(network, params)
    engine = network.traversal(params.traversal_batch_width)
    maxima = engine.all_local_maxima(index_data.index,
                                     hops=params.local_max_hops)
    return np.flatnonzero(maxima).tolist()
