"""Boundary recognition substrate for the MAP and CASE baselines.

Both comparators named by the paper *assume identified boundaries* — the
very requirement the paper removes.  This module supplies that input two
ways:

* :func:`geometric_boundary_nodes` — ground truth from the deployment
  field (the baselines' stated operating assumption: boundaries "identified
  correctly, either manually or by using existing solutions");
* :func:`connectivity_boundary_nodes` — the Fekete-style neighbourhood-size
  detector the paper cites ([8]), so the comparison bench can show how the
  baselines degrade when boundary detection is imperfect.

Boundary *cycles* (outer + one per hole) are recovered by grouping boundary
nodes into connected components, which MAP and CASE both need to reason
about boundary branches.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from ..core.byproducts import detect_boundary_nodes
from ..core.neighborhood import compute_khop_sizes
from ..network.graph import SensorNetwork

__all__ = [
    "geometric_boundary_nodes",
    "connectivity_boundary_nodes",
    "boundary_components",
]


def geometric_boundary_nodes(network: SensorNetwork,
                             tolerance: Optional[float] = None) -> Set[int]:
    """Ground-truth boundary nodes: within *tolerance* of the field's ∂D.

    *tolerance* defaults to the radio range (a node within one hop's reach
    of the boundary wall).  Requires the network to carry its field.
    """
    if network.field is None:
        raise ValueError("network has no deployment field attached")
    if tolerance is None:
        if network.radio is None:
            raise ValueError("provide a tolerance or attach a radio model")
        tolerance = network.radio.communication_range
    return {
        node
        for node in network.nodes()
        if network.field.is_boundary_point(network.positions[node], tolerance)
    }


def connectivity_boundary_nodes(network: SensorNetwork, k: int = 4,
                                threshold_factor: float = 0.67) -> Set[int]:
    """Connectivity-only detection: k-hop size below a median fraction.

    This is the detector the paper inherits from Fekete et al. [8]; the
    paper's Fig. 3(b) by-product uses the same signal.
    """
    sizes = compute_khop_sizes(network, k)
    return detect_boundary_nodes(network, sizes, threshold_factor)


def boundary_components(network: SensorNetwork, boundary_nodes: Set[int],
                        glue_hops: int = 2,
                        min_size: int = 4) -> List[Set[int]]:
    """Group boundary nodes into boundary cycles, largest first.

    Nodes within *glue_hops* of each other belong to the same component
    (the detector leaves small gaps along a wall).  Components smaller than
    *min_size* are discarded as noise.  The largest component is the outer
    boundary; the rest approximate hole boundaries.
    """
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for start in sorted(boundary_nodes):
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            reach = network.bfs_distances(u, max_hops=glue_hops)
            for v in reach:
                if v in boundary_nodes and v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        if len(component) >= min_size:
            components.append(component)
    components.sort(key=len, reverse=True)
    return components
