"""Shared medial machinery for the MAP and CASE baselines.

Both baselines reason about each node's *nearest boundary witnesses*: MAP
declares a node medial when it is equidistant to two well-separated
boundary nodes; CASE when its witnesses belong to different boundary
branches.  This module computes, for every node, the hop distance to the
boundary and a small set of witness boundary nodes, by a multi-source BFS
that merges witness labels along shortest-path predecessors.

Witness sets are capped and kept spatially diverse (a node equidistant to a
stretch of wall should keep witnesses from the stretch's ends, not three
adjacent samples of it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..network.graph import SensorNetwork

__all__ = ["WitnessField", "compute_witness_field"]


@dataclass
class WitnessField:
    """Per-node boundary distances and witness sets.

    Attributes:
        distance: hop distance to the nearest boundary node (0 on the
            boundary itself; ``num_nodes`` when unreachable).
        witnesses: up to ``cap`` nearest boundary nodes per node, kept
            mutually spread out.
    """

    distance: List[int]
    witnesses: List[Tuple[int, ...]]

    def clearance(self, node: int) -> int:
        return self.distance[node]


def _diverse_merge(network: SensorNetwork, current: Tuple[int, ...],
                   incoming: Sequence[int], cap: int) -> Tuple[int, ...]:
    """Merge witness tuples, keeping at most *cap* mutually-far witnesses."""
    merged = list(current)
    for w in incoming:
        if w in merged:
            continue
        if len(merged) < cap:
            merged.append(w)
            continue
        # Replace the closest pair member if the newcomer spreads us out.
        pw = network.positions[w]
        # Find current closest pair.
        closest = None
        closest_d = None
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                d = network.positions[merged[i]].distance_to(network.positions[merged[j]])
                if closest_d is None or d < closest_d:
                    closest_d = d
                    closest = (i, j)
        if closest is None:
            continue
        i, j = closest
        # Try replacing either member of the closest pair with w.
        for idx in (i, j):
            trial = merged[:idx] + [w] + merged[idx + 1:]
            min_d = min(
                network.positions[trial[a]].distance_to(network.positions[trial[b]])
                for a in range(len(trial)) for b in range(a + 1, len(trial))
            )
            if closest_d is not None and min_d > closest_d:
                merged = trial
                break
    return tuple(sorted(merged))


def compute_witness_field(network: SensorNetwork, boundary_nodes: Set[int],
                          cap: int = 3) -> WitnessField:
    """Multi-source BFS from the boundary with witness propagation.

    Runs one exact distance BFS, then sweeps nodes in increasing distance
    order, merging each node's witnesses from its strictly-closer
    neighbours (boundary nodes witness themselves).
    """
    if not boundary_nodes:
        raise ValueError("boundary_nodes must be non-empty")
    unreached = network.num_nodes
    distance = [unreached] * network.num_nodes
    queue = deque()
    for b in boundary_nodes:
        distance[b] = 0
        queue.append(b)
    while queue:
        u = queue.popleft()
        for v in network.neighbors(u):
            if distance[v] > distance[u] + 1:
                distance[v] = distance[u] + 1
                queue.append(v)

    witnesses: List[Tuple[int, ...]] = [() for _ in network.nodes()]
    order = sorted(network.nodes(), key=lambda v: distance[v])
    for v in order:
        if distance[v] == 0:
            witnesses[v] = (v,)
            continue
        if distance[v] >= unreached:
            continue
        merged: Tuple[int, ...] = ()
        for u in network.neighbors(v):
            if distance[u] == distance[v] - 1 and witnesses[u]:
                merged = _diverse_merge(network, merged, witnesses[u], cap)
        witnesses[v] = merged
    return WitnessField(distance=distance, witnesses=witnesses)
