"""Coarse skeleton establishment (Section III-C).

For every pair of adjacent Voronoi cells, the segment node with the largest
index sends a message down the two reverse paths it recorded during cell
construction, connecting the pair's sites.  The union of all those paths is
the coarse skeleton — a subgraph of the network whose vertices are "skeleton
nodes" from here on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..network.graph import SensorNetwork
from .params import SkeletonParams
from .voronoi import SitePair, VoronoiDecomposition

__all__ = ["SkeletonEdge", "CoarseSkeleton", "build_coarse_skeleton",
           "ConnectorPlan", "plan_connectors", "compose_pair_path",
           "path_edges"]

SkeletonEdge = FrozenSet[int]
"""An undirected skeleton edge between two network nodes."""


@dataclass
class CoarseSkeleton:
    """A skeleton as a subgraph of the sensor network.

    Attributes:
        nodes: all skeleton nodes (sites, connectors, path nodes).
        edges: undirected edges between consecutive path nodes.
        sites: the critical skeleton nodes the skeleton connects.
        connectors: per adjacent pair, the chosen segment node.
        pair_paths: per adjacent pair, the full site-to-site node path
            (through the connector).
    """

    network: SensorNetwork
    nodes: Set[int]
    edges: Set[SkeletonEdge]
    sites: List[int]
    connectors: Dict[SitePair, int] = field(default_factory=dict)
    pair_paths: Dict[SitePair, List[int]] = field(default_factory=dict)

    def degree(self, node: int) -> int:
        return sum(1 for e in self.edges if node in e)

    def neighbors_in_skeleton(self, node: int) -> List[int]:
        out = []
        for e in self.edges:
            if node in e:
                a, b = tuple(e)
                out.append(b if a == node else a)
        return sorted(out)

    def adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency map of the skeleton subgraph."""
        adj: Dict[int, Set[int]] = {v: set() for v in self.nodes}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(tuple(e) for e in self.edges)
        return g

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj = self.adjacency()
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self.nodes)

    def cycle_rank(self) -> int:
        """Number of independent cycles: |E| - |V| + #components."""
        adj = self.adjacency()
        seen: Set[int] = set()
        components = 0
        for start in self.nodes:
            if start in seen:
                continue
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return len(self.edges) - len(self.nodes) + components


def path_edges(path: Sequence[int]) -> List[SkeletonEdge]:
    """The undirected skeleton edges between consecutive path nodes."""
    return [frozenset((path[i], path[i + 1])) for i in range(len(path) - 1)]


ConnectorPlan = Tuple[SitePair, Tuple[int, int], Tuple[int, int], bool]
"""One planned pair connection: ``(pair, (site_a, endpoint_a),
(site_b, endpoint_b), joined)``.  ``joined`` marks the two half paths
meeting at a shared connector node (vs at a border edge)."""


def plan_connectors(
    adjacent_pairs: Sequence[SitePair],
    pair_segments: Dict[SitePair, List[int]],
    pair_border_edges: Dict[SitePair, List[Tuple[int, int]]],
    index: Sequence[float],
) -> Tuple[Dict[SitePair, int], List[ConnectorPlan]]:
    """Pass 1 of coarse-skeleton establishment: pick every pair's connector.

    The connector for a pair is the segment node with the largest index
    among all segment nodes recording both sites (ties broken by node id);
    a pair with no segment node falls back to the best edge crossing its
    cell border.  Pure function of the cell structures.
    """
    connectors: Dict[SitePair, int] = {}
    plans: List[ConnectorPlan] = []
    for pair in adjacent_pairs:
        site_a, site_b = pair
        candidates = pair_segments.get(pair, [])
        if candidates:
            connector = max(candidates, key=lambda v: (index[v], v))
            connectors[pair] = connector
            plans.append((pair, (site_a, connector), (site_b, connector), True))
        else:
            # Low-density fallback (no segment node on this border): route
            # through the best edge crossing the border.
            border = pair_border_edges[pair]
            u, v = max(border, key=lambda e: (index[e[0]] + index[e[1]], e))
            connectors[pair] = u if index[u] >= index[v] else v
            plans.append((pair, (site_a, u), (site_b, v), False))
    return connectors, plans


def compose_pair_path(path_a: Sequence[int], path_b: Sequence[int],
                      joined: bool) -> List[int]:
    """Full site-to-site path from the two reverse half paths.

    ``path_a``/``path_b`` run endpoint → site (the stored reverse-path
    direction); the result runs site_a → site_b, with a shared connector
    endpoint appearing once.
    """
    return list(reversed(path_a)) + (list(path_b[1:]) if joined else list(path_b))


def build_coarse_skeleton(
    voronoi: VoronoiDecomposition,
    index: Sequence[float],
    params: Optional[SkeletonParams] = None,
    tracer=None,
) -> CoarseSkeleton:
    """Connect all adjacent sites through their best segment nodes.

    The connector for a pair is the segment node with the largest index
    among all segment nodes recording both sites (ties broken by node id,
    the discrete stand-in for "the chosen segment node" being unique).

    Path emission groups all endpoints of a site and reconstructs them in
    one lockstep gather per hop level.  Raises ``ValueError`` if an
    endpoint did not record its site.
    """
    params = params if params is not None else SkeletonParams()
    engine = voronoi.network.traversal(params.traversal_batch_width)

    # Pass 1 — pick each pair's connector and record which (site, endpoint)
    # reverse paths realizing it will need.
    connectors, plans = plan_connectors(
        voronoi.adjacent_pairs(), voronoi.pair_segments,
        voronoi.pair_border_edges, index,
    )
    requests: Dict[int, Set[int]] = {}
    for _, (site_a, node_a), (site_b, node_b), _joined in plans:
        requests.setdefault(site_a, set()).add(node_a)
        requests.setdefault(site_b, set()).add(node_b)

    # Pass 2 — walk every reverse path in the flood table, batched per site.
    resolved: Dict[Tuple[int, int], List[int]] = {}
    for site in sorted(requests):
        targets = sorted(requests[site])
        paths = engine.reconstruct_paths(
            voronoi.site_parent_row(site, targets), targets, tracer=tracer)
        resolved.update(((site, node), path)
                        for node, path in zip(targets, paths))

    # Pass 3 — stitch each pair's path from its two halves.
    nodes: Set[int] = set(voronoi.sites)
    edges: Set[SkeletonEdge] = set()
    pair_paths: Dict[SitePair, List[int]] = {}
    for pair, (site_a, node_a), (site_b, node_b), joined in plans:
        full = compose_pair_path(resolved[(site_a, node_a)],
                                 resolved[(site_b, node_b)], joined)
        pair_paths[pair] = full
        nodes.update(full)
        edges.update(path_edges(full))
    return CoarseSkeleton(
        network=voronoi.network,
        nodes=nodes,
        edges=edges,
        sites=list(voronoi.sites),
        connectors=connectors,
        pair_paths=pair_paths,
    )
