"""Final clean-up: remove fake loops, keep genuine ones, prune (§III-D).

Fake loops — junction triangles from three or more mutually adjacent
Voronoi cells, plus the path braids realization introduces — make the
skeleton non-homotopic to the network and must go, while hole-wrapping
loops must stay.  The paper merges adjacent fake loops and re-extracts the
local skeleton inside each; node deletion on a shared-node tangle of cycles
is brittle, so this implementation reaches the same end state by
*reconstruction*:

1. classify the coarse skeleton's minimum-cycle-basis elements
   (:mod:`repro.core.loops`);
2. rebuild the skeleton as **all edges of genuine cycles** plus a spanning
   set of the remaining coarse edges (union-find): every genuine loop
   survives verbatim, every fake loop loses exactly its redundant strand,
   connectivity is preserved, and the final cycle rank provably equals the
   number of genuine loops;
3. prune dangling branches shorter than ``prune_length`` hops.

The outcome matches the paper's merge-and-delete semantics — fake loops
vanish, the skeleton stays connected and homotopic — with a deterministic,
order-independent construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .coarse import CoarseSkeleton, SkeletonEdge
from .loops import Loop, LoopAnalysis
from .params import SkeletonParams

__all__ = [
    "SkeletonGraph",
    "merge_fake_loops",
    "rebuild_with_genuine_loops",
    "prune_short_branches",
    "refine_skeleton",
]


@dataclass
class SkeletonGraph:
    """A mutable skeleton subgraph used during refinement."""

    nodes: Set[int]
    edges: Set[SkeletonEdge]

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {v: set() for v in self.nodes}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def remove_nodes(self, drop: Set[int]) -> None:
        self.nodes -= drop
        self.edges = {e for e in self.edges if not (e & drop)}

    def add_path(self, path: Sequence[int]) -> None:
        """Add a node path and its consecutive edges."""
        self.nodes.update(path)
        for a, b in zip(path, path[1:]):
            if a != b:
                self.edges.add(frozenset((a, b)))

    def drop_isolated_nodes(self) -> None:
        """Remove nodes that no longer carry any edge."""
        if not self.edges:
            return
        used: Set[int] = set()
        for e in self.edges:
            used |= e
        self.nodes &= used

    def cycle_rank(self) -> int:
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


def merge_fake_loops(loops: Sequence[Loop]) -> List[List[Loop]]:
    """Group fake loops that share skeleton nodes into merged regions.

    Mirrors the paper's merge sub-step (Fig. 1f): adjacent fake loops act
    as one larger fake region.  Returned groups are used by analysis and
    rendering; the rebuild itself handles all fakes uniformly.
    """
    fakes = [loop for loop in loops if loop.is_fake]
    groups: List[List[Loop]] = []
    assigned = [False] * len(fakes)
    for i, seed in enumerate(fakes):
        if assigned[i]:
            continue
        group = [seed]
        assigned[i] = True
        group_nodes = set(seed.nodes)
        grew = True
        while grew:
            grew = False
            for j, other in enumerate(fakes):
                if assigned[j]:
                    continue
                if group_nodes & other.nodes:
                    group.append(other)
                    group_nodes |= other.nodes
                    assigned[j] = True
                    grew = True
        groups.append(group)
    return groups


class _UnionFind:
    """Minimal union-find over arbitrary hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; True when they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True


def rebuild_with_genuine_loops(skeleton: CoarseSkeleton,
                               analysis: "LoopAnalysis") -> SkeletonGraph:
    """Reconstruct the skeleton from the kept connections and genuine loops.

    Edge pool: the realized paths of the connections the loop clean-up kept
    (paths of dropped connections vanish with their fake loops).  Edge
    selection: first every edge of every genuine ring (their cycles close —
    that is the point), then remaining pool edges in deterministic order but
    only when they join two still-separate components, so realization
    braids lose their redundant strand while every node stays reachable.
    """
    pool: Set[SkeletonEdge] = set()
    for pair in analysis.kept_pairs:
        path = skeleton.pair_paths.get(pair)
        if not path:
            continue
        for i in range(len(path) - 1):
            if path[i] != path[i + 1]:
                pool.add(frozenset((path[i], path[i + 1])))

    genuine_edges: Set[SkeletonEdge] = set()
    for loop in analysis.genuine:
        genuine_edges |= loop.edges
    genuine_edges &= pool  # safety: only realized edges

    uf = _UnionFind()
    kept: Set[SkeletonEdge] = set()
    for e in sorted(genuine_edges, key=lambda e: tuple(sorted(e))):
        a, b = tuple(e)
        uf.union(a, b)
        kept.add(e)
    for e in sorted(pool - genuine_edges, key=lambda e: tuple(sorted(e))):
        a, b = tuple(e)
        if uf.union(a, b):
            kept.add(e)

    graph = SkeletonGraph(nodes=set(), edges=kept)
    for e in kept:
        graph.nodes |= e
    # Isolated sites (a cell with no adjacent cell) stay as single nodes.
    graph.nodes |= {s for s in skeleton.sites}
    return graph


def prune_short_branches(graph: SkeletonGraph,
                         min_length: int) -> SkeletonGraph:
    """Trim dangling branches shorter than *min_length* hops.

    A branch runs from a leaf to the first junction (skeleton degree ≥ 3).
    Whole-skeleton paths (no junction at all) are never pruned away — a
    corridor network's skeleton *is* one path.

    The adjacency is built once and updated as branches go.  A branch walk
    only steps out of nodes with one neighbour besides the one it came
    from, so set iteration order never picks its way.
    """
    if min_length <= 0:
        return graph
    adj = graph.adjacency()
    changed = True
    while changed:
        changed = False
        leaves = sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
        for leaf in leaves:
            if len(adj.get(leaf, ())) != 1:
                continue
            branch = [leaf]
            current = leaf
            prev = None
            reached_junction = False
            while True:
                if current != leaf and len(adj[current]) >= 3:
                    reached_junction = True
                    branch.pop()  # the junction itself stays
                    break
                if len(branch) > min_length + 1:
                    break  # long enough to survive regardless
                nbrs = [v for v in adj[current] if v != prev]
                if not nbrs:
                    break  # other end of a bare path
                prev, current = current, nbrs[0]
                branch.append(current)
            if reached_junction and 0 < len(branch) <= min_length:
                drop = set(branch)
                for v in drop:
                    for w in adj.pop(v):
                        graph.edges.discard(frozenset((v, w)))
                        if w not in drop:
                            adj[w].discard(v)
                graph.nodes -= drop
                changed = True
    return graph


def refine_skeleton(
    skeleton: CoarseSkeleton,
    analysis: "LoopAnalysis",
    voronoi=None,
    params: Optional[SkeletonParams] = None,
) -> SkeletonGraph:
    """Run the full clean-up: rebuild around the loop analysis, then prune.

    *voronoi* is accepted for signature stability (the loop analysis that
    consumed it already ran); the rebuild itself needs only the analysis.
    """
    params = params if params is not None else SkeletonParams()
    graph = rebuild_with_genuine_loops(skeleton, analysis)
    graph = prune_short_branches(graph, params.prune_length)
    return graph
