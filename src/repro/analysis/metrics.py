"""Skeleton quality metrics.

The paper's evaluation is visual ("the obtained skeletons are all desirable
and they capture very well the global geometric and topological features");
to make the reproduction checkable we quantify exactly those properties:

* **medialness** — how close extracted skeleton nodes sit to the true
  (continuous) medial axis of the deployment field, in units of the radio
  range;
* **coverage** — how much of the medial axis the skeleton spans;
* **homotopy** — whether the skeleton's independent-cycle count matches the
  number of field holes *the network actually preserves* (a sparse
  deployment can leak a hole through a void in a corridor, in which case
  that hole is genuinely absent from the connectivity graph the algorithm
  sees);
* **connectivity** and size statistics.

All ground-truth helpers consume node positions and the field — legitimate
for *evaluation*, never used by the extraction itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..geometry.medial_axis import MedialAxisApproximation, approximate_medial_axis
from ..geometry.polygon import Field
from ..geometry.primitives import Point, segments_intersect
from ..network.graph import SensorNetwork

__all__ = [
    "SkeletonQuality",
    "evaluate_skeleton",
    "preserved_holes",
    "network_wraps_point",
    "boundary_detection_quality",
]


@dataclass(frozen=True)
class SkeletonQuality:
    """Quality summary of one extracted skeleton.

    Attributes:
        num_nodes: skeleton size.
        connected: whether the skeleton subgraph is connected.
        cycle_count: independent cycles of the skeleton.
        preserved_hole_count: field holes the network actually wraps —
            the homotopy target.
        homotopy_ok: ``cycle_count == preserved_hole_count``.
        mean_medialness: mean distance from skeleton nodes to the true
            medial axis, in radio ranges (lower is better).
        max_medialness: worst-case distance, in radio ranges.
        coverage: fraction of medial-axis samples within two radio ranges
            of some skeleton node (higher is better).
    """

    num_nodes: int
    connected: bool
    cycle_count: int
    preserved_hole_count: int
    homotopy_ok: bool
    mean_medialness: float
    max_medialness: float
    coverage: float


def network_wraps_point(network: SensorNetwork, target: Point,
                        probe_step: float = 1.0,
                        margin: float = 3.0) -> bool:
    """True when the network's links topologically enclose *target*.

    Evaluation ground truth: grid-flood from *target*, moving in
    *probe_step* increments, blocked by network edges (as segments).  If
    the flood escapes the deployment bounding box, nothing encloses the
    point — e.g. a field hole whose surrounding corridor was cut by a
    deployment void.
    """
    if network.num_nodes == 0:
        return False
    edges: List[Tuple[Point, Point]] = []
    for u in network.nodes():
        for v in network.adjacency[u]:
            if u < v:
                edges.append((network.positions[u], network.positions[v]))
    if not edges:
        return False
    from scipy.spatial import cKDTree

    mids = np.array([[(a.x + b.x) / 2, (a.y + b.y) / 2] for a, b in edges])
    tree = cKDTree(mids)
    # Longest edge bounds how far a blocking edge's midpoint can be.
    reach = max(a.distance_to(b) for a, b in edges) / 2 + probe_step

    xs = [p.x for p in network.positions]
    ys = [p.y for p in network.positions]
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = min(ys) - margin, max(ys) + margin

    def blocked(x0: float, y0: float, x1: float, y1: float) -> bool:
        p, q = Point(x0, y0), Point(x1, y1)
        for idx in tree.query_ball_point([(x0 + x1) / 2, (y0 + y1) / 2], r=reach):
            a, b = edges[idx]
            if segments_intersect(p, q, a, b):
                return True
        return False

    start = (round(target.x / probe_step), round(target.y / probe_step))
    seen = {start}
    queue = deque([start])
    while queue:
        gx, gy = queue.popleft()
        x, y = gx * probe_step, gy * probe_step
        if x < min_x or x > max_x or y < min_y or y > max_y:
            return False  # escaped: not enclosed
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (gx + dx, gy + dy)
            if nxt in seen:
                continue
            if not blocked(x, y, (gx + dx) * probe_step, (gy + dy) * probe_step):
                seen.add(nxt)
                queue.append(nxt)
    return True


def preserved_holes(network: SensorNetwork,
                    field: Optional[Field] = None) -> int:
    """Number of field holes the network topologically preserves.

    A hole survives when the network's links still enclose its centroid;
    sparse deployments can cut the corridor around a hole, merging it with
    the outside — such a hole is absent from the connectivity graph and no
    connectivity-only algorithm can (or should) produce a loop for it.
    """
    field = field if field is not None else network.field
    if field is None:
        raise ValueError("network has no deployment field attached")
    count = 0
    for hole in field.holes:
        if network_wraps_point(network, hole.centroid):
            count += 1
    return count


def evaluate_skeleton(
    network: SensorNetwork,
    skeleton_nodes: Iterable[int],
    skeleton_edges: Iterable[frozenset],
    medial_axis: Optional[MedialAxisApproximation] = None,
    preserved_hole_count: Optional[int] = None,
) -> SkeletonQuality:
    """Grade an extracted skeleton against the continuous ground truth.

    *medial_axis* and *preserved_hole_count* can be precomputed and shared
    across runs over the same network (both are by far the most expensive
    parts of the evaluation).
    """
    field = network.field
    if field is None:
        raise ValueError("network has no deployment field attached")
    nodes = sorted(set(skeleton_nodes))
    edges = {frozenset(e) for e in skeleton_edges}

    if medial_axis is None:
        medial_axis = approximate_medial_axis(field)
    if preserved_hole_count is None:
        preserved_hole_count = preserved_holes(network, field)

    radio_range = (
        network.radio.communication_range if network.radio is not None else 1.0
    )
    positions = [network.positions[v] for v in nodes]
    distances = medial_axis.distances_to_axis(positions)
    mean_med = float(np.mean(distances)) / radio_range if len(distances) else math.inf
    max_med = float(np.max(distances)) / radio_range if len(distances) else math.inf
    coverage = medial_axis.coverage_by(positions, radius=2.0 * radio_range)

    # Connectivity and cycle rank of the skeleton subgraph.
    adjacency = {v: set() for v in nodes}
    for e in edges:
        a, b = tuple(e)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen: Set[int] = set()
    components = 0
    for start in adjacency:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    connected = components <= 1
    cycle_count = len(edges) - len(adjacency) + components

    return SkeletonQuality(
        num_nodes=len(nodes),
        connected=connected,
        cycle_count=cycle_count,
        preserved_hole_count=preserved_hole_count,
        homotopy_ok=cycle_count == preserved_hole_count,
        mean_medialness=mean_med,
        max_medialness=max_med,
        coverage=coverage,
    )


def boundary_detection_quality(network: SensorNetwork,
                               detected: Set[int],
                               tolerance: Optional[float] = None) -> Tuple[float, float]:
    """(precision, recall) of detected boundary nodes vs geometric truth.

    Ground truth: nodes within *tolerance* (default: radio range) of ∂D.
    """
    field = network.field
    if field is None:
        raise ValueError("network has no deployment field attached")
    if tolerance is None:
        tolerance = (
            network.radio.communication_range if network.radio is not None else 1.0
        )
    truth = {
        v for v in network.nodes()
        if field.is_boundary_point(network.positions[v], tolerance)
    }
    if not detected:
        return (0.0, 0.0 if truth else 1.0)
    tp = len(detected & truth)
    precision = tp / len(detected)
    recall = tp / len(truth) if truth else 1.0
    return (precision, recall)
