"""Ground-truth medial axis approximation in the continuous domain.

The paper defines the skeleton via Blum's medial axis: the locus of centres
of maximal disks, equivalently the set of interior points with two or more
closest boundary points (Section II-B).  To grade an extracted skeleton we
approximate the true medial axis of a :class:`~repro.geometry.polygon.Field`
numerically:

1. sample the boundary ``∂D`` densely,
2. sample the interior on a regular grid,
3. keep interior samples that have two nearly-equidistant closest boundary
   samples whose mutual separation is large (the classical discrete medial
   axis test).

The result is a point-cloud approximation good enough for distance-based
quality metrics (see :mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polygon import Field
from .primitives import Point

__all__ = ["MedialAxisApproximation", "approximate_medial_axis"]


@dataclass
class MedialAxisApproximation:
    """A sampled approximation of a field's medial axis.

    Attributes:
        points: medial sample positions, shape ``(m, 2)``.
        clearances: distance from each medial sample to ``∂D``.
        boundary_points: the boundary samples used, shape ``(b, 2)``.
        grid_spacing: interior grid resolution used to build the set.
    """

    points: np.ndarray
    clearances: np.ndarray
    boundary_points: np.ndarray
    grid_spacing: float
    _tree: Optional["cKDTree"] = None

    def __post_init__(self) -> None:
        if len(self.points):
            from scipy.spatial import cKDTree

            self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def distance_to_axis(self, p: Point) -> float:
        """Distance from *p* to the nearest medial-axis sample."""
        if self._tree is None:
            return math.inf
        d, _ = self._tree.query([p.x, p.y])
        return float(d)

    def distances_to_axis(self, points: Sequence[Point]) -> np.ndarray:
        """Vectorised :meth:`distance_to_axis` for many points."""
        if self._tree is None or not len(points):
            return np.full(len(points), np.inf)
        arr = np.array([[p.x, p.y] for p in points])
        d, _ = self._tree.query(arr)
        return np.asarray(d, dtype=float)

    def coverage_by(self, points: Sequence[Point], radius: float) -> float:
        """Fraction of medial samples within *radius* of any point in *points*.

        This is the "does the extracted skeleton span the whole axis"
        direction of the quality metric.
        """
        if not len(self.points):
            return 1.0
        if not len(points):
            return 0.0
        from scipy.spatial import cKDTree

        tree = cKDTree(np.array([[p.x, p.y] for p in points]))
        d, _ = tree.query(self.points)
        return float(np.mean(d <= radius))


def approximate_medial_axis(
    field: Field,
    grid_spacing: float = 1.0,
    boundary_spacing: Optional[float] = None,
    equidistance_tol: Optional[float] = None,
    separation_factor: float = 1.3,
    min_clearance: Optional[float] = None,
) -> MedialAxisApproximation:
    """Approximate the medial axis of *field*.

    Args:
        field: the deployment region.
        grid_spacing: interior sampling resolution; smaller is finer.
        boundary_spacing: boundary sampling resolution (defaults to
            ``grid_spacing / 2``).
        equidistance_tol: how close the two closest-boundary distances must
            be for a point to count as medial (defaults to
            ``1.5 * boundary_spacing``).
        separation_factor: the two witness boundary samples must be at least
            ``separation_factor * clearance`` apart — this rejects points
            whose two witnesses are neighbouring samples of one smooth
            boundary stretch (1.3 keeps right-angle corner bisectors, whose
            witnesses sit √2·clearance apart, while excluding same-wall
            pairs).
        min_clearance: drop medial samples closer than this to the boundary
            (prunes the unstable branches spawned by polygon corners;
            defaults to ``2 * grid_spacing``).

    Returns:
        A :class:`MedialAxisApproximation`.
    """
    if grid_spacing <= 0:
        raise ValueError("grid_spacing must be positive")
    boundary_spacing = boundary_spacing if boundary_spacing else grid_spacing / 2.0
    if equidistance_tol is None:
        # A grid point can sit grid_spacing/√2 off the true axis, skewing
        # its two witness distances by up to ~1.5 grid steps.
        equidistance_tol = 0.75 * boundary_spacing + 1.5 * grid_spacing
    if min_clearance is None:
        # Two witnesses on one straight wall, separation_factor·d apart,
        # differ from d by d·(√(1+f²) − 1); below that clearance they fake
        # equidistance, so stay safely above tol / (√(1+f²) − 1).
        spread = math.sqrt(1.0 + separation_factor * separation_factor) - 1.0
        min_clearance = max(
            2.0 * grid_spacing,
            1.3 * equidistance_tol / spread,
        )

    from scipy.spatial import cKDTree

    boundary = field.sample_boundary(boundary_spacing)
    boundary_arr = np.array([[p.x, p.y] for p in boundary])
    boundary_tree = cKDTree(boundary_arr)

    box = field.bounding_box()
    xs = np.arange(box.min_x + grid_spacing / 2, box.max_x, grid_spacing)
    ys = np.arange(box.min_y + grid_spacing / 2, box.max_y, grid_spacing)
    grid = [Point(float(x), float(y)) for y in ys for x in xs]
    interior = [p for p in grid if field.contains(p)]
    if not interior:
        return MedialAxisApproximation(
            points=np.empty((0, 2)),
            clearances=np.empty(0),
            boundary_points=boundary_arr,
            grid_spacing=grid_spacing,
        )

    interior_arr = np.array([[p.x, p.y] for p in interior])
    d1s, idx1 = boundary_tree.query(interior_arr)

    medial_rows: List[int] = []
    clearances: List[float] = []
    for row in range(len(interior_arr)):
        d1 = float(d1s[row])
        if d1 < min_clearance:
            continue
        required_sep = separation_factor * d1
        b1 = boundary_arr[idx1[row]]
        # Look for a second witness: nearly the same distance (all boundary
        # samples within d1 + tol), but far from the first witness
        # (approximated by Euclidean separation between the samples).
        ball = boundary_tree.query_ball_point(interior_arr[row], d1 + equidistance_tol)
        candidates = boundary_arr[ball]
        sep = np.hypot(candidates[:, 0] - b1[0], candidates[:, 1] - b1[1])
        if (sep >= required_sep).any():
            medial_rows.append(row)
            clearances.append(d1)

    points = interior_arr[medial_rows] if medial_rows else np.empty((0, 2))
    return MedialAxisApproximation(
        points=points,
        clearances=np.asarray(clearances, dtype=float),
        boundary_points=boundary_arr,
        grid_spacing=grid_spacing,
    )
