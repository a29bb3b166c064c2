"""Basic 2-D geometric primitives.

The continuous-domain half of the paper (Section II) reasons about points,
chords, disks and distances in the Euclidean plane.  This module provides the
small, dependency-light vocabulary used everywhere else: :class:`Point`,
segment predicates, and distance helpers.  All heavier polygon machinery
lives in :mod:`repro.geometry.polygon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = [
    "Point",
    "BoundingBox",
    "dist",
    "dist_sq",
    "point_segment_distance",
    "segments_intersect",
    "orientation",
    "on_segment",
    "polygon_signed_area",
    "polygon_centroid",
    "lerp",
]

_EPS = 1e-12


@dataclass(frozen=True)
class Point:
    """An immutable point in the Euclidean plane."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        """Dot product with *other* treated as a vector."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the cross product with *other*."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean norm of the point treated as a vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def rotated(self, angle: float, about: "Point" = None) -> "Point":
        """Return this point rotated by *angle* radians about *about*.

        *about* defaults to the origin.
        """
        cx, cy = (about.x, about.y) if about is not None else (0.0, 0.0)
        dx, dy = self.x - cx, self.y - cy
        c, s = math.cos(angle), math.sin(angle)
        return Point(cx + c * dx - s * dy, cy + s * dx + c * dy)


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned bounding box."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return max(self.width, 0.0) * max(self.height, 0.0)

    def contains(self, p: Point) -> bool:
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def expanded(self, margin: float) -> "BoundingBox":
        """Return a copy grown by *margin* on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    @staticmethod
    def of_points(points: Iterable[Point]) -> "BoundingBox":
        """Bounding box of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty point collection")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))


def dist(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def dist_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance (avoids the sqrt for comparisons)."""
    dx, dy = a.x - b.x, a.y - b.y
    return dx * dx + dy * dy


def lerp(a: Point, b: Point, t: float) -> Point:
    """Linear interpolation between *a* (t=0) and *b* (t=1)."""
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Shortest distance from point *p* to the closed segment ``ab``."""
    ab = b - a
    denom = ab.dot(ab)
    if denom <= _EPS:
        return dist(p, a)
    t = (p - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    closest = Point(a.x + ab.x * t, a.y + ab.y * t)
    return dist(p, closest)


def orientation(a: Point, b: Point, c: Point) -> int:
    """Orientation of the ordered triple (a, b, c).

    Returns ``1`` for counter-clockwise, ``-1`` for clockwise, ``0`` for
    collinear (within a small tolerance scaled to the inputs).
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    scale = max(abs(b.x - a.x), abs(b.y - a.y), abs(c.x - a.x), abs(c.y - a.y), 1.0)
    if abs(cross) <= _EPS * scale * scale:
        return 0
    return 1 if cross > 0 else -1


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True when *p* is collinear with ``ab`` and within its bounding box."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) - _EPS <= p.x <= max(a.x, b.x) + _EPS
        and min(a.y, b.y) - _EPS <= p.y <= max(a.y, b.y) + _EPS
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments ``ab`` and ``cd`` share at least one point."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(c, a, b):
        return True
    if o2 == 0 and on_segment(d, a, b):
        return True
    if o3 == 0 and on_segment(a, c, d):
        return True
    if o4 == 0 and on_segment(b, c, d):
        return True
    return False


def polygon_signed_area(vertices: Sequence[Point]) -> float:
    """Signed area of a simple polygon (positive for counter-clockwise)."""
    if len(vertices) < 3:
        return 0.0
    total = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


def polygon_centroid(vertices: Sequence[Point]) -> Point:
    """Area centroid of a simple polygon.

    Falls back to the vertex mean for degenerate (zero-area) rings.
    """
    area = polygon_signed_area(vertices)
    n = len(vertices)
    if abs(area) <= _EPS:
        sx = sum(v.x for v in vertices) / n
        sy = sum(v.y for v in vertices) / n
        return Point(sx, sy)
    cx = cy = 0.0
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        w = a.x * b.y - b.x * a.y
        cx += (a.x + b.x) * w
        cy += (a.y + b.y) * w
    return Point(cx / (6.0 * area), cy / (6.0 * area))
