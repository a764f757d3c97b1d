"""Planar poses, frame transforms, and the vehicle/obstacle collision check.

The vehicle body is a rectangle anchored at the rear-axle midpoint. Collision
against a point cloud is checked by coordinate transformation: one range
query around the body center gathers the nearby obstacle points, which are
moved into the vehicle frame and tested against the body rectangle exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]

INDEX_CELL = 2.0  # [m] side of an ObstacleSet index bucket


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    theta = math.fmod(theta, TWO_PI)
    if theta <= -math.pi:
        theta += TWO_PI
    elif theta > math.pi:
        theta -= TWO_PI
    return theta


@dataclass(frozen=True, slots=True)
class Pose:
    """Planar configuration (x, y, heading); heading is kept in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class VehicleGeometry:
    """Rectangular vehicle body; rear_overhang is the distance from the
    rear-axle midpoint back to the rectangle's rear edge."""

    length: float
    width: float
    wheelbase: float
    rear_overhang: float

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if not 0.0 < self.wheelbase < self.length:
            raise ValueError("wheelbase must lie in (0, length)")
        if not 0.0 <= self.rear_overhang <= self.length - self.wheelbase:
            raise ValueError("rear_overhang must lie in [0, length - wheelbase]")

    @property
    def front_extent(self) -> float:
        """Body-frame x of the front edge."""
        return self.length - self.rear_overhang

    @property
    def body_center_x(self) -> float:
        """Body-frame x of the rectangle center."""
        return self.length / 2.0 - self.rear_overhang


def world_to_body(vehicle_pose: Pose, world_point: Point) -> Point:
    """Express a world point in the vehicle frame (origin at the rear axle,
    x-axis along the heading): translate, then rotate by -theta."""
    dx = world_point[0] - vehicle_pose.x
    dy = world_point[1] - vehicle_pose.y
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    return (c * dx + s * dy, -s * dx + c * dy)


def body_to_world(vehicle_pose: Pose, body_point: Point) -> Point:
    """Inverse of world_to_body; used for rendering vehicle outlines."""
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    bx, by = body_point
    return (vehicle_pose.x + c * bx - s * by, vehicle_pose.y + s * bx + c * by)


def body_corners(pose: Pose, geometry: VehicleGeometry) -> list[Point]:
    """World coordinates of the four body-rectangle corners (counterclockwise)."""
    xf = geometry.front_extent
    xr = -geometry.rear_overhang
    h = geometry.width / 2.0
    return [body_to_world(pose, p) for p in ((xr, -h), (xf, -h), (xf, h), (xr, h))]


def point_in_rectangle(body_point: Point, geometry: VehicleGeometry) -> bool:
    """Closed-rectangle membership in the body frame; the boundary counts as
    inside (conservative collision semantics)."""
    px, py = body_point
    return (
        -geometry.rear_overhang <= px <= geometry.front_extent
        and abs(py) <= geometry.width / 2.0
    )


class ObstacleSet:
    """Immutable planar point-cloud obstacles with a uniform-grid range index.

    The index only accelerates range queries; it never changes which points a
    query returns.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        pts.setflags(write=False)
        self._points = pts
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(pts):
            key = (math.floor(x / INDEX_CELL), math.floor(y / INDEX_CELL))
            buckets.setdefault(key, []).append(i)
        self._buckets = {k: np.asarray(v, dtype=np.intp) for k, v in buckets.items()}

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def query(self, x: float, y: float, radius: float) -> np.ndarray:
        """All points with distance <= radius from (x, y), as an (m, 2) array."""
        if self._points.shape[0] == 0:
            return self._points
        c = INDEX_CELL
        i0 = math.floor((x - radius) / c)
        i1 = math.floor((x + radius) / c)
        j0 = math.floor((y - radius) / c)
        j1 = math.floor((y + radius) / c)
        hits = []
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                bucket = self._buckets.get((i, j))
                if bucket is not None:
                    hits.append(bucket)
        if not hits:
            return self._points[:0]
        idx = np.concatenate(hits)
        cand = self._points[idx]
        dx = cand[:, 0] - x
        dy = cand[:, 1] - y
        return cand[dx * dx + dy * dy <= radius * radius]


def vehicle_collides(
    vehicle_pose: Pose, geometry: VehicleGeometry, obstacles: ObstacleSet
) -> bool:
    """True iff some obstacle point lies in the closed body rectangle.

    One range query around the body center, of radius half-diagonal + 1e-9 m,
    gathers the candidates; each is moved into the body frame and tested
    against the rectangle. No farther point can lie in the rectangle, whose
    farthest point from its center is a corner; the 1e-9 m margin keeps
    corner points whose rounded squared distance lands just above the
    half-diagonal. The verdict equals testing every point."""
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    mid = geometry.body_center_x
    half_w = geometry.width / 2.0
    cand = obstacles.query(
        vehicle_pose.x + c * mid,
        vehicle_pose.y + s * mid,
        math.hypot(geometry.length / 2.0, half_w) + 1e-9,
    )
    if cand.shape[0] == 0:
        return False
    dx = cand[:, 0] - vehicle_pose.x
    dy = cand[:, 1] - vehicle_pose.y
    bx = c * dx + s * dy
    by = -s * dx + c * dy
    inside = (
        (bx >= -geometry.rear_overhang)
        & (bx <= geometry.front_extent)
        & (np.abs(by) <= half_w)
    )
    return bool(inside.any())
