"""Planar poses, frame transforms, and the two-stage vehicle/obstacle collision check.

The vehicle body is a rectangle anchored at the rear-axle midpoint. Collision
against a point cloud runs in two stages: a cheap disk-distance rejection
followed by an exact point-in-oriented-rectangle test in the body frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]


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


@dataclass(frozen=True)
class DiskCover:
    """Conservative cover of the body rectangle by `count` equal disks of
    radius `radius`, centered on the long axis `spacing` apart."""

    count: int
    radius: float
    spacing: float


def cover_radius_spacing(length: float, width: float, n: int) -> tuple[float, float]:
    """Radius and center spacing of the n-disk cover of an l-by-w rectangle."""
    if n < 1:
        raise ValueError("disk count must be >= 1")
    r = math.sqrt(length * length / (n * n) + width * width / 4.0)
    d = 2.0 * math.sqrt(r * r - width * width / 4.0)
    return r, d


def disk_cover(geometry: VehicleGeometry, n: int) -> DiskCover:
    """Build the n-disk cover of the vehicle rectangle."""
    r, d = cover_radius_spacing(geometry.length, geometry.width, n)
    return DiskCover(count=n, radius=r, spacing=d)


def disk_centers_body(geometry: VehicleGeometry, cover: DiskCover) -> list[Point]:
    """Disk centers in the body frame, symmetric about the rectangle center."""
    mid = geometry.body_center_x
    half = (cover.count - 1) / 2.0
    return [(mid + (i - half) * cover.spacing, 0.0) for i in range(cover.count)]


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


def coarse_clear(
    vehicle_pose: Pose,
    cover: DiskCover,
    geometry: VehicleGeometry,
    point: Point,
) -> bool:
    """True iff the point lies strictly outside every cover disk, which
    guarantees no collision. False only means a collision is possible."""
    r2 = cover.radius * cover.radius
    for center in disk_centers_body(geometry, cover):
        cx, cy = body_to_world(vehicle_pose, center)
        dx = point[0] - cx
        dy = point[1] - cy
        if dx * dx + dy * dy <= r2:
            return False
    return True


class ObstacleSet:
    """Immutable planar point-cloud obstacles with a uniform-grid range index.

    The index only accelerates range queries; it never changes which points a
    query returns.
    """

    def __init__(self, points, index_cell: float = 2.0):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        pts.setflags(write=False)
        self._points = pts
        self._cell = float(index_cell)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(pts):
            key = (math.floor(x / self._cell), math.floor(y / self._cell))
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
        c = self._cell
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
    vehicle_pose: Pose,
    geometry: VehicleGeometry,
    cover: DiskCover,
    obstacles: ObstacleSet,
) -> bool:
    """Two-stage check: a range query around each cover disk, then the exact
    oriented rectangle test on surviving points. Equivalent to testing every
    point.

    Each query radius is clipped to min(cover radius, distance from the disk
    center to the farthest body corner + 1e-9 m). The farthest point of a
    rectangle from any center is a corner, so a point beyond that distance
    cannot lie in the closed rectangle; the 1e-9 m margin keeps corner points
    whose rounded squared distance lands just above the clipped radius."""
    if len(obstacles) == 0:
        return False
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    half_w = geometry.width / 2.0
    rear = -geometry.rear_overhang
    front = geometry.front_extent
    for center in disk_centers_body(geometry, cover):
        reach = math.hypot(
            max(abs(center[0] - rear), abs(front - center[0])), half_w + abs(center[1])
        )
        cx = vehicle_pose.x + c * center[0] - s * center[1]
        cy = vehicle_pose.y + s * center[0] + c * center[1]
        cand = obstacles.query(cx, cy, min(cover.radius, reach + 1e-9))
        if cand.shape[0] == 0:
            continue
        dx = cand[:, 0] - vehicle_pose.x
        dy = cand[:, 1] - vehicle_pose.y
        bx = c * dx + s * dy
        by = -s * dx + c * dy
        inside = (
            (bx >= rear)
            & (bx <= front)
            & (np.abs(by) <= half_w)
        )
        if bool(inside.any()):
            return True
    return False
