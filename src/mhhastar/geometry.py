"""Planar poses, frame transforms, and the vehicle/obstacle collision check.

The vehicle body is a rectangle anchored at the rear-axle midpoint. Collision
against a point cloud is checked by coordinate transformation: the obstacle
points near the body center are moved into the vehicle frame and tested
against the body rectangle exactly. The nearby points come from a memo with
one entry per MEMO_CELL square of body centers, filled the first time a body
center lands in the square from the rows of one range query per block of
MEMO_BLOCK x MEMO_BLOCK squares; its extra margin makes each entry hold every
point a query around any center in the square would return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]

MEMO_CELL = 0.25  # [m] side of the square of body centers one memo entry serves
MEMO_BLOCK = 4  # memo squares per side of the block one range query fills
# [m] from a block's center to its farthest square center, plus rounding slack
_BLOCK_REACH = (MEMO_BLOCK - 1) / 2 * MEMO_CELL * math.sqrt(2.0) + 1e-6


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
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValueError("length must be positive and finite")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError("width must be positive and finite")
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


def body_to_world(vehicle_pose: Pose, body_point: Point) -> Point:
    """A vehicle-frame point (origin at the rear axle, x-axis along the
    heading) in world coordinates; used for rendering vehicle outlines."""
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


class ObstacleSet:
    """Immutable planar point-cloud obstacles.

    A private memo maps (floor(x / MEMO_CELL), floor(y / MEMO_CELL), radius)
    to the points within radius + MEMO_CELL of that square's center, as a list
    of their x and one of their y. A point within `radius` of any (x, y) in
    the square lies within radius + MEMO_CELL / sqrt(2) of its center, 0.07 m
    inside the entry's disk, so the entry holds every point `query(x, y,
    radius)` returns, plus more. The memo never changes what a check finds.
    An entry is filtered from the rows of one query per block of squares with
    the query's own float test, so it holds the points of `query(cx, cy,
    radius + MEMO_CELL)` around the square's center (cx, cy), in order.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        pts.setflags(write=False)
        self._points = pts
        self._by_x = np.argsort(pts[:, 0])
        self._sorted_x = pts[self._by_x, 0]
        self._memo: dict[tuple[int, int, float], list[list[float]]] = {}
        self._blocks: dict[tuple[int, int, float], list[list[float]]] = {}

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    def query(self, x: float, y: float, radius: float) -> np.ndarray:
        """All points with distance <= radius from (x, y), as an (m, 2) array
        in input order. Only the points whose x lies in the strip [x - radius,
        x + radius] are tested; the strip is widened by a rounding margin so
        that it holds every point the distance test keeps."""
        margin = radius + 1e-9 * (1.0 + abs(x) + radius)
        lo = np.searchsorted(self._sorted_x, x - margin, side="left")
        hi = np.searchsorted(self._sorted_x, x + margin, side="right")
        rows = self._points[np.sort(self._by_x[lo:hi])]
        dx = rows[:, 0] - x
        dy = rows[:, 1] - y
        return rows[dx * dx + dy * dy <= radius * radius]

    def _candidates(self, x: float, y: float, radius: float) -> list[list[float]]:
        """A superset of query(x, y, radius) as [xs, ys], two float lists,
        memoised per MEMO_CELL square of (x, y)."""
        i, j = math.floor(x / MEMO_CELL), math.floor(y / MEMO_CELL)
        entry = self._memo.get((i, j, radius))
        if entry is None:
            bi, bj = i // MEMO_BLOCK, j // MEMO_BLOCK
            rows = self._blocks.get((bi, bj, radius))
            if rows is None:
                rows = self._blocks[bi, bj, radius] = self.query(
                    (bi + 0.5) * MEMO_BLOCK * MEMO_CELL,
                    (bj + 0.5) * MEMO_BLOCK * MEMO_CELL,
                    radius + MEMO_CELL + _BLOCK_REACH,
                ).tolist()
            cx, cy = (i + 0.5) * MEMO_CELL, (j + 0.5) * MEMO_CELL
            r = radius + MEMO_CELL
            xs, ys = entry = self._memo[i, j, radius] = [[], []]
            for px, py in rows:
                dx, dy = px - cx, py - cy
                if dx * dx + dy * dy <= r * r:
                    xs.append(px)
                    ys.append(py)
        return entry


def vehicle_collides(
    vehicle_pose: Pose, geometry: VehicleGeometry, obstacles: ObstacleSet
) -> bool:
    """True iff some obstacle point lies in the closed body rectangle.

    The candidates are a superset of the points within half-diagonal + 1e-9 m
    of the body center; each is moved into the body frame and tested against
    the rectangle. No farther point can lie in the rectangle, whose farthest
    point from its center is a corner; the 1e-9 m margin keeps corner points
    whose rounded squared distance lands just above the half-diagonal. The
    verdict equals testing every point."""
    x, y = vehicle_pose.x, vehicle_pose.y
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    mid = geometry.body_center_x
    half_w = geometry.width / 2.0
    rear = -geometry.rear_overhang
    front = geometry.front_extent
    for px, py in zip(*obstacles._candidates(
        x + c * mid, y + s * mid, math.hypot(geometry.length / 2.0, half_w) + 1e-9
    )):
        dx = px - x
        dy = py - y
        bx = c * dx + s * dy
        if rear <= bx <= front and abs(-s * dx + c * dy) <= half_w:
            return True
    return False
