"""Planar poses, frame transforms, and the vehicle/obstacle collision check.

The vehicle body is a rectangle anchored at the rear-axle midpoint. Collision
against a point cloud is checked by coordinate transformation: the obstacle
points near the body center are moved into the vehicle frame and tested
against the body rectangle exactly. The nearby points come from a memo with
one entry per MEMO_CELL square of body centers, filled the first time a body
center lands in the square from the rows of one range query per block of
MEMO_BLOCK x MEMO_BLOCK squares; its extra margin makes each entry hold every
point a query around any center in the square would return.

`BodySweep` checks many bodies at once, at fixed poses relative to one
moving frame: the points near the frame are moved into it once and tested
against every body rectangle in one numpy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

Point = tuple[float, float]

MEMO_CELL = 0.25  # [m] side of the square of body centers one memo entry serves
MEMO_BLOCK = 4  # memo squares per side of the block one range query fills
# [m] from a block's center to its farthest point, plus rounding slack
_BLOCK_REACH = MEMO_BLOCK / 2 * MEMO_CELL * math.sqrt(2.0) + 1e-6


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
    """Rectangular vehicle body and steering limit: rear_overhang is the
    distance from the rear-axle midpoint back to the rectangle's rear edge,
    and phi_max, the largest steering angle, sets the turning radius."""

    length: float
    width: float
    wheelbase: float
    rear_overhang: float
    phi_max: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.phi_max < math.pi / 2.0:
            raise ValueError("phi_max must lie in (0, pi/2)")
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

    @property
    def turning_radius(self) -> float:
        """Minimum turning radius at full steering lock."""
        return self.wheelbase / math.tan(self.phi_max)


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


def as_points(points) -> np.ndarray:
    """`points` as a float (n, 2) array, n >= 0; ValueError for input that
    is not a list of (x, y) pairs, such as 3-column or ragged rows."""
    pts = np.asarray(points, dtype=float)  # a ragged input raises here
    if pts.size and (pts.ndim != 2 or pts.shape[1] != 2):
        raise ValueError(f"expected (x, y) pairs, got an array of shape {pts.shape}")
    return pts.reshape(-1, 2)


class ObstacleSet:
    """Immutable planar point-cloud obstacles, built from anything
    `as_points` accepts; `points` is a read-only copy of the input.

    A private memo maps (floor(x / MEMO_CELL), floor(y / MEMO_CELL), radius)
    to the points within radius + MEMO_CELL of that square's center, as a list
    of their x and one of their y. A point within `radius` of any (x, y) in
    the square lies within radius + MEMO_CELL / sqrt(2) of its center, 0.07 m
    inside the entry's disk, so the entry holds every point `query(x, y,
    radius)` returns, plus more. The memo never changes what a check finds.
    An entry is filtered from its block's rows with the query's own float
    test, so it holds the points of `query(cx, cy, radius + MEMO_CELL)` around
    the square's center (cx, cy), in order.

    A block of MEMO_BLOCK x MEMO_BLOCK squares keeps the rows of one range
    query around its center, as one array of complex x + iy, at the largest
    reach any read has asked of the set so far; every radius reads the same
    rows, and a block filled at a smaller reach is filled again.
    """

    def __init__(self, points):
        pts = as_points(points).copy()
        pts.setflags(write=False)
        self._points = pts
        self._by_x = np.argsort(pts[:, 0])
        self._sorted_x = pts[self._by_x, 0]
        self._memo: dict[tuple[int, int, float], list[list[float]]] = {}
        self._blocks: dict[tuple[int, int], tuple[float, np.ndarray]] = {}
        self._reach = 0.0

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

    def _block(self, bi: int, bj: int, reach: float) -> np.ndarray:
        """Every point within `reach` of some point of block (bi, bj), plus
        more, as complex x + iy in input order."""
        block = self._blocks.get((bi, bj))
        if block is None or block[0] < reach:
            self._reach = max(self._reach, reach)
            side = MEMO_BLOCK * MEMO_CELL
            rows = self.query((bi + 0.5) * side, (bj + 0.5) * side, self._reach + _BLOCK_REACH)
            points = np.ascontiguousarray(rows).view(np.complex128).ravel()
            block = self._blocks[bi, bj] = (self._reach, points)
        return block[1]

    def nearby(self, x: float, y: float, radius: float) -> np.ndarray:
        """A superset of query(x, y, radius), as complex x + iy in input
        order: the rows of the memo block that holds (x, y)."""
        i, j = math.floor(x / MEMO_CELL), math.floor(y / MEMO_CELL)
        return self._block(i // MEMO_BLOCK, j // MEMO_BLOCK, radius)

    def _candidates(self, x: float, y: float, radius: float) -> list[list[float]]:
        """A superset of query(x, y, radius) as [xs, ys], two float lists,
        memoised per MEMO_CELL square of (x, y)."""
        i, j = math.floor(x / MEMO_CELL), math.floor(y / MEMO_CELL)
        entry = self._memo.get((i, j, radius))
        if entry is None:
            r = radius + MEMO_CELL
            points = self._block(i // MEMO_BLOCK, j // MEMO_BLOCK, r)
            d = points - complex((i + 0.5) * MEMO_CELL, (j + 0.5) * MEMO_CELL)
            inside = points[d.real * d.real + d.imag * d.imag <= r * r]
            entry = self._memo[i, j, radius] = [inside.real.tolist(), inside.imag.tolist()]
        return entry


class BodySweep:
    """The body rectangle at each of a fixed list of poses relative to a
    moving frame, for testing them all against the obstacles at once.

    Points are complex numbers x + iy, so one multiplication rotates them.
    With body k at heading theta_k in the frame and its rectangle centered at
    center_k, a frame point w lies at (w - center_k) e^(-i theta_k) from that
    center, the real part along the body. Each rectangle is inflated by
    INFLATION, far above the rounding of moving points through the frame
    instead of straight into each body: a flag is a conservative verdict,
    raised by every point in the body and maybe by one within INFLATION of it.
    """

    INFLATION = 1e-6  # [m]

    def __init__(self, geometry: VehicleGeometry, poses: tuple[Pose, ...]):
        eps = self.INFLATION
        self.mid = mid = geometry.body_center_x
        self.half = (geometry.length / 2.0 + eps, geometry.width / 2.0 + eps)
        heading = np.array([complex(math.cos(p.theta), math.sin(p.theta)) for p in poses])
        centers = np.array([complex(p.x, p.y) for p in poses]) + mid * heading
        # The box, in the frame, that holds every inflated rectangle.
        hl, hw = self.half
        cos, sin = np.abs(heading.real), np.abs(heading.imag)
        ex, ey = cos * hl + sin * hw + eps, sin * hl + cos * hw + eps
        lo = complex(min(centers.real - ex, default=0.0), min(centers.imag - ey, default=0.0))
        hi = complex(max(centers.real + ex, default=0.0), max(centers.imag + ey, default=0.0))
        self.box_center = (lo + hi) / 2.0
        self.box_half = ((hi - lo).real / 2.0, (hi - lo).imag / 2.0)
        # Per body (a column each), w' rotate[k] - offset[k] for w' = w - box_center.
        self.rotate = heading.conj()[:, None]
        self.offset = (centers - self.box_center)[:, None] * self.rotate
        # Every point of every rectangle lies within `reach` of the frame's
        # own body center, mid.
        self.reach = max(map(abs, (centers - mid).tolist()), default=0.0) + math.hypot(hl, hw) + eps

    def hits(self, frame: Pose, obstacles: ObstacleSet) -> list[bool] | None:
        """Per body, whether some obstacle point lies in its inflated
        rectangle with the frame at `frame`; None when no body has one."""
        c, s = math.cos(frame.theta), math.sin(frame.theta)
        points = obstacles.nearby(frame.x + c * self.mid, frame.y + s * self.mid, self.reach)
        if not points.size:
            return None
        turn = complex(c, -s)
        w = points * turn - (complex(frame.x, frame.y) * turn + self.box_center)
        half_u, half_v = self.box_half
        near = (np.abs(w.real) <= half_u) & (np.abs(w.imag) <= half_v)
        if not np.count_nonzero(near):
            return None
        body = w[near] * self.rotate - self.offset
        half_l, half_w = self.half
        hit = ((np.abs(body.real) <= half_l) & (np.abs(body.imag) <= half_w)).any(axis=1)
        return hit.tolist() if np.count_nonzero(hit) else None


@lru_cache(maxsize=16)
def body_sweep(geometry: VehicleGeometry, poses: tuple[Pose, ...]) -> BodySweep:
    """The sweep of `poses`, built once for every search that checks the same
    body at the same poses."""
    return BodySweep(geometry, poses)


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
