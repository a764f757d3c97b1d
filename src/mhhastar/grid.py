"""Workspace discretization for duplicate detection and the obstacle-aware
2-D shortest-path field used as the holonomic heuristic."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ObstacleSet, Pose
from .vehicle import Gear


class WorkspaceError(ValueError):
    """A pose or query point lies outside the configured workspace."""


@dataclass(frozen=True)
class GridSpec:
    """Planar cell grid plus a heading discretization."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cell_size: float = 0.3
    heading_bins: int = 72

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max, self.cell_size)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("workspace bounds and cell_size must be finite")
        if not self.cell_size > 0.0:
            raise ValueError("cell_size must be positive")
        if not self.heading_bins >= 1:
            raise ValueError("heading_bins must be >= 1")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("workspace must be non-degenerate")

    @property
    def nx(self) -> int:
        return max(1, math.ceil((self.x_max - self.x_min) / self.cell_size - 1e-9))

    @property
    def ny(self) -> int:
        return max(1, math.ceil((self.y_max - self.y_min) / self.cell_size - 1e-9))

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Floor-quantized cell indices; the max boundary folds into the last cell."""
        if not self.contains(x, y):
            raise WorkspaceError(f"({x}, {y}) outside workspace")
        ix = min(int(math.floor((x - self.x_min) / self.cell_size)), self.nx - 1)
        iy = min(int(math.floor((y - self.y_min) / self.cell_size)), self.ny - 1)
        return ix, iy

    def heading_bin(self, theta: float) -> int:
        return round(theta / (2.0 * math.pi / self.heading_bins)) % self.heading_bins


class CellKey(NamedTuple):
    """Duplicate-detection key: planar cell, heading bin, driving direction."""

    ix: int
    iy: int
    itheta: int
    gear: Gear


def discretize(pose: Pose, gear: Gear, spec: GridSpec) -> CellKey:
    """Quantize a continuous state onto the grid; raises WorkspaceError
    outside the workspace (callers prune such successors)."""
    ix, iy = spec.cell_of(pose.x, pose.y)
    return CellKey(ix, iy, spec.heading_bin(pose.theta), gear)


def build_occupancy(spec: GridSpec, obstacles: ObstacleSet) -> np.ndarray:
    """Boolean (nx, ny) mask: a cell is blocked iff an obstacle point lies in it."""
    blocked = np.zeros((spec.nx, spec.ny), dtype=bool)
    for px, py in obstacles.points:
        if spec.contains(px, py):
            blocked[spec.cell_of(px, py)] = True
    return blocked


@dataclass(frozen=True)
class DistanceField:
    """Per-cell 8-connected shortest distance to the goal cell (meters);
    blocked or unreachable cells hold +inf."""

    spec: GridSpec
    values: np.ndarray

    def lookup(self, x: float, y: float) -> float:
        ix, iy = self.spec.cell_of(x, y)
        return float(self.values[ix, iy])


def dijkstra_field(
    spec: GridSpec, blocked: np.ndarray, goal_xy: tuple[float, float]
) -> DistanceField:
    """Label-setting sweep from the goal cell over free cells; axis moves cost
    cell_size, diagonal moves cell_size * sqrt(2)."""
    gx, gy = spec.cell_of(*goal_xy)
    if blocked[gx, gy]:
        raise ValueError("goal cell is blocked")
    axis = spec.cell_size
    diag = spec.cell_size * math.sqrt(2.0)
    nx, ny = spec.nx, spec.ny
    dist = np.full((nx, ny), np.inf)
    dist[gx, gy] = 0.0
    heap = [(0.0, gx, gy)]
    moves = (
        (1, 0, axis), (-1, 0, axis), (0, 1, axis), (0, -1, axis),
        (1, 1, diag), (1, -1, diag), (-1, 1, diag), (-1, -1, diag),
    )
    while heap:
        d, ix, iy = heapq.heappop(heap)
        if d > dist[ix, iy]:
            continue
        for dx, dy, w in moves:
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and not blocked[jx, jy]:
                nd = d + w
                if nd < dist[jx, jy]:
                    dist[jx, jy] = nd
                    heapq.heappush(heap, (nd, jx, jy))
    dist.setflags(write=False)
    return DistanceField(spec, dist)

