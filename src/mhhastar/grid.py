"""Workspace discretization for duplicate detection and the obstacle-aware
2-D shortest-path field used as the holonomic heuristic."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import ObstacleSet, Pose
from .vehicle import Gear


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

    # Cached on first read: `cell_of` reads both for every quantized pose.
    @cached_property
    def nx(self) -> int:
        return max(1, math.ceil((self.x_max - self.x_min) / self.cell_size - 1e-9))

    @cached_property
    def ny(self) -> int:
        return max(1, math.ceil((self.y_max - self.y_min) / self.cell_size - 1e-9))

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Floor-quantized cell indices; the max boundary folds into the last cell."""
        if not self.contains(x, y):
            raise ValueError(f"({x}, {y}) outside workspace")
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
    """Quantize a continuous state onto the grid; raises ValueError outside
    the workspace (callers prune such successors)."""
    ix, iy = spec.cell_of(pose.x, pose.y)
    return CellKey(ix, iy, spec.heading_bin(pose.theta), gear)


def build_occupancy(spec: GridSpec, obstacles: ObstacleSet) -> np.ndarray:
    """Boolean (nx, ny) mask: a cell is blocked iff an obstacle point lies in
    it, its index taken as `GridSpec.cell_of` takes it; points outside the
    workspace (NaN included) block nothing."""
    blocked = np.zeros((spec.nx, spec.ny), dtype=bool)
    x, y = obstacles.points.T
    inside = (spec.x_min <= x) & (x <= spec.x_max) & (spec.y_min <= y) & (y <= spec.y_max)
    ix = np.minimum(np.floor((x[inside] - spec.x_min) / spec.cell_size), spec.nx - 1)
    iy = np.minimum(np.floor((y[inside] - spec.y_min) / spec.cell_size), spec.ny - 1)
    blocked[ix.astype(np.intp), iy.astype(np.intp)] = True
    return blocked


class DistanceField:
    """Per-cell 8-connected shortest distance to the goal cell (meters);
    blocked or unreachable cells read +inf, and so does every cell when the
    goal cell is blocked. Axis moves cost cell_size, diagonal moves
    cell_size * sqrt(2).

    The label-setting sweep from the goal runs only as far as reads need:
    `at` resumes it until the asked cell is settled (Reverse Resumable A*,
    Silver 2005). Cells pop by label + (1 - 1e-9) * octile distance to the
    start cell. The octile distance is consistent under the same weights, so
    deflated it raises the key by at least 1e-9 * cell_size per move along
    any path, far above the rounding of labels and keys while path length /
    cell_size stays below about 1e6 (a larger grid falls back to a zero
    heuristic). Keys thus rise strictly along every float-optimal path, each
    cell's float-optimal predecessor is settled before it, and every label
    equals, bit for bit, that of a full Dijkstra sweep.

    Tentative and settled labels live in dicts keyed by flat cell index, so
    a query allocates only for the cells it touches; `values` builds the
    read-only (nx, ny) array of settled labels, +inf elsewhere, when read.
    """

    def __init__(self, spec: GridSpec, blocked: np.ndarray, goal_cell, start_cell):
        self.spec = spec
        self._shape = (spec.nx, spec.ny)
        # Cells are flat indices into the grid padded with one ring of blocked
        # cells, so a move needs no bounds test.
        stride = self._stride = spec.ny + 2
        padded = np.ones((spec.nx + 2, stride), dtype=bool)
        padded[1:-1, 1:-1] = blocked
        self._blocked = padded.tobytes()
        axis, diag = spec.cell_size, spec.cell_size * math.sqrt(2.0)
        self._moves = tuple(
            (dx * stride + dy, diag if dx and dy else axis)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
        )
        # A simple path makes at most nx * ny moves of at most sqrt(2) cells.
        weight = 1.0 - 1e-9 if math.sqrt(2.0) * spec.nx * spec.ny < 1e6 else 0.0
        # Octile term of the key: h_axis * (dx + dy) + h_diag * min(dx, dy).
        self._h = (weight * axis, weight * (diag - 2.0 * axis), start_cell[0] + 1, start_cell[1] + 1)
        goal = (goal_cell[0] + 1) * stride + goal_cell[1] + 1
        self._settled: dict[int, float] = {}
        self._best = {goal: 0.0}  # tentative labels
        # (key, label, cell); a blocked goal leaves nothing to sweep
        self._heap = [] if self._blocked[goal] else [(0.0, 0.0, goal)]

    @property
    def values(self) -> np.ndarray:
        """Read-only (nx, ny) array of the labels settled so far, +inf elsewhere."""
        flat = np.full(len(self._blocked), np.inf)
        flat[list(self._settled)] = list(self._settled.values())
        out = flat.reshape(-1, self._stride)[1:-1, 1:-1]
        out.setflags(write=False)
        return out

    def at(self, ix: int, iy: int) -> float:
        """Distance of cell (ix, iy), settling cells until it is settled."""
        nx, ny = self._shape
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise IndexError(f"cell ({ix}, {iy}) outside the {nx} x {ny} grid")
        k = (ix + 1) * self._stride + iy + 1
        value = self._settled.get(k)
        if value is None:
            return math.inf if self._blocked[k] else self._settle(k)
        return value

    def lookup(self, x: float, y: float) -> float:
        return self.at(*self.spec.cell_of(x, y))

    def _settle(self, target: int) -> float:
        """Resume the sweep until `target` is settled; its label, or +inf
        once nothing is left."""
        heap, best, settled, blocked, moves, stride = (
            self._heap, self._best, self._settled, self._blocked, self._moves, self._stride
        )
        h_axis, h_diag, sx, sy = self._h
        inf = math.inf
        while heap:
            _, d, k = heapq.heappop(heap)
            if k in settled:
                continue
            settled[k] = d
            for step, w in moves:
                j = k + step
                if not blocked[j]:
                    nd = d + w
                    if nd < best.get(j, inf):
                        best[j] = nd
                        dx, dy = divmod(j, stride)
                        dx, dy = abs(dx - sx), abs(dy - sy)
                        key = nd + h_axis * (dx + dy) + h_diag * (dx if dx < dy else dy)
                        heapq.heappush(heap, (key, nd, j))
            if k == target:
                return d
        return inf


def dijkstra_field(
    spec: GridSpec,
    blocked: np.ndarray,
    goal_xy: tuple[float, float],
    start_xy: tuple[float, float],
) -> DistanceField:
    """The distance field toward the goal cell, settled up to the start
    cell, which its sweep heads for."""
    start = spec.cell_of(*start_xy)
    field = DistanceField(spec, blocked, spec.cell_of(*goal_xy), start)
    field.at(*start)
    return field
