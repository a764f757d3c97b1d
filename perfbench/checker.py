"""Independent check of one returned plan.

Everything here is recomputed from the query's input data and the returned
poses: the vehicle rectangle from the scenario's vehicle section, cells and
heading bins from its workspace section, and collisions by testing every
path sample against every obstacle point with plain numpy. Nothing goes
through `ObstacleSet.query` or the planner's own collision check, so a bug
in either cannot hide a colliding path.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLE_SPACING_M = 0.1
SPACING_TOL_M = 1e-6
SHORTCUT_END_TOL = 1e-6  # [m] and [rad]: an RS shortcut ends on the goal
LENGTH_BAND = 0.30  # paper-parking paths within +-30% of the published lengths


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def colliding_samples(poses: np.ndarray, points: np.ndarray, vehicle: dict) -> np.ndarray:
    """Indices of the (n, 3) poses [x, y, theta] whose closed body rectangle
    contains any of the (m, 2) obstacle points; brute force over all pairs."""
    if points.shape[0] == 0 or poses.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    rear = -vehicle["rear_overhang"]
    front = vehicle["length"] - vehicle["rear_overhang"]
    half_w = vehicle["width"] / 2.0
    hit = np.zeros(poses.shape[0], dtype=bool)
    chunk = max(1, 400_000 // points.shape[0])
    for lo in range(0, poses.shape[0], chunk):
        p = poses[lo : lo + chunk]
        c = np.cos(p[:, 2])[:, None]
        s = np.sin(p[:, 2])[:, None]
        dx = points[None, :, 0] - p[:, 0:1]
        dy = points[None, :, 1] - p[:, 1:2]
        bx = c * dx + s * dy
        by = -s * dx + c * dy
        inside = (bx >= rear) & (bx <= front) & (np.abs(by) <= half_w)
        hit[lo : lo + chunk] = inside.any(axis=1)
    return np.flatnonzero(hit)


def _goal_cell(workspace: dict, x: float, y: float, theta: float) -> tuple[int, int, int]:
    cs = workspace["cell_size"]
    nx = max(1, math.ceil((workspace["x_max"] - workspace["x_min"]) / cs - 1e-9))
    ny = max(1, math.ceil((workspace["y_max"] - workspace["y_min"]) / cs - 1e-9))
    ix = min(int(math.floor((x - workspace["x_min"]) / cs)), nx - 1)
    iy = min(int(math.floor((y - workspace["y_min"]) / cs)), ny - 1)
    bins = workspace["heading_bins"]
    return ix, iy, round(theta / (2.0 * math.pi / bins)) % bins


def check_path(
    data: dict,
    points: np.ndarray,
    poses: np.ndarray,
    shortcut: bool,
    path_length: float,
    published_length: float | None = None,
) -> str | None:
    """First failure reason for a returned path, or None when it passes:
    "no_solution", "collision", "endpoint", "spacing" or "length", tested
    in that order.

    data: the scenario input dictionary; points: all obstacle points;
    poses: (n, 3) path samples; shortcut: the search ended with an exact
    Reeds-Shepp curve to the goal (otherwise it ended on the goal's cell).
    """
    if poses.shape[0] == 0:
        return "no_solution"
    if colliding_samples(poses, points, data["vehicle"]).size:
        return "collision"
    start, goal = data["start"], data["goal"]
    x0, y0, t0 = poses[0]
    if (x0, y0) != (start["x"], start["y"]) or _angle_diff(t0, start["theta"]) > 1e-12:
        return "endpoint"
    x1, y1, t1 = poses[-1]
    if shortcut:
        if (
            math.hypot(x1 - goal["x"], y1 - goal["y"]) > SHORTCUT_END_TOL
            or _angle_diff(t1, goal["theta"]) > SHORTCUT_END_TOL
        ):
            return "endpoint"
    elif _goal_cell(data["workspace"], x1, y1, t1) != _goal_cell(
        data["workspace"], goal["x"], goal["y"], goal["theta"]
    ):
        return "endpoint"
    steps = np.hypot(np.diff(poses[:, 0]), np.diff(poses[:, 1]))
    if steps.size and steps.max() > SAMPLE_SPACING_M + SPACING_TOL_M:
        return "spacing"
    if published_length is not None and not (
        (1.0 - LENGTH_BAND) * published_length
        <= path_length
        <= (1.0 + LENGTH_BAND) * published_length
    ):
        return "length"
    return None
