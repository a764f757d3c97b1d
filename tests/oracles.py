"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the library's own code paths for the
quantity it checks: containment uses half-plane tests instead of the frame
transform, kinematics uses a Runge-Kutta integrator instead of the closed
form, grid distances use Bellman-Ford relaxation instead of the heap sweep,
and search costs come from a plain uniform-cost loop without heuristics.
The curve oracle evaluates the twelve word families one function at a time
and lists every endpoint-valid word, where the library screens the words of
one flat pass and verifies only until the shortest one is found. The frame
transform and rectangle test are the textbook form of the collision check.
The analytic collision verdict comes from a plain start-to-end scan. The
scenario loader's point list is checked item by item, as it was before its
vectorised fast path.
"""

from __future__ import annotations

import heapq
import math

from mhhastar.geometry import normalize_angle, vehicle_collides
from mhhastar.grid import CellKey
from mhhastar.reeds_shepp import (
    RSPath,
    _asin,
    _coincident,
    _normalized_goal,
    _to_path,
    _verified,
)
from mhhastar.scenario import ScenarioError, _number
from mhhastar.vehicle import Gear, advance_arc, step_cost, successors


def world_to_body(vehicle_pose, world_point):
    """Express a world point in the vehicle frame (origin at the rear axle,
    x-axis along the heading): translate, then rotate by -theta."""
    dx = world_point[0] - vehicle_pose.x
    dy = world_point[1] - vehicle_pose.y
    c = math.cos(vehicle_pose.theta)
    s = math.sin(vehicle_pose.theta)
    return (c * dx + s * dy, -s * dx + c * dy)


def point_in_rectangle(body_point, geometry):
    """Closed-rectangle membership in the body frame; the boundary counts as
    inside (conservative collision semantics)."""
    px, py = body_point
    return (
        -geometry.rear_overhang <= px <= geometry.front_extent
        and abs(py) <= geometry.width / 2.0
    )


def cell_center(spec, ix, iy):
    """World coordinates of the center of grid cell (ix, iy)."""
    return (
        spec.x_min + (ix + 0.5) * spec.cell_size,
        spec.y_min + (iy + 0.5) * spec.cell_size,
    )


# The twelve classic Reeds-Shepp word families, one function each, as the
# library evaluated them before its flat one-pass enumeration. Each maps one
# polar term (rho, theta) and the variant heading phi to its signed segment
# parameters, or None where the formula does not apply.

_F = Gear.FORWARD
_B = Gear.REVERSE
_L, _S, _R = 1, 0, -1  # curvature signs, as ints so that a reflected 0 stays +0.0


def _lsl(rho, theta, phi):
    return theta, rho, normalize_angle(phi - theta)


def _lsr(rho, theta, phi):
    if rho * rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0)
    t = normalize_angle(theta + math.atan2(2.0, u))
    return t, u, normalize_angle(t - phi)


def _lrl(rho, theta, phi):
    if rho > 4.0:
        return None
    a = math.acos(rho / 4.0)
    t = normalize_angle(theta + math.pi / 2.0 + a)
    u = normalize_angle(math.pi - 2.0 * a)
    return t, u, normalize_angle(phi - t - u)


def _lrl_rr(rho, theta, phi):
    if rho > 4.0:
        return None
    a = math.acos(rho / 4.0)
    t = normalize_angle(theta + math.pi / 2.0 + a)
    u = normalize_angle(math.pi - 2.0 * a)
    return t, u, normalize_angle(t + u - phi)


def _lrl_lr(rho, theta, phi):
    if rho > 4.0 or rho == 0.0:
        return None
    u = math.acos(1.0 - rho * rho / 8.0)
    a = _asin(2.0 * math.sin(u) / rho)
    t = normalize_angle(theta + math.pi / 2.0 - a)
    return t, u, normalize_angle(t - u - phi)


def _lrlr_u(rho, theta, phi):
    if rho > 4.0:
        return None
    if rho <= 2.0:
        a = math.acos((rho + 2.0) / 4.0)
        t = normalize_angle(theta + math.pi / 2.0 + a)
        u = normalize_angle(a)
    else:
        a = math.acos((rho - 2.0) / 4.0)
        t = normalize_angle(theta + math.pi / 2.0 - a)
        u = normalize_angle(math.pi - a)
    return t, u, u, normalize_angle(phi - t + 2.0 * u)


def _lrlr_neg(rho, theta, phi):
    u1 = (20.0 - rho * rho) / 16.0
    if rho > 6.0 or not 0.0 <= u1 <= 1.0:
        return None
    u = math.acos(u1)
    if u == 0.0:
        return None
    a = _asin(2.0 * math.sin(u) / rho)
    t = normalize_angle(theta + math.pi / 2.0 + a)
    return t, u, u, normalize_angle(t - phi)


def _lrsl(rho, theta, phi):
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(2.0, u + 2.0)
    t = normalize_angle(theta + math.pi / 2.0 + a)
    return t, math.pi / 2.0, u, normalize_angle(t - phi + math.pi / 2.0)


def _lsrl(rho, theta, phi):
    if rho < 2.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(u + 2.0, 2.0)
    t = normalize_angle(theta + math.pi / 2.0 - a)
    return t, u, math.pi / 2.0, normalize_angle(t - phi - math.pi / 2.0)


def _lrsr(rho, theta, phi):
    if rho < 2.0:
        return None
    t = normalize_angle(theta + math.pi / 2.0)
    return t, math.pi / 2.0, rho - 2.0, normalize_angle(phi - t - math.pi / 2.0)


def _lslr(rho, theta, phi):
    if rho < 2.0:
        return None
    t = normalize_angle(theta)
    return t, rho - 2.0, math.pi / 2.0, normalize_angle(phi - t - math.pi / 2.0)


def _lrslr(rho, theta, phi):
    if rho < 4.0:
        return None
    u = math.sqrt(rho * rho - 4.0) - 4.0
    if u < 0.0:
        return None
    a = math.atan2(2.0, u + 4.0)
    t = normalize_angle(theta + math.pi / 2.0 + a)
    return t, math.pi / 2.0, u, math.pi / 2.0, normalize_angle(t - phi)


def _variant_patterns(word):
    """Per variant (as is, timeflip, reflect, both): (curvature, gear for a
    nonnegative param, gear for a negative param) of every segment."""
    return tuple(
        tuple((float(turn_sign * t), Gear(gear_sign * g), Gear(-gear_sign * g)) for t, g in word)
        for turn_sign, gear_sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


# (family, reads (x + sin phi, y - 1 - cos phi) rather than
# (x - sin phi, y - 1 + cos phi), per-variant segment patterns)
_FAMILIES = tuple(
    (family, plus, _variant_patterns(word))
    for family, plus, word in (
        (_lsl, False, ((_L, _F), (_S, _F), (_L, _F))),
        (_lsr, True, ((_L, _F), (_S, _F), (_R, _F))),
        (_lrl, False, ((_L, _F), (_R, _B), (_L, _F))),
        (_lrl_rr, False, ((_L, _F), (_R, _B), (_L, _B))),
        (_lrl_lr, False, ((_L, _F), (_R, _F), (_L, _B))),
        (_lrlr_u, True, ((_L, _F), (_R, _F), (_L, _B), (_R, _B))),
        (_lrlr_neg, True, ((_L, _F), (_R, _B), (_L, _B), (_R, _F))),
        (_lrsl, False, ((_L, _F), (_R, _B), (_S, _B), (_L, _B))),
        (_lsrl, False, ((_L, _F), (_S, _F), (_R, _F), (_L, _B))),
        (_lrsr, True, ((_L, _F), (_R, _B), (_S, _B), (_R, _B))),
        (_lslr, True, ((_L, _F), (_S, _F), (_L, _F), (_R, _B))),
        (_lrslr, True, ((_L, _F), (_R, _B), (_S, _B), (_L, _B), (_R, _F))),
    )
)


def _raw_candidates(x: float, y: float, phi: float) -> list:
    """Unverified (length, params, pattern) of every family/variant word with
    a segment above 1e-12, in enumeration order."""
    s, c = math.sin(phi), math.cos(phi)
    s_neg, c_neg = math.sin(-phi), math.cos(-phi)
    variants = []
    for vx, vy, vphi, vs, vc in (
        (x, y, phi, s, c),
        (-x, y, -phi, s_neg, c_neg),
        (x, -y, -phi, s_neg, c_neg),
        (-x, -y, phi, s, c),
    ):
        mx, my = vx - vs, vy - 1.0 + vc
        px, py = vx + vs, vy - 1.0 - vc
        variants.append(
            (
                (math.hypot(mx, my), math.atan2(my, mx), vphi),
                (math.hypot(px, py), math.atan2(py, px), vphi),
            )
        )
    candidates = []
    for family, plus, patterns in _FAMILIES:
        for terms, pattern in zip(variants, patterns):
            params = family(*terms[plus])
            if params is None:
                continue
            length = 0.0
            for p in params:  # adds |p|, bit for bit, without an abs() call
                if p > 1e-12:
                    length += p
                elif p < -1e-12:
                    length -= p
            if length:
                candidates.append((length, params, pattern))
    return candidates


def rs_candidates(start, goal, turning_radius):
    """Every endpoint-valid Reeds-Shepp word, in family enumeration order."""
    x, y, phi = _normalized_goal(start, goal, turning_radius)
    if _coincident(x, y, phi):
        return [RSPath((), 0.0)]
    paths = []
    for length, params, pattern in _raw_candidates(x, y, phi):
        elements = _verified(params, pattern, x, y, phi)
        if elements is not None:
            paths.append(_to_path(elements, length, turning_radius))
    return paths


def linear_collision_scan(path, start, geometry, obstacles, spacing=0.1):
    """Whether the vehicle clears the obstacles along an RS path: every pose,
    start to end, each arc driven from its own start every `spacing` m and
    to its end, until the first one that collides."""
    poses = [start]
    pose = start
    for gear, curvature, length in path.segments:
        steps = max(math.ceil(length / spacing - 1e-9), 1)
        poses += [advance_arc(pose, gear, curvature, k * spacing) for k in range(1, steps)]
        pose = advance_arc(pose, gear, curvature, length)
        poses.append(pose)
    return not any(vehicle_collides(p, geometry, obstacles) for p in poses)


def points_loop(value, where):
    """[x, y] pairs as a tuple of float pairs, item by item; a pair of finite
    floats is taken as it is, anything else goes through `_number`, which
    names the item on an error."""
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of [x, y] pairs")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, (list, tuple)) and len(item) == 2:
            x, y = item
            if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
                out.append((x, y))
                continue
        at = f"{where}[{i}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ScenarioError(f"{at}: expected an [x, y] pair")
        out.append((_number(item[0], at), _number(item[1], at)))
    return tuple(out)


def rectangle_corners(pose, geometry):
    """Vehicle rectangle corners via direct trigonometry (no frame helper)."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    xr, xf = -geometry.rear_overhang, geometry.length - geometry.rear_overhang
    h = geometry.width / 2.0
    return [
        (pose.x + c * bx - s * by, pose.y + s * bx + c * by)
        for bx, by in ((xr, -h), (xf, -h), (xf, h), (xr, h))
    ]


def polygon_contains(corners, point, tol=0.0):
    """Half-plane containment for a convex CCW polygon; boundary (within tol)
    counts as inside."""
    x, y = point
    n = len(corners)
    for i in range(n):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % n]
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if cross < -tol:
            return False
    return True


def rk4_arc(pose, gear, steering, ds, wheelbase, steps=256):
    """Fourth-order integration of the unit-speed single-track model."""
    sigma = float(gear)
    kappa = math.tan(steering) / wheelbase

    def deriv(theta):
        return sigma * math.cos(theta), sigma * math.sin(theta), sigma * kappa

    x, y, theta = pose.x, pose.y, pose.theta
    h = ds / steps
    for _ in range(steps):
        k1 = deriv(theta)
        k2 = deriv(theta + 0.5 * h * k1[2])
        k3 = deriv(theta + 0.5 * h * k2[2])
        k4 = deriv(theta + h * k3[2])
        x += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        theta += h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, y, theta


def octile(di: int, dj: int, cell_size: float) -> float:
    """Closed-form 8-connected grid distance on an empty map."""
    a, b = abs(di), abs(dj)
    lo, hi = min(a, b), max(a, b)
    return cell_size * (hi - lo) + cell_size * math.sqrt(2.0) * lo


def bellman_ford_field(nx, ny, blocked, goal_cell, cell_size):
    """Fixpoint relaxation over the same 8-connected edges and weights."""
    axis = cell_size
    diag = cell_size * math.sqrt(2.0)
    moves = (
        (1, 0, axis), (-1, 0, axis), (0, 1, axis), (0, -1, axis),
        (1, 1, diag), (1, -1, diag), (-1, 1, diag), (-1, -1, diag),
    )
    dist = [[math.inf] * ny for _ in range(nx)]
    gx, gy = goal_cell
    dist[gx][gy] = 0.0
    changed = True
    while changed:
        changed = False
        for ix in range(nx):
            for iy in range(ny):
                if blocked[ix][iy] or math.isinf(dist[ix][iy]):
                    continue
                base = dist[ix][iy]
                for dx, dy, w in moves:
                    jx, jy = ix + dx, iy + dy
                    if 0 <= jx < nx and 0 <= jy < ny and not blocked[jx][jy]:
                        nd = base + w
                        if nd < dist[jx][jy]:
                            dist[jx][jy] = nd
                            changed = True
    return dist


def uniform_cost_over_primitives(
    scenario, start_pose, start_gear=Gear.FORWARD, collide=None
):
    """Plain Dijkstra over the primitive graph with cell deduplication and no
    heuristics; returns {CellKey: (g, pose)} for every settled state."""
    spec = scenario.workspace
    primitives = scenario.search.primitives
    penalties = scenario.search.penalties
    wheelbase = scenario.vehicle.wheelbase

    class _State:
        __slots__ = ("pose", "gear", "steering")

        def __init__(self, pose, gear, steering):
            self.pose = pose
            self.gear = gear
            self.steering = steering

    start_cell = CellKey(
        *spec.cell_of(start_pose.x, start_pose.y),
        spec.heading_bin(start_pose.theta),
        start_gear,
    )
    best = {start_cell: (0.0, start_pose)}
    counter = 0
    heap = [(0.0, counter, _State(start_pose, start_gear, 0.0), start_cell, True)]
    settled: dict[CellKey, tuple[float, object]] = {}
    while heap:
        g, _, state, cell, is_start = heapq.heappop(heap)
        if cell in settled or g > best[cell][0]:
            continue
        settled[cell] = (g, state.pose)
        for step in successors(state, primitives, wheelbase):
            end = step.end_pose
            if not spec.contains(end.x, end.y):
                continue
            if collide is not None and collide(end, state.pose, step):
                continue
            child_cell = CellKey(
                *spec.cell_of(end.x, end.y),
                spec.heading_bin(end.theta),
                step.gear,
            )
            if child_cell in settled:
                continue
            g_new = g + step_cost(step, None if is_start else state, penalties)
            if child_cell not in best or g_new < best[child_cell][0]:
                best[child_cell] = (g_new, end)
                counter += 1
                heapq.heappush(
                    heap,
                    (g_new, counter, _State(end, step.gear, step.steering), child_cell, False),
                )
    return settled
