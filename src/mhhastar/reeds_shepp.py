"""Shortest bounded-curvature paths for a car that drives forward and reverse.

Candidates come from the twelve classic closed-form word families, each
evaluated on four variants of the goal (as is, timeflipped, reflected, both),
48 words in a normalized frame where the turning radius is 1. Per variant the
sin/cos of its heading and the two polar terms every family reads,
(x - sin phi, y - 1 + cos phi) and (x + sin phi, y - 1 - cos phi), are computed
once. A family returns only its signed segment parameters; a static
(curvature, gear) pattern per family and variant names the segments, and a
negative parameter means the same circle driven in the opposite gear.

Selection builds no segment objects for losing words. A candidate's length is
the left-to-right sum of |param| over parameters above 1e-12; candidates are
ranked by a stable sort over enumeration order (family, then variant) and
endpoint-verified shortest first, so among equal lengths the
earliest-enumerated word wins. A formula that does not apply fails
verification and simply drops out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .geometry import Pose, normalize_angle
from .vehicle import SAMPLE_SPACING, Arc, Gear, advance_arc, arc_stations, bisection_order


@dataclass(frozen=True)
class RSPath:
    """A curve as an ordered word of arcs; lengths are in meters."""

    segments: tuple[Arc, ...]
    total_length: float


# Verified segment: (length, curvature, gear) in the normalized frame.
_Element = tuple[float, float, Gear]


def _asin(value: float) -> float:
    # Inputs are mathematically within [-1, 1]; clamp rounding overshoot.
    return math.asin(max(-1.0, min(1.0, value)))


_F = Gear.FORWARD
_B = Gear.REVERSE
_L, _S, _R = 1, 0, -1  # curvature signs, as ints so that a reflected 0 stays +0.0

# Each family maps one polar term (rho, theta) and the variant heading phi to
# its signed segment parameters, or None where the formula does not apply.


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


def _advance_unit(x, y, theta, element: _Element):
    """Apply one element in the normalized (radius 1) frame."""
    p, kappa, gear = element
    sigma = float(gear)
    if not kappa:
        return x + sigma * p * math.cos(theta), y + sigma * p * math.sin(theta), theta
    theta_end = theta + sigma * kappa * p
    x_end = x + (math.sin(theta_end) - math.sin(theta)) / kappa
    y_end = y + (math.cos(theta) - math.cos(theta_end)) / kappa
    return x_end, y_end, theta_end


def _endpoint_matches(elements: list[_Element], x, y, phi) -> bool:
    cx, cy, ct = 0.0, 0.0, 0.0
    for element in elements:
        cx, cy, ct = _advance_unit(cx, cy, ct, element)
    return (
        abs(cx - x) < 1e-8
        and abs(cy - y) < 1e-8
        and abs(normalize_angle(ct - phi)) < 1e-8
    )


def _normalized_goal(start: Pose, goal: Pose, turning_radius: float):
    dx = goal.x - start.x
    dy = goal.y - start.y
    c = math.cos(start.theta)
    s = math.sin(start.theta)
    x = (c * dx + s * dy) / turning_radius
    y = (-s * dx + c * dy) / turning_radius
    return x, y, normalize_angle(goal.theta - start.theta)


def _coincident(x: float, y: float, phi: float) -> bool:
    # Exactly-coincident poses degenerate every word to zero segments; the
    # correct answer is the empty word, not the shortest loop.
    return abs(x) < 1e-12 and abs(y) < 1e-12 and abs(phi) < 1e-12


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


def _verified(params, pattern, x: float, y: float, phi: float) -> list[_Element] | None:
    """The word's elements if it ends at (x, y, phi), else None."""
    elements = [
        (abs(p), kappa, neg if p < 0.0 else gear)
        for p, (kappa, gear, neg) in zip(params, pattern)
        if abs(p) > 1e-12
    ]
    return elements if _endpoint_matches(elements, x, y, phi) else None


def _to_path(elements: list[_Element], length: float, turning_radius: float) -> RSPath:
    segments = tuple(
        Arc(gear, kappa / turning_radius, p * turning_radius) for p, kappa, gear in elements
    )
    return RSPath(segments, length * turning_radius)


def rs_shortest(start: Pose, goal: Pose, turning_radius: float) -> RSPath:
    """Minimum-length candidate; ties keep the earliest-enumerated word."""
    if turning_radius <= 0.0:
        raise ValueError("turning_radius must be positive")
    x, y, phi = _normalized_goal(start, goal, turning_radius)
    if _coincident(x, y, phi):
        return RSPath((), 0.0)
    # Verify lazily, shortest first; the stable sort preserves enumeration
    # order among equal lengths.
    candidates = _raw_candidates(x, y, phi)
    candidates.sort(key=itemgetter(0))
    for length, params, pattern in candidates:
        elements = _verified(params, pattern, x, y, phi)
        if elements is not None:
            return _to_path(elements, length, turning_radius)
    # Coincident poses: the empty word.
    return RSPath((), 0.0)


def rs_collision_free(path: RSPath, start: Pose, geometry, obstacles) -> bool:
    """True iff the vehicle clears the obstacles at every pose `arc_poses`
    samples SAMPLE_SPACING apart. Visits them in bisection order (start,
    middle, quarters, ...), builds each pose only when it is visited, and
    returns False at the first colliding one."""
    from .geometry import vehicle_collides

    stations = arc_stations(start, path.segments, SAMPLE_SPACING)
    for k in bisection_order(len(stations) + 1):
        pose = advance_arc(*stations[k - 1]) if k else start
        if vehicle_collides(pose, geometry, obstacles):
            return False
    return True
