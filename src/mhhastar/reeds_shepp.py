"""Shortest bounded-curvature paths for a car that drives forward and reverse.

Candidates come from the twelve classic closed-form word families, each
evaluated on four variants of the goal (as is, timeflipped, reflected, both),
48 words in a normalized frame where the turning radius is 1. A word is its
signed segment parameters; a static (curvature, gear) pattern per family and
variant names the segments, and a negative parameter means the same circle
driven in the opposite gear. `_words` evaluates all families in one flat pass
per variant, which computes the two polar terms every family reads, rho^2,
acos(rho / 4) and sqrt(rho^2 - 4) once for the families that share them.

A word's length is the left-to-right sum of |param| over parameters above
1e-12. The answer is the first word in (length, enumeration index) order
(family by family, then variant) that ends at the goal; a formula that does
not apply fails that check. Selection screens words by their plain |param|
sum, which is within five dropped 1e-12 terms and a few ulps of the length,
and ranks and verifies only those within tol = 1e-9 * (1 + screen minimum)
of the minimum. Every other word is longer than screen minimum + tol / 2, so
the first of them to verify within that bound is the answer; failing that,
all words are ranked and verified. `_words` drops a word whose plain sum
exceeds the least plain sum before it by more than that one's tol, and
generates every word only for that last ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pose, normalize_angle
from .vehicle import SAMPLE_SPACING, Arc, ArcStations, Gear, advance_arc, bisection_order


@dataclass(frozen=True)
class RSPath:
    """A curve as an ordered word of arcs; lengths are in meters."""

    segments: tuple[Arc, ...]
    total_length: float


# Verified segment: (length, curvature, gear) in the normalized frame.
_Element = tuple[float, float, Gear]

_HALF_PI = math.pi / 2.0


def _asin(value: float) -> float:
    # Inputs are mathematically within [-1, 1]; clamp rounding overshoot.
    return math.asin(max(-1.0, min(1.0, value)))


_F = Gear.FORWARD
_B = Gear.REVERSE
_L, _S, _R = 1, 0, -1  # curvature signs, as ints so that a reflected 0 stays +0.0

# Segment letters of each family, in enumeration order.
_FAMILY_WORDS = (
    ((_L, _F), (_S, _F), (_L, _F)),  # LSL
    ((_L, _F), (_S, _F), (_R, _F)),  # LSR
    ((_L, _F), (_R, _B), (_L, _F)),  # L|R|L
    ((_L, _F), (_R, _B), (_L, _B)),  # L|RL
    ((_L, _F), (_R, _F), (_L, _B)),  # LR|L
    ((_L, _F), (_R, _F), (_L, _B), (_R, _B)),  # LRu|LuR
    ((_L, _F), (_R, _B), (_L, _B), (_R, _F)),  # L|RuLu|R
    ((_L, _F), (_R, _B), (_S, _B), (_L, _B)),  # L|R(pi/2)SL
    ((_L, _F), (_S, _F), (_R, _F), (_L, _B)),  # LSR(pi/2)|L
    ((_L, _F), (_R, _B), (_S, _B), (_R, _B)),  # L|R(pi/2)SR
    ((_L, _F), (_S, _F), (_L, _F), (_R, _B)),  # LSL(pi/2)|R
    ((_L, _F), (_R, _B), (_S, _B), (_L, _B), (_R, _F)),  # L|R(pi/2)SL(pi/2)|R
)

# Per word, by enumeration index 4 * family + variant (as is, timeflip,
# reflect, both): (curvature, gear for a nonnegative param, gear for a
# negative param) of every segment.
_PATTERNS = tuple(
    tuple((float(turn_sign * t), Gear(gear_sign * g), Gear(-gear_sign * g)) for t, g in word)
    for word in _FAMILY_WORDS
    for turn_sign, gear_sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))
)


def _words(x: float, y: float, phi: float, every: bool = False) -> list:
    """(plain |param| sum, enumeration index, params) of the words whose
    formula applies, variant by variant: all of them if `every`, else those
    within tol of the least plain sum before them, which include every word
    within tol of the least of all. A word's last parameter is a turn, which
    is wrapped only once the other terms leave the word in the running."""
    s, c = math.sin(phi), math.cos(phi)
    s_neg, c_neg = math.sin(-phi), math.cos(-phi)
    N = normalize_angle
    words = []
    cut = math.inf  # a word with a larger plain sum is dropped

    def keep(word) -> float:
        """Keep word; the cut its plain sum sets, inf if every word is kept."""
        words.append(word)
        plain = word[0]
        return math.inf if every else plain + 1e-9 * (1.0 + plain)

    for v, (vx, vy, vphi, vs, vc) in enumerate(
        ((x, y, phi, s, c), (-x, y, -phi, s_neg, c_neg), (x, -y, -phi, s_neg, c_neg), (-x, -y, phi, s, c))
    ):
        # Families on (x - sin phi, y - 1 + cos phi).
        mx, my = vx - vs, vy - 1.0 + vc
        rho, th = math.hypot(mx, my), math.atan2(my, mx)
        r2 = rho * rho
        plain = abs(th) + rho  # LSL
        if plain <= cut:
            w = N(vphi - th)
            plain += abs(w)
            if plain <= cut:
                cut = min(cut, keep((plain, v, (th, rho, w))))
        if rho <= 4.0:
            # acos lies in [0, pi], where normalize_angle is the identity.
            a = math.acos(rho / 4.0)
            t = N(th + _HALF_PI + a)
            u = math.pi - 2.0 * a
            head = abs(t) + u
            if head <= cut:
                w = N(vphi - t - u)
                plain = head + abs(w)  # L|R|L
                if plain <= cut:
                    cut = min(cut, keep((plain, 8 + v, (t, u, w))))
                w = N(t + u - vphi)
                plain = head + abs(w)  # L|RL
                if plain <= cut:
                    cut = min(cut, keep((plain, 12 + v, (t, u, w))))
            if rho != 0.0:
                u = math.acos(1.0 - r2 / 8.0)
                t = N(th + _HALF_PI - _asin(2.0 * math.sin(u) / rho))
                plain = abs(t) + abs(u)  # LR|L
                if plain <= cut:
                    w = N(t - u - vphi)
                    plain += abs(w)
                    if plain <= cut:
                        cut = min(cut, keep((plain, 16 + v, (t, u, w))))
        if rho >= 2.0:
            q = math.sqrt(r2 - 4.0) - 2.0
            t = N(th + _HALF_PI + math.atan2(2.0, q + 2.0))
            plain = abs(t) + _HALF_PI + abs(q)  # L|R(pi/2)SL
            if plain <= cut:
                w = N(t - vphi + _HALF_PI)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 28 + v, (t, _HALF_PI, q, w))))
            t = N(th + _HALF_PI - math.atan2(q + 2.0, 2.0))
            plain = abs(t) + abs(q) + _HALF_PI  # LSR(pi/2)|L
            if plain <= cut:
                w = N(t - vphi - _HALF_PI)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 32 + v, (t, q, _HALF_PI, w))))

        # Families on (x + sin phi, y - 1 - cos phi).
        px, py = vx + vs, vy - 1.0 - vc
        rho, th = math.hypot(px, py), math.atan2(py, px)
        r2 = rho * rho
        if r2 >= 4.0:
            root = math.sqrt(r2 - 4.0)
            t = N(th + math.atan2(2.0, root))
            plain = abs(t) + root  # LSR
            if plain <= cut:
                w = N(t - vphi)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 4 + v, (t, root, w))))
        if rho <= 4.0:
            if rho <= 2.0:
                a = math.acos((rho + 2.0) / 4.0)
                t = N(th + _HALF_PI + a)
                u = a
            else:
                a = math.acos((rho - 2.0) / 4.0)
                t = N(th + _HALF_PI - a)
                u = math.pi - a
            plain = abs(t) + 2.0 * u  # LRu|LuR
            if plain <= cut:
                w = N(vphi - t + 2.0 * u)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 20 + v, (t, u, u, w))))
        u1 = (20.0 - r2) / 16.0
        if rho <= 6.0 and 0.0 <= u1 <= 1.0:
            u = math.acos(u1)
            if u != 0.0:
                t = N(th + _HALF_PI + _asin(2.0 * math.sin(u) / rho))
                plain = abs(t) + 2.0 * u  # L|RuLu|R
                if plain <= cut:
                    w = N(t - vphi)
                    plain += abs(w)
                    if plain <= cut:
                        cut = min(cut, keep((plain, 24 + v, (t, u, u, w))))
        if rho >= 2.0:
            q = rho - 2.0
            t = N(th + _HALF_PI)
            plain = abs(t) + _HALF_PI + q  # L|R(pi/2)SR
            if plain <= cut:
                w = N(vphi - t - _HALF_PI)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 36 + v, (t, _HALF_PI, q, w))))
            t = N(th)
            plain = abs(t) + q + _HALF_PI  # LSL(pi/2)|R
            if plain <= cut:
                w = N(vphi - t - _HALF_PI)
                plain += abs(w)
                if plain <= cut:
                    cut = min(cut, keep((plain, 40 + v, (t, q, _HALF_PI, w))))
            if rho >= 4.0 and root >= 4.0:  # L|R(pi/2)SL(pi/2)|R
                q = root - 4.0
                t = N(th + _HALF_PI + math.atan2(2.0, q + 4.0))
                plain = abs(t) + math.pi + q
                if plain <= cut:
                    w = N(t - vphi)
                    plain += abs(w)
                    if plain <= cut:
                        cut = min(cut, keep((plain, 44 + v, (t, _HALF_PI, q, _HALF_PI, w))))
    return words


def _length(params) -> float:
    """Left-to-right sum of |p| over the parameters above 1e-12."""
    length = 0.0
    for p in params:  # adds |p|, bit for bit, without an abs() call
        if p > 1e-12:
            length += p
        elif p < -1e-12:
            length -= p
    return length


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


def _select(words, x: float, y: float, phi: float):
    """(length, elements) of the first word of nonzero length, in (length,
    enumeration index) order, that ends at (x, y, phi); None if none does."""
    for length, i, params in sorted((_length(params), i, params) for _, i, params in words):
        if length:
            elements = _verified(params, _PATTERNS[i], x, y, phi)
            if elements is not None:
                return length, elements
    return None


def rs_shortest(start: Pose, goal: Pose, turning_radius: float) -> RSPath:
    """Minimum-length candidate; ties keep the earliest-enumerated word."""
    if turning_radius <= 0.0:
        raise ValueError("turning_radius must be positive")
    x, y, phi = _normalized_goal(start, goal, turning_radius)
    if _coincident(x, y, phi):
        return RSPath((), 0.0)
    words = _words(x, y, phi)
    screen = min(words)[0]
    tol = 1e-9 * (1.0 + screen)
    best = _select([word for word in words if word[0] <= screen + tol], x, y, phi)
    if best is None or best[0] > screen + tol / 2.0:
        best = _select(_words(x, y, phi, every=True), x, y, phi)
    if best is None:  # no word ends at the goal: the empty word
        return RSPath((), 0.0)
    return _to_path(best[1], best[0], turning_radius)


def rs_collision_free(path: RSPath, start: Pose, geometry, obstacles) -> bool:
    """True iff the vehicle clears the obstacles at every pose `arc_poses`
    samples: the start, then each station of `ArcStations`. Visits them in
    bisection order (start, middle, quarters, ...), builds each station and
    pose only when visited, and returns False at the first colliding one."""
    from .geometry import vehicle_collides

    stations = ArcStations(start, path.segments, SAMPLE_SPACING)
    for k in bisection_order(len(stations) + 1):
        pose = advance_arc(*stations[k - 1]) if k else start
        if vehicle_collides(pose, geometry, obstacles):
            return False
    return True
