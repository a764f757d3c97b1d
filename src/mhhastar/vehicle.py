"""Single-track kinematics, the discrete motion primitives that generate
search successors and their step cost, and the sampler that turns a chain of
arcs into path poses."""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .geometry import Pose

SAMPLE_SPACING = 0.1  # [m] arc length between the poses of a returned or checked path


class Gear(IntEnum):
    """Driving direction; the integer value is the sign of the velocity."""

    FORWARD = 1
    REVERSE = -1

    @property
    def label(self) -> str:
        return "F" if self is Gear.FORWARD else "R"


@dataclass(frozen=True)
class PenaltyConfig:
    """Surcharges on top of arc length: reverse driving, direction changes,
    and steering discontinuities between consecutive primitives."""

    reverse_mult: float = 2.0
    switchback: float = 10.0
    steer_hold: float = 0.0
    steer_change: float = 1.5


def _sinc(x: float) -> float:
    # sin(x)/x, stable through zero
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def advance_arc(start: Pose, gear: Gear, curvature: float, ds: float) -> Pose:
    """Move `ds` meters along a constant-curvature arc (straight at zero).

    Half-angle chord form: the displacement has length ds*sinc(a/2) along
    heading theta + a/2, where a is the signed heading change. Unlike the
    difference-of-sines form it does not cancel for tiny curvatures.
    """
    sigma = float(gear)
    alpha = sigma * curvature * ds
    half = 0.5 * alpha
    chord = ds * _sinc(half)
    mid = start.theta + half
    return Pose(
        start.x + sigma * chord * math.cos(mid),
        start.y + sigma * chord * math.sin(mid),
        start.theta + alpha,  # Pose wraps it to (-pi, pi]
    )


class Arc(NamedTuple):
    """One drive at constant curvature [1/m] (0 for straight) over `length` m."""

    gear: Gear
    curvature: float
    length: float


class Primitive(NamedTuple):
    """One motion primitive: the steering angle that the step cost reads and
    the arc it drives."""

    steering: float
    arc: Arc


def primitive_table(
    arc_length: float, steering_angles: Sequence[float], wheelbase: float
) -> tuple[Primitive, ...]:
    """One primitive per (gear, steering) pair, forward gears before reverse,
    steering angles in listed order; each drives arc_length at curvature
    tan(steering) / wheelbase."""
    return tuple(
        Primitive(steer, Arc(gear, math.tan(steer) / wheelbase, arc_length))
        for gear in (Gear.FORWARD, Gear.REVERSE)
        for steer in steering_angles
    )


def arc_steps(length: float, spacing: float) -> int:
    """How many poses `arc_poses` gives along one arc after its start pose,
    the last at its end."""
    return max(math.ceil(length / spacing - 1e-9), 1)


Station = tuple[Pose, Gear, float, float]  # arc start, gear, curvature, distance along the arc


def arc_stations(start: Pose, arcs: Sequence[Arc], spacing: float) -> list[Station]:
    """The stations of every pose `arc_poses` gives after the start pose:
    each arc's every `spacing` m, then its end, where the next arc starts."""
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    stations = []
    pose = start
    for gear, curvature, length in arcs:
        stations += [(pose, gear, curvature, k * spacing) for k in range(1, arc_steps(length, spacing))]
        stations.append((pose, gear, curvature, length))
        pose = advance_arc(pose, gear, curvature, length)
    return stations


def arc_poses(start: Pose, arcs: Sequence[Arc], spacing: float) -> Iterator[tuple[Pose, Gear]]:
    """The start pose, then each arc's poses `spacing` m apart (last step
    shorter) ending exactly at its length, where the next arc starts; every
    pose is tagged with its arc's gear, the start with the first arc's."""
    stations = arc_stations(start, arcs, spacing)
    yield start, arcs[0].gear if arcs else Gear.FORWARD
    for station in stations:
        yield advance_arc(*station), station[1]


def bisection_order(n: int) -> Iterator[int]:
    """Each of range(n) once: 0, then the midpoints of ever finer halvings,
    0, n/2, n/4, 3n/4, ..., so that early indices spread over the range."""
    if n > 0:
        yield 0
    spans = deque([(0, n)])
    while spans:
        lo, hi = spans.popleft()
        mid = (lo + hi) // 2
        if mid > lo:
            yield mid
            spans += ((lo, mid), (mid, hi))


def successors(pose: Pose, primitives: Sequence[Primitive]) -> list[tuple[Primitive, Pose]]:
    """Each primitive of the table with the pose it ends at from `pose`."""
    return [(primitive, advance_arc(pose, *primitive.arc)) for primitive in primitives]


def step_cost(primitive: Primitive, previous: Primitive | None, penalties: PenaltyConfig) -> float:
    """Arc length plus penalties; `previous` is the primitive driven just
    before, None at the path start."""
    steering, (gear, _, length) = primitive
    cost = length * (penalties.reverse_mult if gear is Gear.REVERSE else 1.0)
    if previous is not None:
        if gear != previous.arc.gear:
            cost += penalties.switchback
        cost += penalties.steer_change * abs(steering - previous.steering)
    cost += penalties.steer_hold * abs(steering)
    return cost
