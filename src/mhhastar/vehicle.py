"""Single-track kinematics, physical limits, the discrete motion primitives
that generate search successors, and the sampler that turns a chain of arcs
into path poses."""

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
class VehicleLimits:
    """Steering bound; the geometric search is limited by phi_max alone."""

    phi_max: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.phi_max < math.pi / 2.0:
            raise ValueError("phi_max must lie in (0, pi/2)")

    def turning_radius(self, wheelbase: float) -> float:
        """Minimum turning radius at full steering lock."""
        return wheelbase / math.tan(self.phi_max)


@dataclass(frozen=True)
class MotionPrimitiveSet:
    """One expansion step per (gear, steering) combination."""

    arc_length: float = 0.5
    steering_angles: tuple[float, ...] = (-0.6, 0.0, 0.6)

    def __post_init__(self) -> None:
        if not (self.arc_length > 0.0 and math.isfinite(self.arc_length)):
            raise ValueError("arc_length must be positive and finite")


@dataclass(frozen=True)
class MotionStep:
    """A single applied primitive: where it ends and how it was driven."""

    gear: Gear
    steering: float
    end_pose: Pose
    length: float


@dataclass(frozen=True)
class PenaltyConfig:
    """Surcharges on top of arc length: reverse driving, direction changes,
    and steering discontinuities between consecutive primitives."""

    reverse_mult: float = 2.0
    switchback: float = 10.0
    steer_change: float = 1.5
    steer_hold: float = 0.0


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


def successors(state, primitives: MotionPrimitiveSet, wheelbase: float) -> list[MotionStep]:
    """All motion steps from `state.pose`, forward gears before reverse,
    steering angles in listed order; a step drives arc_length at curvature
    tan(steering)/wheelbase."""
    pose = state.pose
    steps = []
    for gear in (Gear.FORWARD, Gear.REVERSE):
        for steer in primitives.steering_angles:
            end = advance_arc(pose, gear, math.tan(steer) / wheelbase, primitives.arc_length)
            steps.append(MotionStep(gear, steer, end, primitives.arc_length))
    return steps


def step_cost(step: MotionStep, previous, penalties: PenaltyConfig) -> float:
    """Arc length plus penalties; `previous` needs .gear and .steering
    (a MotionStep or a search node), or None at the path start."""
    cost = step.length * (penalties.reverse_mult if step.gear is Gear.REVERSE else 1.0)
    if previous is not None:
        if step.gear != previous.gear:
            cost += penalties.switchback
        cost += penalties.steer_change * abs(step.steering - previous.steering)
    cost += penalties.steer_hold * abs(step.steering)
    return cost
