"""Single-track kinematics, the discrete motion primitives that generate
search successors and their step cost, and the sampler that turns a chain of
arcs into path poses."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
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


def _arc_terms(gear: Gear, curvature: float, ds: float) -> tuple[float, float, float]:
    """(sigma * chord, half-angle, heading change): `advance_arc`'s terms."""
    sigma = float(gear)
    alpha = sigma * curvature * ds
    half = 0.5 * alpha
    return sigma * (ds * _sinc(half)), half, alpha


def advance_arc(start: Pose, gear: Gear, curvature: float, ds: float) -> Pose:
    """Move `ds` meters along a constant-curvature arc (straight at zero).

    Half-angle chord form: the displacement has length ds*sinc(a/2) along
    heading theta + a/2, where a is the signed heading change. Unlike the
    difference-of-sines form it does not cancel for tiny curvatures.
    """
    reach, half, alpha = _arc_terms(gear, curvature, ds)
    mid = start.theta + half  # Pose wraps start.theta + alpha to (-pi, pi]
    return Pose(start.x + reach * math.cos(mid), start.y + reach * math.sin(mid), start.theta + alpha)


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


class PrimitiveTable(tuple):
    """Primitives, and what `successors` reads of them, worked out once: the
    distinct `halves` (+0.0 and -0.0 apart: their sines differ at a heading of
    -0.0) and per primitive `moves`, (primitive, half index, sigma * chord, alpha)."""

    def __new__(cls, primitives: Iterable[Primitive]) -> PrimitiveTable:
        table = super().__new__(cls, primitives)
        terms = [(p, *_arc_terms(*p.arc)) for p in table]
        keys = list(dict.fromkeys((half, math.copysign(1.0, half)) for _, _, half, _ in terms))
        table.halves = tuple(half for half, _ in keys)
        table.moves = tuple((p, keys.index((h, math.copysign(1.0, h))), r, a) for p, r, h, a in terms)
        return table


def primitive_table(
    arc_length: float, steering_angles: Sequence[float], wheelbase: float
) -> PrimitiveTable:
    """One primitive per (gear, steering) pair, forward gears before reverse,
    steering angles in listed order; each drives arc_length at curvature
    tan(steering) / wheelbase."""
    return PrimitiveTable(
        Primitive(steer, Arc(gear, math.tan(steer) / wheelbase, arc_length))
        for gear in (Gear.FORWARD, Gear.REVERSE)
        for steer in steering_angles
    )


Station = tuple[Pose, Gear, float, float]  # arc start, gear, curvature, distance along the arc


class ArcStations:
    """The stations of every pose `arc_poses` gives after the start pose, each
    arc's every `spacing` m, then its end, where the next arc starts: a lazily
    indexed sequence, which works out the arcs' start poses up front."""

    def __init__(self, start: Pose, arcs: Sequence[Arc], spacing: float):
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        # per arc: the index of its first station; (start pose, gear, curvature, length, stations)
        self._firsts, self._runs = [], []
        self._len, self._spacing = 0, spacing
        for arc in arcs:
            steps = max(math.ceil(arc.length / spacing - 1e-9), 1)  # the last at the arc's end
            self._firsts.append(self._len)
            self._runs.append((start, *arc, steps))
            self._len += steps
            start = advance_arc(start, *arc)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> Station:
        if not 0 <= i < self._len:
            raise IndexError("station index out of range")
        j = bisect_right(self._firsts, i) - 1
        pose, gear, curvature, length, steps = self._runs[j]
        k = i - self._firsts[j] + 1
        return pose, gear, curvature, k * self._spacing if k < steps else length


def arc_poses(start: Pose, arcs: Sequence[Arc], spacing: float) -> Iterator[tuple[Pose, Gear]]:
    """The start pose, then each arc's poses `spacing` m apart (last step
    shorter) ending exactly at its length, where the next arc starts; every
    pose is tagged with its arc's gear, the start with the first arc's."""
    stations = ArcStations(start, arcs, spacing)
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


def successors(pose: Pose, primitives: PrimitiveTable) -> list[tuple[Primitive, Pose]]:
    """Each primitive of the table with the pose it ends at from `pose`, bit
    for bit `advance_arc`'s, with one cos/sin pair per distinct half-angle."""
    x, y, theta = pose.x, pose.y, pose.theta
    trig = [(math.cos(theta + half), math.sin(theta + half)) for half in primitives.halves]
    return [(p, Pose(x + r * trig[k][0], y + r * trig[k][1], theta + a)) for p, k, r, a in primitives.moves]


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
