"""Parking scenario construction, JSON scenario files, and validation.

A scenario bundles the workspace grid, the point-cloud obstacles, the vehicle
description, start/goal poses, and the search configuration. The shipped
benchmark files cut a parallel-parking spot into the lower boundary wall.
The obstacles are one float (n, 2) array of wall points, then extra points.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from typing import Sequence

import numpy as np

from .geometry import ObstacleSet, Pose, VehicleGeometry
from .grid import GridSpec
from .search import SearchConfig, input_problems
from .vehicle import PenaltyConfig

WALL_POINT_SPACING = 0.1  # [m] between sampled wall points


class ScenarioError(ValueError):
    """Malformed scenario file or dictionary."""


@dataclass(frozen=True)
class SpotSpec:
    """Parking spot: a notch of `depth` by `length` whose opening is centered
    at x = center_x in the lower boundary wall."""

    depth: float
    length: float
    center_x: float

    def __post_init__(self) -> None:
        if not (self.depth > 0.0 and self.length > 0.0):
            raise ValueError("spot dimensions must be positive")
        if not all(map(math.isfinite, (self.depth, self.length, self.center_x))):
            raise ValueError("spot values must be finite")


@dataclass
class Scenario:
    workspace: GridSpec
    obstacles: ObstacleSet
    spot: SpotSpec | None
    start: Pose
    goal: Pose
    vehicle: VehicleGeometry
    search: SearchConfig = field(default_factory=SearchConfig)
    wall_count: int = 0  # obstacle points before the extra points

    @property
    def extra_points(self) -> tuple[tuple[float, float], ...]:
        """The obstacle points after the walls, as float pairs."""
        return tuple(map(tuple, self.obstacles.points[self.wall_count:].tolist()))


def _segment_points(p0, p1, spacing: float) -> list[tuple[float, float]]:
    """Evenly spaced points along a segment, both endpoints included, at
    intervals <= spacing."""
    x0, y0 = p0
    x1, y1 = p1
    seg_len = math.hypot(x1 - x0, y1 - y0)
    n = max(1, math.ceil(seg_len / spacing - 1e-12))
    return [
        (x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n) for k in range(n + 1)
    ]


def _parking_walls(
    workspace: GridSpec, spot: SpotSpec, goal: Pose, spacing: float
) -> list[tuple[float, float]]:
    """Wall point cloud: the lower boundary outside the spot opening, the
    spot's two sides and back, and the upper workspace boundary.

    The spot's vertical placement is not part of the written scenario
    geometry; the notch is centered on the goal's depth so the parked
    vehicle sits symmetrically inside it.
    """
    open_y = goal.y + spot.depth / 2.0
    floor_y = goal.y - spot.depth / 2.0
    left = spot.center_x - spot.length / 2.0
    right = spot.center_x + spot.length / 2.0
    if not (
        left >= workspace.x_min
        and right <= workspace.x_max
        and floor_y >= workspace.y_min
        and open_y <= workspace.y_max
    ):
        raise ValueError("spot extends outside the workspace")
    pts: list[tuple[float, float]] = []
    pts += _segment_points((workspace.x_min, open_y), (left, open_y), spacing)
    pts += _segment_points((right, open_y), (workspace.x_max, open_y), spacing)
    pts += _segment_points((left, floor_y), (left, open_y), spacing)
    pts += _segment_points((right, floor_y), (right, open_y), spacing)
    pts += _segment_points((left, floor_y), (right, floor_y), spacing)
    pts += _segment_points((workspace.x_min, workspace.y_max), (workspace.x_max, workspace.y_max), spacing)
    return pts


def build_parallel_parking(
    *,
    workspace: GridSpec,
    vehicle: VehicleGeometry,
    spot: SpotSpec | None,
    start: Pose,
    goal: Pose,
    search: SearchConfig | None = None,
    extra_points: Sequence[tuple[float, float]] = (),
) -> Scenario:
    """Deterministically assemble a scenario: the walls of `spot` (none when
    it is None), then `extra_points`. The one place a Scenario is built.

    A numpy array of extra points (the loader's output) is used as it is;
    any other sequence of pairs is made floats once, value by value."""
    if not isinstance(extra_points, np.ndarray):
        extra_points = np.array([(float(x), float(y)) for x, y in extra_points]).reshape(-1, 2)
    walls = _parking_walls(workspace, spot, goal, WALL_POINT_SPACING) if spot is not None else []
    wall_points = np.fromiter(chain.from_iterable(walls), float, 2 * len(walls)).reshape(-1, 2)
    return Scenario(
        workspace=workspace,
        obstacles=ObstacleSet(np.concatenate((wall_points, extra_points))),
        spot=spot,
        start=start,
        goal=goal,
        vehicle=vehicle,
        search=search if search is not None else SearchConfig(),
        wall_count=len(walls),
    )


# -- validation ----------------------------------------------------------------


def validate(scenario: Scenario) -> list[str]:
    """All invariant violations, empty when the scenario is usable: exactly
    the problems on which the planners refuse it."""
    return input_problems(scenario.start, scenario.goal, scenario, scenario.search)


# -- scenario files --------------------------------------------------------------


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: expected a finite number")
    return number


def _integer(value, where: str) -> int:
    if not _number(value, where).is_integer():
        raise ScenarioError(f"{where}: expected an integer")
    return int(value)


def _numbers(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _points(value, where: str) -> np.ndarray:
    """[x, y] pairs as an (n, 2) float array. C-level and numpy passes take a
    list of lists or tuples of two finite floats; any other list goes item by
    item through `_number`, which names the first bad item."""
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of [x, y] pairs")
    if set(map(type, value)) <= {list, tuple} and set(map(len, value)) <= {2}:
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) <= {float}:
            points = np.fromiter(flat, float, len(flat)).reshape(-1, 2)
            if np.isfinite(points).all():
                return points
    out = []
    for i, item in enumerate(value):
        at = f"{where}[{i}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ScenarioError(f"{at}: expected an [x, y] pair")
        out.append((_number(item[0], at), _number(item[1], at)))
    return np.array(out, dtype=float).reshape(-1, 2)


def _defaults(cls) -> dict:
    """Declared field defaults; a key that has none is required."""
    out = {}
    for f in fields(cls):
        if f.default is not MISSING:
            out[f.name] = f.default
        elif f.default_factory is not MISSING:
            out[f.name] = f.default_factory()
    return out


# The file layout, in file order: section -> (defaults, key -> reader). A
# reader validates and converts one value; a string names a nested section.
_POSE = (_defaults(Pose), {"x": _number, "y": _number, "theta": _number})
_SCHEMA = {
    "workspace": (_defaults(GridSpec), {
        "x_min": _number, "x_max": _number, "y_min": _number, "y_max": _number,
        "cell_size": _number, "heading_bins": _integer,
    }),
    "vehicle": (_defaults(VehicleGeometry), {
        "length": _number, "width": _number, "wheelbase": _number,
        "rear_overhang": _number, "phi_max": _number,
    }),
    "start": _POSE,
    "goal": _POSE,
    "search": (_defaults(SearchConfig), {
        "omega_factor": _number, "setvalue": _integer, "max_iterations": _integer,
        "inflation_factors": _numbers, "penalties": "search.penalties",
        "arc_length": _number, "steering_angles": _numbers,
    }),
    "search.penalties": (_defaults(PenaltyConfig), dict.fromkeys(
        ("reverse_mult", "switchback", "steer_hold", "steer_change"), _number
    )),
    "obstacles": ({"extra_points": ()}, {"extra_points": _points}),
    "spot": (_defaults(SpotSpec), {"depth": _number, "length": _number, "center_x": _number}),
}
_REQUIRED_SECTIONS = ("workspace", "vehicle", "start", "goal")


def _check_keys(mapping, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = sorted(str(k) for k in mapping if k not in allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _read(mapping, section: str) -> dict:
    """One section's values keyed as in the file, defaults filled in."""
    defaults, readers = _SCHEMA[section]
    _check_keys(mapping, readers, section)
    out = {}
    for key, reader in readers.items():
        where = f"{section}.{key}"
        if isinstance(reader, str):
            out[key] = _read(mapping.get(key, {}), reader)
        elif key in mapping:
            out[key] = reader(mapping[key], where)
        elif key in defaults:
            out[key] = defaults[key]
        else:
            raise ScenarioError(f"{where}: missing required value")
    return out


def _build(section: str, make, **values):
    try:
        return make(**values)
    except ValueError as e:
        raise ScenarioError(f"{section}: {e}") from e


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from the documented JSON structure; every malformed
    value raises ScenarioError naming its dotted key."""
    _check_keys(data, (*_REQUIRED_SECTIONS, "search", "obstacles", "spot"), "scenario")
    for name in _REQUIRED_SECTIONS:
        if name not in data:
            raise ScenarioError(f"scenario.{name}: missing required section")
    workspace = _build("workspace", GridSpec, **_read(data["workspace"], "workspace"))
    vehicle = _build("vehicle", VehicleGeometry, **_read(data["vehicle"], "vehicle"))
    spot = _build("spot", SpotSpec, **_read(data["spot"], "spot")) if "spot" in data else None
    start = Pose(**_read(data["start"], "start"))
    goal = Pose(**_read(data["goal"], "goal"))
    s = _read(data.get("search", {}), "search")
    penalties = PenaltyConfig(**s.pop("penalties"))
    return _build(
        "spot", build_parallel_parking,
        workspace=workspace, vehicle=vehicle, spot=spot, start=start, goal=goal,
        search=SearchConfig(**s, penalties=penalties),
        extra_points=_read(data.get("obstacles", {}), "obstacles")["extra_points"],
    )


def _write(section: str, source) -> dict:
    """One section in file order, each key read from the object that holds
    the section."""
    out = {}
    for key, reader in _SCHEMA[section][1].items():
        value = getattr(source, key)
        out[key] = _write(reader, value) if isinstance(reader, str) else _plain(value)
    return out


def _plain(value):
    """JSON form of a value: tuples (number lists, point lists) become lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    sources = {
        "workspace": scenario.workspace,
        "vehicle": scenario.vehicle,
        "start": scenario.start,
        "goal": scenario.goal,
        "search": scenario.search,
        "obstacles": scenario,
        "spot": scenario.spot,
    }
    return {name: _write(name, obj) for name, obj in sources.items() if obj is not None}


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (OSError, UnicodeDecodeError, RecursionError) as e:  # unreadable, not UTF-8, too deep
        raise ScenarioError(f"{path}: {e}") from e
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
