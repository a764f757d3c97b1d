"""Parking scenario construction, JSON scenario files, and validation.

A scenario bundles the workspace grid, the point-cloud obstacles, the vehicle
description, start/goal poses, and the search configuration. The shipped
benchmark files cut a parallel-parking spot into the lower boundary wall.
The obstacles are one float (n, 2) array of wall points, then extra points.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, partial
from itertools import chain
from typing import get_type_hints

import numpy as np

from .geometry import ObstacleSet, Pose, VehicleGeometry, as_points
from .grid import GridSpec
from .search import SearchConfig, input_problems

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


def _segment_points(p0, p1, spacing: float) -> np.ndarray:
    """Evenly spaced points along a segment, both endpoints included, at
    intervals <= spacing, as an (n + 1, 2) float array."""
    x0, y0 = p0
    x1, y1 = p1
    count = math.hypot(x1 - x0, y1 - y0) / spacing - 1e-12
    # numpy refuses arrays over intp.max bytes, 16 a row here; NaN fails "<"
    if not count < np.iinfo(np.intp).max / 16:
        raise ValueError("workspace too large to sample its walls")
    n = max(1, math.ceil(count))
    k = np.arange(n + 1)
    return np.column_stack((x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n))


def _parking_walls(
    workspace: GridSpec, spot: SpotSpec, goal: Pose, spacing: float
) -> np.ndarray:
    """Wall point cloud, an (n, 2) float array: the lower boundary outside
    the spot opening, the spot's two sides and back, and the upper workspace
    boundary.

    The spot's vertical placement is not part of the written scenario
    geometry; the notch is centered on the goal's depth so the parked
    vehicle sits symmetrically inside it.
    """
    open_y = goal.y + spot.depth / 2.0
    floor_y = goal.y - spot.depth / 2.0
    left = spot.center_x - spot.length / 2.0
    right = spot.center_x + spot.length / 2.0
    if not (workspace.contains(left, floor_y) and workspace.contains(right, open_y)):
        raise ValueError("spot extends outside the workspace")
    segments = (
        ((workspace.x_min, open_y), (left, open_y)),
        ((right, open_y), (workspace.x_max, open_y)),
        ((left, floor_y), (left, open_y)),
        ((right, floor_y), (right, open_y)),
        ((left, floor_y), (right, floor_y)),
        ((workspace.x_min, workspace.y_max), (workspace.x_max, workspace.y_max)),
    )
    return np.concatenate([_segment_points(p0, p1, spacing) for p0, p1 in segments])


@dataclass(frozen=True, eq=False, kw_only=True)
class Scenario:
    """A scenario file's sections. `extra_points` takes (x, y) pairs or an
    (n, 2) array; any other shape raises ValueError. `obstacles` is built
    here, once: the walls of `spot` (none when it is None), then the extra
    points, and `extra_points` is kept as the read-only rows after the walls."""

    workspace: GridSpec
    vehicle: VehicleGeometry
    start: Pose
    goal: Pose
    spot: SpotSpec | None = None
    search: SearchConfig = field(default_factory=SearchConfig)
    extra_points: np.ndarray = ()
    obstacles: ObstacleSet = field(init=False)

    def __post_init__(self) -> None:
        walls = np.empty((0, 2))
        if self.spot is not None:
            walls = _parking_walls(self.workspace, self.spot, self.goal, WALL_POINT_SPACING)
        obstacles = ObstacleSet(np.concatenate((walls, as_points(self.extra_points))))
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "extra_points", obstacles.points[len(walls):])


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


def _check_keys(mapping, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = sorted(str(k) for k in mapping if k not in allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {', '.join(unknown)}")


# A section's dataclass is its schema: its fields, in declared order, are the
# file's keys in file order, and a field's type picks the reader that
# validates and converts its value. A dataclass-typed field is a nested section.
_READERS = {float: _number, int: _integer, tuple[float, ...]: _numbers}
# The sections in read order; `obstacles`, read last, has no dataclass.
_SECTIONS = {
    "workspace": GridSpec, "vehicle": VehicleGeometry, "spot": SpotSpec,
    "start": Pose, "goal": Pose, "search": SearchConfig,
}
_REQUIRED_SECTIONS = ("workspace", "vehicle", "start", "goal")


@cache
def _layout(cls) -> dict:
    """key -> (reader, default) in field order; a key without a default
    (MISSING) is required."""
    hints = get_type_hints(cls)
    layout = {}
    for f in fields(cls):
        hint = hints[f.name]
        reader = partial(_read, hint) if is_dataclass(hint) else _READERS[hint]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        layout[f.name] = (reader, default)
    return layout


def _read(cls, mapping, section: str):
    """One section as an instance of `cls`, defaults filled in. The first
    malformed value raises ScenarioError naming its dotted key, and a
    ValueError of the constructor one naming the section."""
    layout = _layout(cls)
    _check_keys(mapping, layout, section)
    values = {}
    for key, (reader, default) in layout.items():
        if key in mapping:
            values[key] = reader(mapping[key], f"{section}.{key}")
        elif default is not MISSING:
            values[key] = default
        else:
            raise ScenarioError(f"{section}.{key}: missing required value")
    try:
        return cls(**values)
    except ValueError as e:
        raise ScenarioError(f"{section}: {e}") from e


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from the documented JSON structure; every malformed
    value raises ScenarioError naming its dotted key."""
    _check_keys(data, (*_SECTIONS, "obstacles"), "scenario")
    for name in _REQUIRED_SECTIONS:
        if name not in data:
            raise ScenarioError(f"scenario.{name}: missing required section")
    sections = {name: _read(cls, data[name], name) for name, cls in _SECTIONS.items() if name in data}
    obstacles = data.get("obstacles", {})
    _check_keys(obstacles, ("extra_points",), "obstacles")
    extra_points = _points(obstacles.get("extra_points", []), "obstacles.extra_points")
    try:
        return Scenario(**sections, extra_points=extra_points)
    except ValueError as e:
        raise ScenarioError(f"spot: {e}") from e


def _write(value):
    """JSON form of a value: a dataclass becomes an object in field order,
    a tuple (a number list) a list."""
    if is_dataclass(value):
        return {f.name: _write(getattr(value, f.name)) for f in fields(value)}
    return [_write(v) for v in value] if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {name: _write(getattr(scenario, name)) for name in _SECTIONS if name != "spot"}
    out["obstacles"] = {"extra_points": scenario.extra_points.tolist()}
    if scenario.spot is not None:
        out["spot"] = _write(scenario.spot)
    return out


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
    """Write the scenario as a file `load_scenario` reads back; the loader's
    checks run first, so a value it would refuse raises its ScenarioError,
    naming the dotted key, before the file is opened."""
    data = scenario_to_dict(scenario)
    scenario_from_dict(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
