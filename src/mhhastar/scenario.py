"""Parking scenario construction, JSON scenario files, and validation.

A scenario bundles the workspace grid, the point-cloud obstacles, the vehicle
description, start/goal poses, and the search configuration. The bundled
benchmark is a parallel-parking spot cut into the lower boundary wall.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

from .geometry import ObstacleSet, Pose, VehicleGeometry, vehicle_collides
from .grid import GridSpec
from .search import SearchConfig, config_problems
from .vehicle import MotionPrimitiveSet, PenaltyConfig, VehicleLimits

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
        if self.depth <= 0.0 or self.length <= 0.0:
            raise ValueError("spot dimensions must be positive")


@dataclass
class Scenario:
    workspace: GridSpec
    obstacles: ObstacleSet
    spot: SpotSpec | None
    start: Pose
    goal: Pose
    vehicle: VehicleGeometry
    limits: VehicleLimits
    search: SearchConfig = field(default_factory=SearchConfig)
    extra_points: tuple[tuple[float, float], ...] = ()


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
    if (
        left < workspace.x_min
        or right > workspace.x_max
        or floor_y < workspace.y_min
        or open_y > workspace.y_max
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
    limits: VehicleLimits,
    spot: SpotSpec,
    start: Pose,
    goal: Pose,
    search: SearchConfig | None = None,
    extra_points: Sequence[tuple[float, float]] = (),
) -> Scenario:
    """Deterministically assemble the parallel-parking scenario."""
    points = _parking_walls(workspace, spot, goal, WALL_POINT_SPACING)
    points += [(float(x), float(y)) for x, y in extra_points]
    return Scenario(
        workspace=workspace,
        obstacles=ObstacleSet(points),
        spot=spot,
        start=start,
        goal=goal,
        vehicle=vehicle,
        limits=limits,
        search=search if search is not None else SearchConfig(),
        extra_points=tuple((float(x), float(y)) for x, y in extra_points),
    )


def forward_parking_scenario() -> Scenario:
    """Bundled benchmark: approach the spot driving toward it from the left."""
    return _benchmark_scenario(start=Pose(-9.0, 8.0, 0.0))


def backward_parking_scenario() -> Scenario:
    """Bundled benchmark: the spot lies behind the initial heading."""
    return _benchmark_scenario(start=Pose(12.0, 8.0, 0.0))


def _benchmark_scenario(start: Pose) -> Scenario:
    vehicle = VehicleGeometry(length=4.7, width=2.0, wheelbase=2.7, rear_overhang=1.0)
    goal = Pose(-1.35, 1.5, 0.0)
    # Center the spot on the parked body, not the rear axle: the goal's x is
    # exactly -(length/2 - rear_overhang), which puts the body center at 0.
    spot_center = goal.x + vehicle.body_center_x
    return build_parallel_parking(
        workspace=GridSpec(-21.0, 21.0, -1.0, 11.0, cell_size=0.3, heading_bins=72),
        vehicle=vehicle,
        limits=VehicleLimits(phi_max=0.6),
        spot=SpotSpec(depth=3.0, length=7.2, center_x=spot_center),
        start=start,
        goal=goal,
    )


# -- validation ----------------------------------------------------------------


def validate(scenario: Scenario) -> list[str]:
    """All invariant violations, empty when the scenario is usable."""
    out: list[str] = []
    ws = scenario.workspace
    cfg = scenario.search
    if not ws.contains(scenario.start.x, scenario.start.y):
        out.append("start outside workspace")
    if not ws.contains(scenario.goal.x, scenario.goal.y):
        out.append("goal outside workspace")
    if ws.contains(scenario.start.x, scenario.start.y) and vehicle_collides(
        scenario.start, scenario.vehicle, scenario.obstacles
    ):
        out.append("start in collision")
    if ws.contains(scenario.goal.x, scenario.goal.y) and vehicle_collides(
        scenario.goal, scenario.vehicle, scenario.obstacles
    ):
        out.append("goal in collision")
    for x, y in scenario.obstacles.points:
        if not ws.contains(x, y):
            out.append(f"obstacle point ({x:.3f}, {y:.3f}) outside workspace")
    out += config_problems(cfg)
    prim = cfg.primitives
    diag = ws.cell_size * math.sqrt(2.0)
    if not prim.arc_length > diag:
        out.append(
            f"arc_length {prim.arc_length} does not exceed the cell diagonal {diag:.4f}"
        )
    for steer in prim.steering_angles:
        if abs(steer) > scenario.limits.phi_max:
            out.append(f"steering angle {steer} exceeds phi_max {scenario.limits.phi_max}")
    return out


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


def _points(value, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: expected a list of [x, y] pairs")
    out = []
    for i, item in enumerate(value):
        at = f"{where}[{i}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ScenarioError(f"{at}: expected an [x, y] pair")
        out.append((_number(item[0], at), _number(item[1], at)))
    return tuple(out)


def _defaults(*classes) -> dict:
    """Declared field defaults; a key that has none is required."""
    out = {}
    for f in (f for cls in classes for f in fields(cls)):
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
    "vehicle": (_defaults(VehicleGeometry, VehicleLimits), {
        "length": _number, "width": _number, "wheelbase": _number,
        "rear_overhang": _number, "phi_max": _number,
    }),
    "start": _POSE,
    "goal": _POSE,
    "search": (_defaults(SearchConfig, MotionPrimitiveSet), {
        "omega_factor": _number, "setvalue": _integer, "max_iterations": _integer,
        "inflation_factors": _numbers, "penalties": "search.penalties",
        "arc_length": _number, "steering_angles": _numbers,
    }),
    "search.penalties": (_defaults(PenaltyConfig), dict.fromkeys(
        ("reverse_mult", "switchback", "steer_hold", "steer_change"), _number
    )),
    "obstacles": (_defaults(Scenario), {"extra_points": _points}),
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
    v = _read(data["vehicle"], "vehicle")
    limits = _build("vehicle", VehicleLimits, phi_max=v.pop("phi_max"))
    vehicle = _build("vehicle", VehicleGeometry, **v)
    spot = _build("spot", SpotSpec, **_read(data["spot"], "spot")) if "spot" in data else None
    start = Pose(**_read(data["start"], "start"))
    goal = Pose(**_read(data["goal"], "goal"))
    s = _read(data.get("search", {}), "search")
    penalties = PenaltyConfig(**s.pop("penalties"))
    primitives = _build(
        "search", MotionPrimitiveSet,
        arc_length=s.pop("arc_length"), steering_angles=s.pop("steering_angles"),
    )
    extra = _read(data.get("obstacles", {}), "obstacles")["extra_points"]
    points = []
    if spot is not None:
        points = _build(
            "spot", _parking_walls,
            workspace=workspace, spot=spot, goal=goal, spacing=WALL_POINT_SPACING,
        )
    return Scenario(
        workspace=workspace,
        obstacles=ObstacleSet(points + list(extra)),
        spot=spot,
        start=start,
        goal=goal,
        vehicle=vehicle,
        limits=limits,
        search=SearchConfig(**s, penalties=penalties, primitives=primitives),
        extra_points=extra,
    )


def _write(section: str, *sources) -> dict:
    """One section in file order; each key is read from the first source
    object that has it."""
    out = {}
    for key, reader in _SCHEMA[section][1].items():
        value = next(getattr(src, key) for src in sources if hasattr(src, key))
        out[key] = _write(reader, value) if isinstance(reader, str) else _plain(value)
    return out


def _plain(value):
    """JSON form of a value: tuples (number lists, point lists) become lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    cfg = scenario.search
    sources = {
        "workspace": (scenario.workspace,),
        "vehicle": (scenario.vehicle, scenario.limits),
        "start": (scenario.start,),
        "goal": (scenario.goal,),
        "search": (cfg, cfg.primitives),
        "obstacles": (scenario,),
        "spot": (scenario.spot,),
    }
    return {name: _write(name, *objs) for name, objs in sources.items() if objs[0] is not None}


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except OSError as e:
        raise ScenarioError(f"{path}: {e}") from e
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
