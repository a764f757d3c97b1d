"""Search-based parking path planner: multi-heuristic hybrid A* with an
anchor-only Hybrid A* baseline, analytic curve expansion, and benchmark CLI."""

from .geometry import (
    ObstacleSet,
    Pose,
    VehicleGeometry,
    body_to_world,
    normalize_angle,
    point_in_rectangle,
    vehicle_collides,
    world_to_body,
)
from .grid import CellKey, DistanceField, GridSpec, build_occupancy, dijkstra_field, discretize
from .heuristics import HeuristicSet, h_anchor, h_holonomic, h_nonholonomic
from .reeds_shepp import RSPath, RSSegment, Turn, rs_collision_free, rs_sample, rs_shortest
from .render import render_svg
from .scenario import (
    Scenario,
    ScenarioError,
    SpotSpec,
    backward_parking_scenario,
    build_parallel_parking,
    forward_parking_scenario,
    load_scenario,
    save_scenario,
    validate,
)
from .search import (
    PlanResult,
    SearchConfig,
    SearchLimitError,
    Termination,
    hybrid_a_star,
    mhha_star,
)
from .vehicle import (
    Gear,
    MotionPrimitiveSet,
    MotionStep,
    PenaltyConfig,
    VehicleLimits,
    integrate_arc,
    step_cost,
    successors,
)

__version__ = "0.1.0"

__all__ = [
    "CellKey",
    "DistanceField",
    "Gear",
    "GridSpec",
    "HeuristicSet",
    "MotionPrimitiveSet",
    "MotionStep",
    "ObstacleSet",
    "PenaltyConfig",
    "PlanResult",
    "Pose",
    "RSPath",
    "RSSegment",
    "Scenario",
    "ScenarioError",
    "SearchConfig",
    "SearchLimitError",
    "SpotSpec",
    "Termination",
    "Turn",
    "VehicleGeometry",
    "VehicleLimits",
    "backward_parking_scenario",
    "body_to_world",
    "build_occupancy",
    "build_parallel_parking",
    "dijkstra_field",
    "discretize",
    "forward_parking_scenario",
    "h_anchor",
    "h_holonomic",
    "h_nonholonomic",
    "hybrid_a_star",
    "integrate_arc",
    "load_scenario",
    "mhha_star",
    "normalize_angle",
    "point_in_rectangle",
    "render_svg",
    "rs_collision_free",
    "rs_sample",
    "rs_shortest",
    "save_scenario",
    "step_cost",
    "successors",
    "validate",
    "vehicle_collides",
    "world_to_body",
]
