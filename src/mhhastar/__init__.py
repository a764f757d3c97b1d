"""Search-based parking path planner: multi-heuristic hybrid A* with an
anchor-only Hybrid A* baseline, analytic curve expansion, and benchmark CLI."""

from .geometry import (
    ObstacleSet,
    Pose,
    VehicleGeometry,
    body_to_world,
    normalize_angle,
    vehicle_collides,
)
from .grid import CellKey, DistanceField, GridSpec, build_occupancy, dijkstra_field, discretize
from .heuristics import HeuristicSet, h_holonomic
from .reeds_shepp import RSPath, rs_collision_free, rs_shortest
from .render import render_svg
from .scenario import (
    Scenario,
    ScenarioError,
    SpotSpec,
    build_parallel_parking,
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
    Arc,
    Gear,
    PenaltyConfig,
    Primitive,
    arc_poses,
    step_cost,
    successors,
)

__version__ = "0.1.0"
