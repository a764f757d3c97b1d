"""Search-based parking path planner: multi-heuristic hybrid A* with an
anchor-only Hybrid A* baseline, analytic curve expansion, and benchmark CLI."""

from .geometry import ObstacleSet, Pose, VehicleGeometry
from .grid import GridSpec
from .render import render_svg
from .scenario import (
    Scenario,
    ScenarioError,
    SpotSpec,
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
from .vehicle import Arc, Gear, PenaltyConfig

__version__ = "0.1.0"
