"""Shared fixtures: the two benchmark scenarios, loaded from the shipped
`scenarios/*.json`, their planner runs (computed once per session), and a
small exhaustively-searchable scenario whose optimal costs a plain
uniform-cost sweep can certify."""

from __future__ import annotations

import math
import pathlib

import pytest

from mhhastar import (
    GridSpec,
    Pose,
    SearchConfig,
    VehicleGeometry,
    hybrid_a_star,
    mhha_star,
)
from mhhastar.grid import build_occupancy, dijkstra_field
from mhhastar.scenario import Scenario, load_scenario
from mhhastar.vehicle import PenaltyConfig

from oracles import uniform_cost_over_primitives

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS lines; mirror failures so the
    # acceptance run always shows one line per criterion
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.rsplit("::", 1)[-1]
        print(f"\n{name}: FAIL")


@pytest.fixture(scope="session")
def forward_scenario():
    return load_scenario(SCENARIOS / "forward_parking.json")


@pytest.fixture(scope="session")
def backward_scenario():
    return load_scenario(SCENARIOS / "backward_parking.json")


@pytest.fixture(scope="session")
def benchmark_results(forward_scenario, backward_scenario):
    """All four benchmark runs with expansion traces, keyed by
    (scenario, planner)."""
    out = {}
    for label, scenario in (("forward", forward_scenario), ("backward", backward_scenario)):
        for planner, fn in (("mhha", mhha_star), ("hybrid", hybrid_a_star)):
            out[(label, planner)] = fn(scenario.start, scenario.goal, scenario, trace=True)
    return out


def make_open_scenario(start, goal, points=(), *, size=15.0, cell=0.3, bins=72):
    """Benchmark-sized vehicle in a bare square workspace; the points double
    as extra_points so the scenario survives a save/load round trip."""
    return Scenario(
        workspace=GridSpec(-size, size, -size, size, cell, bins),
        vehicle=VehicleGeometry(4.7, 2.0, 2.7, 1.0, phi_max=0.6),
        spot=None,
        start=start,
        goal=goal,
        extra_points=points,
    )


# Oracle scenario: 12x12 cells, 8 heading bins, a small vehicle, and
# start/goal aligned four whole primitive steps apart so the optimum is
# exactly 4.0. One full-lock step turns 0.5 rad, enough to leave its
# heading bin, which keeps the exhaustively-reachable set rich.
#
# The cost config keeps reverse_mult at 1 so costs are direction-symmetric
# (a reversed step sequence prices identically), which lets one exhaustive
# sweep from the goal certify achievable costs-to-goal. Switchback and
# steer-change surcharges are pairwise terms and symmetric under reversal;
# steer_hold is per-step. Curvature carries a surcharge so that the grid
# field's octile metric, which can exceed bare arc length by ~8 percent
# off-lattice, stays below the cost of every turning path.
COARSE_PHI = math.atan(0.1)
COARSE_RADIUS = 2.0


def make_coarse_scenario(setvalue=10**9):
    # Straight steering listed first so equal-cost first steps canonicalize a
    # cell with the straight pose; steer_change/steer_hold keep every turning
    # or curved path priced above the grid field's octile metric, which
    # overestimates bare arc length by up to ~8 percent off-lattice.
    config = SearchConfig(
        omega_factor=2.0,
        setvalue=setvalue,
        penalties=PenaltyConfig(
            reverse_mult=1.0, switchback=1.0, steer_change=15.0, steer_hold=2.0
        ),
        inflation_factors=(2.0,),
        arc_length=1.0,
        steering_angles=(0.0, -COARSE_PHI, COARSE_PHI),
    )
    return Scenario(
        workspace=GridSpec(0.0, 6.0, 0.0, 6.0, 0.5, 8),
        vehicle=VehicleGeometry(0.4, 0.2, 0.2, 0.1, phi_max=COARSE_PHI),
        spot=None,
        start=Pose(0.75, 3.25, 0.0),
        goal=Pose(4.75, 3.25, 0.0),
        search=config,
    )


@pytest.fixture(scope="session")
def coarse_scenario():
    return make_coarse_scenario()


@pytest.fixture(scope="session")
def coarse_field(coarse_scenario):
    occupancy = build_occupancy(coarse_scenario.workspace, coarse_scenario.obstacles)
    start, goal = coarse_scenario.start, coarse_scenario.goal
    return dijkstra_field(coarse_scenario.workspace, occupancy, (goal.x, goal.y), (start.x, start.y))


@pytest.fixture(scope="session")
def coarse_forward_ucs(coarse_scenario):
    """Exhaustive uniform-cost settles from the start; returns (settled map,
    optimal cost of reaching the goal cell)."""
    settled = uniform_cost_over_primitives(coarse_scenario, coarse_scenario.start)
    spec = coarse_scenario.workspace
    goal = coarse_scenario.goal
    goal_xyt = (*spec.cell_of(goal.x, goal.y), spec.heading_bin(goal.theta))
    c_star = min(
        (g for cell, (g, _) in settled.items() if cell[:3] == goal_xyt),
        default=math.inf,
    )
    return settled, c_star


@pytest.fixture(scope="session")
def coarse_backward_ucs(coarse_scenario):
    """Exhaustive uniform-cost settles from the goal pose. With the neutral,
    direction-symmetric cost config every settled (pose, g) certifies an
    achievable cost-to-goal of exactly g."""
    return uniform_cost_over_primitives(coarse_scenario, coarse_scenario.goal)
