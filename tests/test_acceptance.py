"""Acceptance suite: one test per release criterion, each printing a PASS line
with the measured numbers (run with `pytest -s tests/test_acceptance.py`).

Reference path lengths come from the published parallel-parking comparison;
node/iteration/time absolutes are machine- and implementation-dependent, so
dominance and property checks stand in for them.
"""

import dataclasses
import math
import random
import time

import pytest

from mhhastar.cli import main
from mhhastar.geometry import (
    ObstacleSet,
    Pose,
    VehicleGeometry,
    vehicle_collides,
    world_to_body,
)
from mhhastar.grid import GridSpec, dijkstra_field
from mhhastar.heuristics import HeuristicSet
from mhhastar.reeds_shepp import rs_candidates, rs_sample, rs_shortest
from mhhastar.scenario import save_scenario
from mhhastar.search import Termination, mhha_star

from conftest import COARSE_RADIUS, make_coarse_scenario
from oracles import (
    bellman_ford_field,
    octile,
    polygon_contains,
    rectangle_corners,
    uniform_cost_over_primitives,
)

LENGTH_TOLERANCE = 0.30
REFERENCE_LENGTHS = {
    ("forward", "mhha"): 21.097,
    ("forward", "hybrid"): 18.659,
    ("backward", "mhha"): 18.163,
    ("backward", "hybrid"): 16.691,
}
TIME_BUDGET = 60.0


def _check_collision_free(scenario, result):
    return all(
        not vehicle_collides(pose, scenario.vehicle, scenario.obstacles)
        for pose, _ in result.path
    )


@pytest.mark.parametrize("label", ["forward", "backward"])
def test_criterion_1_2_benchmark_paths(
    label, forward_scenario, backward_scenario, benchmark_results
):
    """Criteria 1-2: collision-free paths with lengths near the reference."""
    scenario = {"forward": forward_scenario, "backward": backward_scenario}[label]
    details = []
    for planner in ("mhha", "hybrid"):
        result = benchmark_results[(label, planner)]
        assert result.found, f"{planner} found no path on {label} scenario"
        assert _check_collision_free(scenario, result)
        reference = REFERENCE_LENGTHS[(label, planner)]
        low, high = (1 - LENGTH_TOLERANCE) * reference, (1 + LENGTH_TOLERANCE) * reference
        assert low <= result.path_length <= high, (
            f"{planner} length {result.path_length:.3f} outside "
            f"[{low:.3f}, {high:.3f}] around {reference}"
        )
        assert result.extension_time + result.setup_time < TIME_BUDGET
        details.append(f"{planner}={result.path_length:.3f}m/{reference}m")
    crit = "1" if label == "forward" else "2"
    print(f"ACCEPTANCE {crit} ({label} parking): PASS  " + "  ".join(details))


def test_criterion_3_directional_dominance(benchmark_results):
    """Criterion 3: strictly fewer expansions and iterations than the baseline."""
    lines = []
    for label in ("forward", "backward"):
        multi = benchmark_results[(label, "mhha")]
        base = benchmark_results[(label, "hybrid")]
        assert multi.nodes_expanded < base.nodes_expanded, label
        assert multi.iterations < base.iterations, label
        lines.append(
            f"{label}: nodes {multi.nodes_expanded}<{base.nodes_expanded}, "
            f"iters {multi.iterations}<{base.iterations}"
        )
    print("ACCEPTANCE 3 (dominance): PASS  " + "; ".join(lines))


def test_criterion_4_collision_oracle_equivalence():
    """Criterion 4: collision check == half-plane polygon oracle on 1e5 pairs."""
    car = VehicleGeometry(4.7, 2.0, 2.7, 1.0)
    rng = random.Random(20240817)
    n = 100_000
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(n):
        pose = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        pt = (pose.x + rng.uniform(-7, 7), pose.y + rng.uniform(-7, 7))
        oracle_inside = polygon_contains(rectangle_corners(pose, car), pt, tol=1e-9)
        if vehicle_collides(pose, car, ObstacleSet([pt])) != oracle_inside:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 (collision oracle): PASS  {n} pairs, 0 disagreements, {elapsed:.1f}s")


def test_criterion_5_reeds_shepp_correctness():
    """Criterion 5: dominance over every candidate, metric properties, and
    endpoint accuracy on 1e4 random pose pairs."""
    rng = random.Random(13)
    n = 10_000
    for _ in range(n):
        a = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        b = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        rho = rng.uniform(0.8, 4.0)
        best = rs_shortest(a, b, rho)
        for cand in rs_candidates(a, b, rho):
            assert best.total_length <= cand.total_length + 1e-9
        euclid = math.dist((a.x, a.y), (b.x, b.y))
        assert best.total_length >= euclid - 1e-9
        assert rs_shortest(b, a, rho).total_length == pytest.approx(
            best.total_length, abs=1e-9
        )
        end, _ = rs_sample(best, a, rho, 0.5)[-1]
        err = math.hypot(end.x - b.x, end.y - b.y)
        err += abs(math.remainder(end.theta - b.theta, 2 * math.pi))
        assert err < 1e-6
    print(f"ACCEPTANCE 5 (curve generation): PASS  {n} pose pairs")


def test_criterion_6_heuristic_admissibility(coarse_scenario, coarse_field, coarse_backward_ucs):
    """Criterion 6: anchor never exceeds an exhaustively-certified cost-to-goal;
    every index vanishes at the goal."""
    heuristics = HeuristicSet(
        coarse_scenario.goal, coarse_field, COARSE_RADIUS,
        coarse_scenario.search.inflation_factors,
    )
    checked = 0
    for _cell, (g, pose) in coarse_backward_ucs.items():
        assert heuristics.anchor(pose) <= g + 1e-9, (pose, g)
        checked += 1
    for i in range(heuristics.n + 1):
        assert heuristics.scaled(i, heuristics.anchor(coarse_scenario.goal)) == 0.0
    assert checked >= 1000
    print(f"ACCEPTANCE 6 (admissibility): PASS  {checked} reachable states certified")


def test_criterion_7_degeneracy_and_bound(forward_scenario, coarse_scenario, coarse_forward_ucs):
    """Criterion 7: n=0 reproduces the baseline expansion-for-expansion; any
    goal-key termination stays within omega of the certified optimum."""
    from mhhastar.search import hybrid_a_star

    config = dataclasses.replace(forward_scenario.search, inflation_factors=())
    degen = mhha_star(forward_scenario.start, forward_scenario.goal, forward_scenario, config, trace=True)
    base = hybrid_a_star(forward_scenario.start, forward_scenario.goal, forward_scenario, trace=True)
    assert [c for _, _, c in degen.trace] == [c for _, _, c in base.trace]
    assert degen.path == base.path
    assert (degen.nodes_expanded, degen.iterations) == (base.nodes_expanded, base.iterations)

    _, c_star = coarse_forward_ucs
    assert math.isfinite(c_star)
    bounds = []
    for omega in (1.5, 2.0, 3.0):
        cfg = dataclasses.replace(coarse_scenario.search, omega_factor=omega)
        result = mhha_star(coarse_scenario.start, coarse_scenario.goal, coarse_scenario, cfg)
        assert result.termination is Termination.GOAL_KEY
        assert result.cost <= omega * c_star + 1e-9
        bounds.append(f"w={omega}: {result.cost:.3f}<={omega * c_star:.3f}")
    print(
        "ACCEPTANCE 7 (degeneracy+bound): PASS  traces identical "
        f"({degen.nodes_expanded} expansions); " + "; ".join(bounds)
    )


def test_criterion_8_distance_field_oracle():
    """Criterion 8: heap sweep == Bellman-Ford on 20 random masks, octile on
    empty maps."""
    rng = random.Random(88)
    for trial in range(20):
        nx, ny = rng.randint(5, 20), rng.randint(5, 20)
        spec = GridSpec(0.0, nx * 0.3, 0.0, ny * 0.3, cell_size=0.3, heading_bins=8)
        mask = [[rng.random() < 0.25 for _ in range(ny)] for _ in range(nx)]
        import numpy as np

        blocked = np.array(mask, dtype=bool)
        free = [(ix, iy) for ix in range(nx) for iy in range(ny) if not blocked[ix, iy]]
        goal = rng.choice(free)
        field = dijkstra_field(spec, blocked, spec.cell_center(*goal))
        oracle = bellman_ford_field(nx, ny, mask, goal, spec.cell_size)
        for ix in range(nx):
            for iy in range(ny):
                assert field.values[ix, iy] == oracle[ix][iy], (trial, ix, iy)
    import numpy as np

    spec = GridSpec(0.0, 9.0, 0.0, 6.0, cell_size=0.3, heading_bins=8)
    field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (4.0, 3.0))
    gx, gy = field.goal_cell
    for ix in range(spec.nx):
        for iy in range(spec.ny):
            assert field.values[ix, iy] == pytest.approx(
                octile(ix - gx, iy - gy, spec.cell_size), abs=1e-9
            )
    print("ACCEPTANCE 8 (distance field): PASS  20 masks exact, empty map octile")


def test_criterion_9_compare_determinism(tmp_path, forward_scenario, backward_scenario):
    """Criterion 9: consecutive compare runs write byte-identical paths/SVGs."""
    for label, scenario in (("forward", forward_scenario), ("backward", backward_scenario)):
        scen_file = tmp_path / f"{label}.json"
        save_scenario(scenario, scen_file)
        out_a = tmp_path / f"{label}_a"
        out_b = tmp_path / f"{label}_b"
        assert main(["compare", "--scenario", str(scen_file), "--out", str(out_a)]) == 0
        assert main(["compare", "--scenario", str(scen_file), "--out", str(out_b)]) == 0
        for name in ("mhha_path.txt", "hybrid_path.txt", "mhha.svg", "hybrid.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (label, name)
    print("ACCEPTANCE 9 (determinism): PASS  path and SVG outputs byte-identical")
