import math
import random

import numpy as np
import pytest

from mhhastar.geometry import Pose
from mhhastar.grid import GridSpec, dijkstra_field
from mhhastar.heuristics import HeuristicSet, h_holonomic
from mhhastar.reeds_shepp import rs_shortest

from oracles import octile

RADIUS = 3.947
SPEC = GridSpec(-10.0, 10.0, -10.0, 10.0, cell_size=0.5, heading_bins=16)
GOAL = Pose(2.3, -1.2, 0.0)


@pytest.fixture(scope="module")
def empty_field():
    return dijkstra_field(SPEC, np.zeros((SPEC.nx, SPEC.ny), bool), (GOAL.x, GOAL.y), (GOAL.x, GOAL.y))


@pytest.fixture(scope="module")
def hset(empty_field):
    return HeuristicSet(GOAL, empty_field, RADIUS)


def h_nonholonomic(state, goal, radius):
    """The anchor's curvature-aware component: the shortest Reeds-Shepp length."""
    return rs_shortest(state, goal, radius).total_length


class TestComponents:
    def test_nonholonomic_zero_at_goal(self):
        assert h_nonholonomic(GOAL, GOAL, RADIUS) == 0.0

    def test_nonholonomic_aligned_collinear(self):
        assert h_nonholonomic(Pose(-2.7, -1.2, 0.0), GOAL, RADIUS) == pytest.approx(5.0)

    def test_nonholonomic_euclidean_bound(self):
        rng = random.Random(55)
        for _ in range(2000):
            a = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi))
            d = math.dist((a.x, a.y), (GOAL.x, GOAL.y))
            assert h_nonholonomic(a, GOAL, RADIUS) >= d - 1e-9

    def test_holonomic_zero_at_goal_cell(self, empty_field):
        assert h_holonomic(GOAL, empty_field) == 0.0

    def test_holonomic_octile_on_empty_map(self, empty_field):
        gx, gy = SPEC.cell_of(GOAL.x, GOAL.y)
        pose = Pose(-4.2, 5.6, 1.0)
        ix, iy = SPEC.cell_of(pose.x, pose.y)
        assert h_holonomic(pose, empty_field) == pytest.approx(
            octile(ix - gx, iy - gy, SPEC.cell_size), abs=1e-9
        )

    def test_anchor_is_pointwise_max(self, hset, empty_field):
        for x in range(-5, 5):
            for y in range(-5, 5):
                pose = Pose(x + 0.25, y + 0.25, 0.7)
                expected = max(
                    h_nonholonomic(pose, GOAL, RADIUS), h_holonomic(pose, empty_field)
                )
                assert hset.anchor(pose) == expected


class TestHeuristicSet:
    def test_known_anchor_example(self, hset):
        assert hset.anchor(Pose(GOAL.x - 4.0, GOAL.y, 0.0)) == pytest.approx(4.0)

    def test_goal_grounding(self, hset):
        assert hset.anchor(GOAL) == 0.0
