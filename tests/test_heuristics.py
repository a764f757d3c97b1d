import math
import random

import numpy as np
import pytest

from mhhastar.geometry import Pose
from mhhastar.grid import GridSpec, dijkstra_field
from mhhastar.heuristics import HeuristicSet, h_anchor, h_holonomic, h_nonholonomic
from mhhastar.reeds_shepp import rs_shortest

from oracles import octile

RADIUS = 3.947
SPEC = GridSpec(-10.0, 10.0, -10.0, 10.0, cell_size=0.5, heading_bins=16)
GOAL = Pose(2.3, -1.2, 0.0)


@pytest.fixture(scope="module")
def empty_field():
    return dijkstra_field(SPEC, np.zeros((SPEC.nx, SPEC.ny), bool), (GOAL.x, GOAL.y))


@pytest.fixture(scope="module")
def hset(empty_field):
    return HeuristicSet(GOAL, empty_field, RADIUS, (2.0,))


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
        gx, gy = empty_field.goal_cell
        pose = Pose(-4.2, 5.6, 1.0)
        ix, iy = SPEC.cell_of(pose.x, pose.y)
        assert h_holonomic(pose, empty_field) == pytest.approx(
            octile(ix - gx, iy - gy, SPEC.cell_size), abs=1e-9
        )

    def test_anchor_is_pointwise_max(self, empty_field):
        for x in range(-5, 5):
            for y in range(-5, 5):
                pose = Pose(x + 0.25, y + 0.25, 0.7)
                expected = max(
                    h_nonholonomic(pose, GOAL, RADIUS), h_holonomic(pose, empty_field)
                )
                assert h_anchor(pose, GOAL, empty_field, RADIUS) == expected


class TestHeuristicSet:
    def test_index_zero_is_anchor(self, hset):
        pose = Pose(-3.0, 4.0, 0.3)
        assert hset.scaled(0, hset.anchor(pose)) == hset.anchor(pose)

    def test_inflation_is_exact_multiple(self, hset):
        pose = Pose(-3.0, 4.0, 0.3)
        assert hset.scaled(1, hset.anchor(pose)) == 2.0 * hset.anchor(pose)

    def test_known_inflation_example(self, empty_field):
        hs = HeuristicSet(GOAL, empty_field, RADIUS, (2.0,))
        pose = Pose(GOAL.x - 4.0, GOAL.y, 0.0)
        assert hs.scaled(0, hs.anchor(pose)) == pytest.approx(4.0)
        assert hs.scaled(1, hs.anchor(pose)) == pytest.approx(8.0)

    def test_goal_grounding_all_indices(self, hset):
        for i in range(hset.n + 1):
            assert hset.scaled(i, hset.anchor(GOAL)) == 0.0

    def test_index_out_of_range(self, hset):
        with pytest.raises(IndexError):
            hset.scaled(2, hset.anchor(GOAL))

    def test_ordering_matches_anchor(self, hset):
        rng = random.Random(56)
        poses = [
            Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi))
            for _ in range(50)
        ]
        anchor_order = sorted(range(50), key=lambda i: hset.scaled(0, hset.anchor(poses[i])))
        inflated_order = sorted(range(50), key=lambda i: hset.scaled(1, hset.anchor(poses[i])))
        assert anchor_order == inflated_order


class TestKey:
    class _Node:
        def __init__(self, g, pose):
            self.g = g
            self.pose = pose

    @staticmethod
    def _key(node, i, hset):
        # the open-list priority the search pushes: g + h_i
        return node.g + hset.scaled(i, hset.anchor(node.pose))

    def test_sum(self, hset):
        pose = Pose(GOAL.x - 3.0, GOAL.y, 0.0)
        node = self._Node(2.0, pose)
        assert self._key(node, 0, hset) == pytest.approx(2.0 + 3.0)

    def test_at_goal_equals_g(self, hset):
        node = self._Node(7.5, GOAL)
        assert self._key(node, 0, hset) == 7.5
        assert self._key(node, 1, hset) == 7.5

    def test_inflated_key_dominates(self, hset):
        rng = random.Random(57)
        for _ in range(100):
            pose = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi))
            node = self._Node(rng.uniform(0, 20), pose)
            assert self._key(node, 1, hset) >= self._key(node, 0, hset)
