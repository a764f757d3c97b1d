import math
import random

import pytest

from mhhastar.geometry import Pose, normalize_angle
from mhhastar.reeds_shepp import (
    RSPath,
    RSSegment,
    Turn,
    rs_candidates,
    rs_collision_free,
    rs_sample,
    rs_shortest,
)
from mhhastar.geometry import ObstacleSet, VehicleGeometry
from mhhastar.vehicle import Gear


def random_pose(rng, span=10.0):
    return Pose(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-math.pi, math.pi))


def lattice_pose(rng):
    return Pose(rng.randint(-4, 4) / 2, rng.randint(-4, 4) / 2, rng.randint(-4, 4) * math.pi / 4)


def endpoint_error(path, start, goal, radius):
    samples = rs_sample(path, start, radius, 0.05)
    end = samples[-1][0]
    return math.hypot(end.x - goal.x, end.y - goal.y) + abs(normalize_angle(end.theta - goal.theta))


class TestShortest:
    def test_straight_forward(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(5, 0, 0), 1.0)
        assert path.total_length == pytest.approx(5.0)
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert seg.kind is Turn.STRAIGHT and seg.gear is Gear.FORWARD
        assert seg.length == pytest.approx(5.0)

    def test_straight_reverse(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(-5, 0, 0), 1.0)
        assert path.total_length == pytest.approx(5.0)
        seg = path.segments[0]
        assert seg.kind is Turn.STRAIGHT and seg.gear is Gear.REVERSE

    def test_coincident(self):
        path = rs_shortest(Pose(1, 2, 0.5), Pose(1, 2, 0.5), 3.0)
        assert path.total_length == 0.0
        assert path.segments == ()
        cands = rs_candidates(Pose(1, 2, 0.5), Pose(1, 2, 0.5), 3.0)
        assert [c.total_length for c in cands] == [0.0]

    def test_quarter_circle(self):
        rho = 2.0
        goal = Pose(rho, rho, math.pi / 2)
        path = rs_shortest(Pose(0, 0, 0), goal, rho)
        assert path.total_length == pytest.approx(rho * math.pi / 2, abs=1e-9)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            rs_shortest(Pose(0, 0, 0), Pose(1, 0, 0), 0.0)

    def test_dominates_candidates_and_reaches_goal(self):
        rng = random.Random(100)
        for _ in range(1500):
            a, b = random_pose(rng), random_pose(rng)
            rho = rng.uniform(0.5, 4.0)
            best = rs_shortest(a, b, rho)
            cands = rs_candidates(a, b, rho)
            assert cands, "at least one word must exist"
            assert all(best.total_length <= c.total_length + 1e-9 for c in cands)
            assert len(best.segments) <= 5
            assert endpoint_error(best, a, b, rho) < 1e-6

    def test_selection_contract(self):
        # rs_shortest returns the first candidate, in enumeration order, of
        # exactly the minimum length. Power-of-two radii scale lengths
        # exactly, so a tie in meters is a tie in the normalized frame. Half
        # the pairs sit on a coarse lattice, where distinct words tie often.
        rng = random.Random(107)
        distinct_ties = 0
        for i in range(2000):
            if i % 2:
                a, b = lattice_pose(rng), lattice_pose(rng)
            else:
                a, b = random_pose(rng), random_pose(rng)
            rho = rng.choice((0.5, 1.0, 2.0, 4.0))
            best = rs_shortest(a, b, rho)
            cands = rs_candidates(a, b, rho)
            shortest = min(c.total_length for c in cands)
            tied = [c for c in cands if c.total_length == shortest]
            assert best.total_length == shortest
            assert best == tied[0]
            distinct_ties += any(c != tied[0] for c in tied)
            assert rs_shortest(a, a, rho) == RSPath((), 0.0)
            assert rs_candidates(b, b, rho) == [RSPath((), 0.0)]
        assert distinct_ties > 100

    def test_symmetry(self):
        rng = random.Random(101)
        for _ in range(1500):
            a, b = random_pose(rng), random_pose(rng)
            ab = rs_shortest(a, b, 2.0).total_length
            ba = rs_shortest(b, a, 2.0).total_length
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_euclidean_lower_bound(self):
        rng = random.Random(102)
        for _ in range(1500):
            a, b = random_pose(rng), random_pose(rng)
            length = rs_shortest(a, b, 1.5).total_length
            assert length >= math.dist((a.x, a.y), (b.x, b.y)) - 1e-9

    def test_scale_equivariance(self):
        rng = random.Random(103)
        for _ in range(300):
            a, b = random_pose(rng), random_pose(rng)
            k = rng.uniform(0.5, 3.0)
            base = rs_shortest(a, b, 1.0).total_length
            scaled = rs_shortest(
                Pose(a.x * k, a.y * k, a.theta), Pose(b.x * k, b.y * k, b.theta), k
            ).total_length
            assert scaled == pytest.approx(k * base, rel=1e-9, abs=1e-9)

    def test_midpoint_relaxation_never_improves(self):
        # an independent optimality probe: routing through any intermediate
        # pose can never beat the returned shortest length
        rng = random.Random(104)
        for _ in range(1000):
            a, b, m = random_pose(rng, 6), random_pose(rng, 6), random_pose(rng, 6)
            direct = rs_shortest(a, b, 2.0).total_length
            via = rs_shortest(a, m, 2.0).total_length + rs_shortest(m, b, 2.0).total_length
            assert direct <= via + 1e-9


class TestSample:
    def test_straight_spacing(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(1, 0, 0), 1.0)
        samples = rs_sample(path, Pose(0, 0, 0), 1.0, 0.5)
        xs = [p.x for p, _ in samples]
        assert xs == pytest.approx([0.0, 0.5, 1.0])

    def test_final_sample_is_goal(self):
        rng = random.Random(105)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            path = rs_shortest(a, b, 2.0)
            end, _ = rs_sample(path, a, 2.0, 0.1)[-1]
            assert math.hypot(end.x - b.x, end.y - b.y) < 1e-6
            assert abs(normalize_angle(end.theta - b.theta)) < 1e-6

    def test_quarter_arc_on_circle(self):
        rho = 2.0
        path = RSPath(
            (RSSegment(Turn.LEFT, Gear.FORWARD, math.pi / 2),), rho * math.pi / 2
        )
        samples = rs_sample(path, Pose(0, 0, 0), rho, rho * math.pi / 8)
        assert len(samples) == 5
        for k, (pose, gear) in enumerate(samples):
            angle = k * math.pi / 8
            assert pose.x == pytest.approx(rho * math.sin(angle), abs=1e-9)
            assert pose.y == pytest.approx(rho * (1 - math.cos(angle)), abs=1e-9)
            assert gear is Gear.FORWARD

    def test_gear_tags_follow_segments(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(-5, 0, 0), 1.0)
        samples = rs_sample(path, Pose(0, 0, 0), 1.0, 0.25)
        assert all(g is Gear.REVERSE for _, g in samples)

    def test_rejects_bad_spacing(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(1, 0, 0), 1.0)
        with pytest.raises(ValueError):
            rs_sample(path, Pose(0, 0, 0), 1.0, 0.0)


class TestCollisionFree:
    CAR = VehicleGeometry(4.7, 2.0, 2.7, 1.0)

    def test_empty_obstacles(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(8, 0, 0), 2.0)
        assert rs_collision_free(path, Pose(0, 0, 0), 2.0, self.CAR, ObstacleSet([]))

    def test_blocked_corridor(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(8, 0, 0), 2.0)
        assert not rs_collision_free(
            path, Pose(0, 0, 0), 2.0, self.CAR, ObstacleSet([(4.0, 0.0)])
        )

    def test_rejects_coarse_spacing(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(8, 0, 0), 2.0)
        with pytest.raises(ValueError):
            rs_collision_free(path, Pose(0, 0, 0), 2.0, self.CAR, ObstacleSet([]), 0.2)

    def test_refinement_stability(self):
        # verdicts at the default spacing agree with a 10x finer sampling
        rng = random.Random(106)
        agreements = 0
        for _ in range(200):
            a, b = random_pose(rng, 8), random_pose(rng, 8)
            pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(25)]
            obstacles = ObstacleSet(pts)
            path = rs_shortest(a, b, 3.0)
            coarse = rs_collision_free(path, a, 3.0, self.CAR, obstacles, 0.1)
            fine = rs_collision_free(path, a, 3.0, self.CAR, obstacles, 0.01)
            if coarse == fine:
                agreements += 1
        assert agreements >= 198  # collisions grazing a sample boundary are rare
