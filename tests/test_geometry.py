import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar.geometry import (
    ObstacleSet,
    Pose,
    VehicleGeometry,
    body_to_world,
    normalize_angle,
    point_in_rectangle,
    vehicle_collides,
    world_to_body,
)

from oracles import polygon_contains, rectangle_corners

CAR = VehicleGeometry(length=4.7, width=2.0, wheelbase=2.7, rear_overhang=1.0)

finite_coord = st.floats(-50.0, 50.0)
any_angle = st.floats(-10.0, 10.0)


def random_pose(rng):
    return Pose(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-math.pi, math.pi))


class TestPose:
    def test_theta_normalized(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert Pose(0, 0, math.pi).theta == math.pi

    @given(any_angle)
    def test_normalize_range(self, theta):
        wrapped = normalize_angle(theta)
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-12)
        assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-12)


class TestGeometryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=0.0, width=2.0, wheelbase=1.0, rear_overhang=0.0),
            dict(length=4.0, width=0.0, wheelbase=1.0, rear_overhang=0.0),
            dict(length=4.0, width=2.0, wheelbase=4.5, rear_overhang=0.0),
            dict(length=4.0, width=2.0, wheelbase=3.0, rear_overhang=1.5),
        ],
    )
    def test_rejects_bad_dimensions(self, kwargs):
        with pytest.raises(ValueError):
            VehicleGeometry(**kwargs)


class TestTransforms:
    def test_identity_frame(self):
        assert world_to_body(Pose(0, 0, 0), (3.0, 1.0)) == (3.0, 1.0)

    def test_translation_only(self):
        assert world_to_body(Pose(2, 1, 0), (3.0, 1.0)) == (1.0, 0.0)

    def test_quarter_turn(self):
        bx, by = world_to_body(Pose(0, 0, math.pi / 2), (0.0, 2.0))
        assert bx == pytest.approx(2.0, abs=1e-12)
        assert by == pytest.approx(0.0, abs=1e-12)

    @given(finite_coord, finite_coord, any_angle, finite_coord, finite_coord)
    def test_round_trip(self, x, y, theta, px, py):
        pose = Pose(x, y, theta)
        wx, wy = body_to_world(pose, world_to_body(pose, (px, py)))
        assert wx == pytest.approx(px, abs=1e-9)
        assert wy == pytest.approx(py, abs=1e-9)

    def test_rigid_motion_preserves_distance(self):
        rng = random.Random(0)
        for _ in range(500):
            pose = random_pose(rng)
            a = (rng.uniform(-20, 20), rng.uniform(-20, 20))
            b = (rng.uniform(-20, 20), rng.uniform(-20, 20))
            ta, tb = world_to_body(pose, a), world_to_body(pose, b)
            before = math.dist(a, b)
            after = math.dist(ta, tb)
            assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))


class TestPointInRectangle:
    def test_axle_midpoint_inside(self):
        assert point_in_rectangle((0.0, 0.0), CAR)

    def test_boundary_counts_inside(self):
        assert point_in_rectangle((CAR.length - CAR.rear_overhang, CAR.width / 2), CAR)

    def test_just_past_front_bumper(self):
        assert not point_in_rectangle((CAR.length - CAR.rear_overhang + 1e-6, 0.0), CAR)


class TestVehicleCollides:
    def test_empty_obstacles(self):
        assert not vehicle_collides(Pose(0, 0, 0), CAR, ObstacleSet([]))

    def test_point_at_axle(self):
        assert vehicle_collides(Pose(2, 3, 0.7), CAR, ObstacleSet([(2.0, 3.0)]))

    def test_boundary_point_collides(self):
        # heading zero keeps the frame transform exact, so the point sits
        # bitwise on the closed front edge
        pose = Pose(1.0, 2.0, 0.0)
        front = (1.0 + CAR.front_extent, 2.0)
        assert vehicle_collides(pose, CAR, ObstacleSet([front]))
        # a rotated pose with a point nudged just inside still collides
        pose = Pose(1.0, 2.0, 0.5)
        inside = body_to_world(pose, (CAR.front_extent - 1e-7, 0.0))
        assert vehicle_collides(pose, CAR, ObstacleSet([inside]))

    @pytest.mark.parametrize("seed", [301, 302, 303, 305])
    def test_boundary_points_match_brute_force(self, seed):
        # The query radius must keep every point the exact body-frame test
        # accepts: corners, edge points, points nudged outward by a few
        # rounding steps or more, and random points around the body.
        rng = random.Random(seed)
        rear, front, h = -CAR.rear_overhang, CAR.front_extent, CAR.width / 2.0
        for _ in range(120):
            theta = rng.choice((0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)))
            pose = Pose(rng.uniform(-60, 60), rng.uniform(-60, 60), theta)
            body = [(x, y) for x in (rear, front) for y in (-h, h)]
            body += [(rng.uniform(rear, front), rng.choice((-h, h))) for _ in range(3)]
            body += [(rng.choice((rear, front)), rng.uniform(-h, h)) for _ in range(3)]
            for x, y in body[:4]:
                eps = rng.choice((1e-14, 1e-12, 1e-9, 1e-6))
                body.append((x + math.copysign(eps, x), y + math.copysign(eps, y)))
            body += [
                (rng.uniform(rear - 1, front + 1), rng.uniform(-h - 1, h + 1)) for _ in range(4)
            ]
            pts = [body_to_world(pose, p) for p in body]
            expected = [point_in_rectangle(world_to_body(pose, pt), CAR) for pt in pts]
            for pt, inside in zip(pts, expected):
                assert vehicle_collides(pose, CAR, ObstacleSet([pt])) == inside
            assert vehicle_collides(pose, CAR, ObstacleSet(pts)) == any(expected)

    @pytest.mark.parametrize("shape", ["thin", "wide"])
    @pytest.mark.parametrize("overhang", ["zero", "max", "between"])
    def test_random_bodies_match_brute_force(self, shape, overhang):
        # Bodies other than the benchmark car, thin or wider than long, with
        # no rear overhang, the largest one or one in between: the query
        # follows each body's own center and half-diagonal.
        rng = random.Random(f"401-{shape}-{overhang}")
        for _ in range(40):
            length = rng.uniform(0.5, 12.0)
            if shape == "thin":
                width = rng.uniform(0.05, 0.3)
            else:
                width = rng.uniform(1.0, 3.0) * length
            wheelbase = rng.uniform(0.1, 0.9) * length
            most = length - wheelbase
            rear_overhang = {"zero": 0.0, "max": most, "between": rng.uniform(0.0, most)}[overhang]
            geometry = VehicleGeometry(length, width, wheelbase, rear_overhang)
            theta = rng.choice((0.0, math.pi / 2, rng.uniform(-math.pi, math.pi)))
            pose = Pose(rng.uniform(-60, 60), rng.uniform(-60, 60), theta)
            rear, front, h = -geometry.rear_overhang, geometry.front_extent, width / 2.0
            corners = [(x, y) for x in (rear, front) for y in (-h, h)]
            body = list(corners)
            for x, y in corners:
                for eps in (1e-14, 1e-12, 1e-9, 1e-6):
                    body.append((x + math.copysign(eps, x), y + math.copysign(eps, y)))
                    body.append((x - math.copysign(eps, x), y - math.copysign(eps, y)))
            body += [
                (rng.uniform(rear - 1, front + 1), rng.uniform(-h - 1, h + 1)) for _ in range(8)
            ]
            pts = [body_to_world(pose, p) for p in body]
            expected = [point_in_rectangle(world_to_body(pose, pt), geometry) for pt in pts]
            for pt, inside in zip(pts, expected):
                assert vehicle_collides(pose, geometry, ObstacleSet([pt])) == inside
            assert vehicle_collides(pose, geometry, ObstacleSet(pts)) == any(expected)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        pts = [(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(40)]
        poses = [random_pose(rng) for _ in range(50)]
        shuffled = pts[:]
        rng.shuffle(shuffled)
        a, b = ObstacleSet(pts), ObstacleSet(shuffled)
        for pose in poses:
            assert vehicle_collides(pose, CAR, a) == vehicle_collides(pose, CAR, b)

    def test_agrees_with_polygon_oracle(self):
        rng = random.Random(7)
        for _ in range(20000):
            pose = random_pose(rng)
            pt = (pose.x + rng.uniform(-6, 6), pose.y + rng.uniform(-6, 6))
            expected = polygon_contains(rectangle_corners(pose, CAR), pt, tol=1e-9)
            got = vehicle_collides(pose, CAR, ObstacleSet([pt]))
            assert got == expected


class TestObstacleSetQuery:
    def test_query_matches_brute_force(self):
        rng = random.Random(11)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(300)]
        obstacles = ObstacleSet(pts)
        for _ in range(200):
            cx, cy, r = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.1, 6)
            got = sorted(map(tuple, obstacles.query(cx, cy, r)))
            want = sorted(p for p in pts if math.dist(p, (cx, cy)) <= r)
            assert got == pytest.approx(want)
