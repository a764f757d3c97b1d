import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar.geometry import (
    DiskCover,
    ObstacleSet,
    Pose,
    VehicleGeometry,
    body_to_world,
    coarse_clear,
    cover_radius_spacing,
    disk_cover,
    disk_centers_body,
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


class TestDiskCover:
    def test_benchmark_vehicle_single_disk(self):
        r, d = cover_radius_spacing(4.7, 2.0, 1)
        assert r == pytest.approx(math.sqrt(23.09), abs=1e-12)
        assert d == pytest.approx(9.4, abs=1e-12)

    def test_degenerate_zero_width(self):
        r, d = cover_radius_spacing(5.0, 0.0, 1)
        assert (r, d) == (5.0, 10.0)

    def test_square_two_disks(self):
        r, d = cover_radius_spacing(2.0, 2.0, 2)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_rejects_zero_disks(self):
        with pytest.raises(ValueError):
            disk_cover(CAR, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_disks_cover_rectangle(self, n):
        cover = disk_cover(CAR, n)
        centers = disk_centers_body(CAR, cover)
        xs = [-CAR.rear_overhang + k * 0.01 for k in range(int(CAR.length / 0.01) + 1)]
        half = CAR.width / 2.0
        for x in xs:
            for y in (-half, half):
                nearest = min(math.dist((x, y), c) for c in centers)
                assert nearest <= cover.radius + 1e-9
        for corner_x in (-CAR.rear_overhang, CAR.length - CAR.rear_overhang):
            for corner_y in (-half, half):
                nearest = min(math.dist((corner_x, corner_y), c) for c in centers)
                assert nearest <= cover.radius + 1e-9


class TestPointInRectangle:
    def test_axle_midpoint_inside(self):
        assert point_in_rectangle((0.0, 0.0), CAR)

    def test_boundary_counts_inside(self):
        assert point_in_rectangle((CAR.length - CAR.rear_overhang, CAR.width / 2), CAR)

    def test_just_past_front_bumper(self):
        assert not point_in_rectangle((CAR.length - CAR.rear_overhang + 1e-6, 0.0), CAR)


class TestCoarseClear:
    def test_far_point_clear(self):
        cover = disk_cover(CAR, 1)
        assert coarse_clear(Pose(0, 0, 0.3), cover, CAR, (100.0, 0.0))

    def test_disk_center_not_clear(self):
        cover = disk_cover(CAR, 1)
        center_world = body_to_world(Pose(0, 0, 0), (CAR.body_center_x, 0.0))
        assert not coarse_clear(Pose(0, 0, 0), cover, CAR, center_world)

    def test_soundness_against_exact_test(self):
        # clear by the disk filter must imply outside the rectangle
        cover = disk_cover(CAR, 1)
        rng = random.Random(42)
        for _ in range(20000):
            pose = random_pose(rng)
            pt = (rng.uniform(-25, 25), rng.uniform(-25, 25))
            if coarse_clear(pose, cover, CAR, pt):
                assert not point_in_rectangle(world_to_body(pose, pt), CAR)


class TestVehicleCollides:
    def test_empty_obstacles(self):
        cover = disk_cover(CAR, 1)
        assert not vehicle_collides(Pose(0, 0, 0), CAR, cover, ObstacleSet([]))

    def test_point_at_axle(self):
        cover = disk_cover(CAR, 1)
        assert vehicle_collides(Pose(2, 3, 0.7), CAR, cover, ObstacleSet([(2.0, 3.0)]))

    def test_boundary_point_collides(self):
        # heading zero keeps the frame transform exact, so the point sits
        # bitwise on the closed front edge
        cover = disk_cover(CAR, 1)
        pose = Pose(1.0, 2.0, 0.0)
        front = (1.0 + CAR.front_extent, 2.0)
        assert vehicle_collides(pose, CAR, cover, ObstacleSet([front]))
        # a rotated pose with a point nudged just inside still collides
        pose = Pose(1.0, 2.0, 0.5)
        inside = body_to_world(pose, (CAR.front_extent - 1e-7, 0.0))
        assert vehicle_collides(pose, CAR, cover, ObstacleSet([inside]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_boundary_points_match_brute_force(self, n):
        # The clipped query radius must keep every point the exact body-frame
        # test accepts: corners, edge points, points nudged outward by a few
        # rounding steps or more, and random points around the body.
        cover = disk_cover(CAR, n)
        rng = random.Random(300 + n)
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
                assert vehicle_collides(pose, CAR, cover, ObstacleSet([pt])) == inside
            assert vehicle_collides(pose, CAR, cover, ObstacleSet(pts)) == any(expected)

    def test_permutation_invariance(self):
        cover = disk_cover(CAR, 1)
        rng = random.Random(3)
        pts = [(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(40)]
        poses = [random_pose(rng) for _ in range(50)]
        shuffled = pts[:]
        rng.shuffle(shuffled)
        a, b = ObstacleSet(pts), ObstacleSet(shuffled)
        for pose in poses:
            assert vehicle_collides(pose, CAR, cover, a) == vehicle_collides(pose, CAR, cover, b)

    def test_agrees_with_polygon_oracle(self):
        cover = disk_cover(CAR, 1)
        rng = random.Random(7)
        for _ in range(20000):
            pose = random_pose(rng)
            pt = (pose.x + rng.uniform(-6, 6), pose.y + rng.uniform(-6, 6))
            expected = polygon_contains(rectangle_corners(pose, CAR), pt, tol=1e-9)
            got = vehicle_collides(pose, CAR, cover, ObstacleSet([pt]))
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
