import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar.geometry import (
    MEMO_BLOCK,
    MEMO_CELL,
    BodySweep,
    ObstacleSet,
    Pose,
    VehicleGeometry,
    body_to_world,
    normalize_angle,
    vehicle_collides,
)
from mhhastar.scenario import load_scenario
from mhhastar.vehicle import advance_arc, arc_stations, primitive_table

from conftest import SCENARIOS
from oracles import point_in_rectangle, polygon_contains, rectangle_corners, world_to_body

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
    def test_later_writes_to_the_input_change_nothing(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        obstacles = ObstacleSet(pts)
        pts[1] = [0.5, 0.0]
        assert obstacles.points.tolist() == [[0.0, 0.0], [10.0, 0.0]]
        assert obstacles.query(0, 0, 1.0).tolist() == [[0.0, 0.0]]
        assert not obstacles.points.flags.writeable

    def test_query_matches_brute_force(self):
        rng = random.Random(11)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(300)]
        obstacles = ObstacleSet(pts)
        for _ in range(200):
            cx, cy, r = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.1, 6)
            got = sorted(map(tuple, obstacles.query(cx, cy, r)))
            want = sorted(p for p in pts if math.dist(p, (cx, cy)) <= r)
            assert got == pytest.approx(want)

    def test_query_matches_brute_force_at_strip_edges(self):
        # points exactly at x - r and x + r, and near them, in shuffled input
        # order; the rows and their order equal a scan of every point
        rng = random.Random(12)
        for _ in range(100):
            x, y, r = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.1, 4)
            pts = [(x - r, y), (x + r, y), (x + r, y + 1e-9), (x - r, y - 1e-9)]
            pts += [(x + r + d, y) for d in (-1e-12, 1e-12, -1e-15, 1e-15)]
            pts += [(x - r + d, y) for d in (-1e-12, 1e-12, -1e-15, 1e-15)]
            pts += [(rng.uniform(-15, 15), rng.uniform(-15, 15)) for _ in range(50)]
            rng.shuffle(pts)
            obstacles = ObstacleSet(pts)
            arr = np.array(pts)
            dx, dy = arr[:, 0] - x, arr[:, 1] - y
            want = arr[dx * dx + dy * dy <= r * r]
            got = obstacles.query(x, y, r)
            assert got.shape == want.shape
            assert (got == want).all()


def brute_force_collides(pose, geometry, pts):
    return any(point_in_rectangle(world_to_body(pose, p), geometry) for p in pts)


def box_outline(cx, cy, w, h, spacing):
    """Points every `spacing` m or less along an axis-aligned box's edges."""
    left, right, low, high = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
    corners = [(left, low), (right, low), (right, high), (left, high)]
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        n = math.ceil(math.hypot(x1 - x0, y1 - y0) / spacing)
        pts += [(x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n) for k in range(n)]
    return pts


def poses_in_square(rng, i, j, mid, count):
    """Poses whose body center (at `mid` along the heading) lies in memo square
    (i, j): heading 0 puts the center's y bitwise on the square's lower edge
    or one step below it (so in square j - 1), heading pi/2 does the same for
    x when |x| >= 1, and the rest take a random heading and center."""
    x0, y0 = i * MEMO_CELL, j * MEMO_CELL
    poses = []
    for k in range(count):
        inside_x = x0 + rng.uniform(0.0, MEMO_CELL)
        inside_y = y0 + rng.uniform(0.0, MEMO_CELL)
        edge_y = y0 if k % 2 else math.nextafter(y0, -math.inf)
        edge_x = x0 if k % 2 else math.nextafter(x0, -math.inf)
        if k % 3 == 0:
            poses.append(Pose(inside_x - mid, edge_y, 0.0))
        elif k % 3 == 1 and abs(x0) >= 1.0:
            poses.append(Pose(edge_x, inside_y - mid, math.pi / 2))
        else:
            theta = rng.uniform(-math.pi, math.pi)
            poses.append(
                Pose(inside_x - math.cos(theta) * mid, inside_y - math.sin(theta) * mid, theta)
            )
    return poses


class TestCollisionMemo:
    # Each test shares one ObstacleSet across all its checks, so later checks
    # read memo entries that earlier ones filled.

    def test_shared_set_matches_brute_force(self):
        # Many body centers per memo square, centers on square edges and one
        # step below them, mostly negative coordinates. One pose per square
        # owns a point just inside one of its corners, as far from the body
        # center as a hit can be; squares lie 8 m apart, so each owner's
        # verdict rests on its own corner point and a sparse background.
        rng = random.Random(501)
        mid = CAR.body_center_x
        rear, front, h = -CAR.rear_overhang, CAR.front_extent, CAR.width / 2.0
        poses, pts = [], []
        for i in range(-96, 33, 32):
            for j in range(-72, 33, 32):
                square = poses_in_square(rng, i + rng.randrange(4), j + rng.randrange(4), mid, 16)
                owner = square[0]
                corner = (rng.choice((rear, front)), rng.choice((-h, h)))
                nudged = tuple(v - math.copysign(1e-9, v) for v in corner)
                pts.append(body_to_world(owner, nudged))
                poses += square
        pts += [(rng.uniform(-26, 12), rng.uniform(-20, 12)) for _ in range(12)]
        obstacles = ObstacleSet(pts)
        verdicts = [vehicle_collides(pose, CAR, obstacles) for pose in poses]
        assert verdicts == [brute_force_collides(pose, CAR, pts) for pose in poses]
        # the corner owners all collide, and some other pose does not
        assert all(verdicts[::16]) and not all(verdicts)

    @pytest.mark.parametrize("small_first", [True, False])
    def test_two_bodies_share_a_set(self, small_first):
        # Entries are keyed by radius too: the small body's entry must never
        # serve the car, whose corner points lie beyond it. Both bodies put
        # their center 1.35 m ahead of the rear axle, so they read one square.
        small = VehicleGeometry(length=2.7, width=1.0, wheelbase=1.5, rear_overhang=0.0)
        assert small.body_center_x == pytest.approx(CAR.body_center_x)
        rng = random.Random(f"502-{small_first}")
        rear, front, h = -CAR.rear_overhang, CAR.front_extent, CAR.width / 2.0
        poses, pts = [], []
        for n in range(30):
            theta = rng.uniform(-math.pi, math.pi)
            pose = Pose(-60.0 + 8.0 * n, rng.uniform(-30, 30), theta)
            corner = (rng.choice((rear, front)), rng.choice((-h, h)))
            pts.append(body_to_world(pose, tuple(v - math.copysign(1e-9, v) for v in corner)))
            poses.append(pose)
        pts += [(rng.uniform(-64, 180), rng.uniform(-34, 34)) for _ in range(200)]
        obstacles = ObstacleSet(pts)
        order = (small, CAR) if small_first else (CAR, small)
        for pose in poses:
            for geometry in order:
                want = brute_force_collides(pose, geometry, pts)
                assert vehicle_collides(pose, geometry, obstacles) == want
            assert vehicle_collides(pose, CAR, obstacles)

    def test_entry_holds_every_query_point(self):
        # Query centers anywhere in a square, on its edges, one step below
        # them, and at negative coordinates all read one entry per square,
        # and that entry holds every point the query returns.
        rng = random.Random(503)
        pts = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(3000)]
        obstacles = ObstacleSet(pts)
        for radius in (math.hypot(CAR.length / 2, CAR.width / 2) + 1e-9, 1.1, 0.3):
            for _ in range(150):
                i, j = rng.randrange(-20, 20), rng.randrange(-20, 20)
                x0, y0 = i * MEMO_CELL, j * MEMO_CELL
                xs = (x0, x0 + rng.uniform(0, MEMO_CELL), math.nextafter(x0 + MEMO_CELL, -math.inf))
                ys = (y0, y0 + rng.uniform(0, MEMO_CELL), math.nextafter(y0 + MEMO_CELL, -math.inf))
                entry = obstacles._candidates(x0, y0, radius)
                held = set(zip(*entry))
                for x in xs:
                    for y in ys:
                        assert obstacles._candidates(x, y, radius) is entry
                        assert set(map(tuple, obstacles.query(x, y, radius).tolist())) <= held
                below = obstacles._candidates(math.nextafter(x0, -math.inf), y0, radius)
                assert below is not entry

    @pytest.mark.parametrize("cloud", ["forward", "backward", "large-lot"])
    def test_entry_equals_its_own_query(self, cloud):
        # One range query fills a MEMO_BLOCK x MEMO_BLOCK block of squares;
        # each square's entry, filtered from the block's rows, holds exactly
        # the points of a query around the square's own center, in input
        # order. Every square of the cloud and its margin is read, in a
        # shuffled order, for the car's radius and a smaller one.
        if cloud == "large-lot":
            # rows of parked-car outlines, a point every 0.25 m, around the origin
            points = np.array([
                p for cx in np.arange(-18.2, 18.3, 2.6) for cy in (-9.0, -2.6, 2.6, 9.0)
                for p in box_outline(cx, cy, CAR.width, CAR.length, 0.25)
            ])
        else:
            points = load_scenario(SCENARIOS / f"{cloud}_parking.json").obstacles.points
        obstacles = ObstacleSet(points)
        lo = np.floor(points.min(axis=0) / MEMO_CELL).astype(int) - 12
        hi = np.floor(points.max(axis=0) / MEMO_CELL).astype(int) + 12
        squares = [(i, j) for i in range(lo[0], hi[0] + 1) for j in range(lo[1], hi[1] + 1)]
        random.Random(cloud).shuffle(squares)
        assert {i % MEMO_BLOCK for i, _ in squares} == set(range(MEMO_BLOCK))
        assert min(i for i, _ in squares) < 0 and min(j for _, j in squares) < 0
        held = 0
        for radius in (math.hypot(CAR.length / 2, CAR.width / 2) + 1e-9, 1.1):
            for i, j in squares:
                entry = obstacles._candidates(i * MEMO_CELL, j * MEMO_CELL, radius)
                cx, cy = (i + 0.5) * MEMO_CELL, (j + 0.5) * MEMO_CELL
                want = obstacles.query(cx, cy, radius + MEMO_CELL).T.tolist()
                assert entry == want, (i, j, radius)
                held += len(entry[0])
        assert held > 0


class TestBodySweep:
    """The frame filter flags every sample body that `vehicle_collides`
    finds a point in, and only bodies with a point within 2e-6 m."""

    @staticmethod
    def _table(geometry, primitives):
        """Per primitive, its arc and the distances of its samples in
        `arc_stations` order, as the search's table holds them, and the sweep
        over every sample's pose relative to its start."""
        origin = Pose(0.0, 0.0, 0.0)
        table, poses = [], []
        for primitive in primitives:
            stations = arc_stations(origin, [primitive.arc], 0.1)
            table.append((primitive.arc, [station[3] for station in stations]))
            poses += [advance_arc(*station) for station in stations]
        return table, BodySweep(geometry, poses)

    @staticmethod
    def _edge_points(rng, pose, geometry, count):
        """Points within 1e-9 m of the body's edges at `pose`, either side."""
        rear, front, h = -geometry.rear_overhang, geometry.front_extent, geometry.width / 2.0
        out = []
        for _ in range(count):
            nudge = rng.choice((-1e-9, 0.0, 1e-9))
            if rng.random() < 0.5:
                bx, by = rng.choice((rear - nudge, front + nudge)), rng.uniform(-h, h)
            else:
                bx, by = rng.uniform(rear, front), rng.choice((-h - nudge, h + nudge))
            out.append(body_to_world(pose, (bx, by)))
        return out

    @pytest.mark.parametrize(
        "geometry, primitives",
        [
            (CAR, primitive_table(0.5, (-0.6, 0.0, 0.6), CAR.wheelbase)),
            (
                VehicleGeometry(length=2.2, width=1.1, wheelbase=1.4, rear_overhang=0.3),
                primitive_table(1.2, (-0.6, -0.3, 0.0, 0.3, 0.6), 1.4),
            ),
        ],
    )
    def test_flags_equal_per_sample_checks(self, geometry, primitives):
        rng = random.Random(f"sweep-{geometry.length}")
        table, sweep = self._table(geometry, primitives)
        exact_hits = flagged_only = 0
        for n in range(150):
            scale = 400.0 if n % 3 == 0 else 20.0
            parent = Pose(rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-4, 4))
            samples = [
                advance_arc(parent, gear, curvature, ds)
                for (gear, curvature, _), distances in table
                for ds in distances
            ]
            pts = [
                (parent.x + rng.uniform(-7, 7), parent.y + rng.uniform(-7, 7))
                for _ in range(rng.randrange(0, 8))
            ]
            pts += self._edge_points(rng, rng.choice(samples), geometry, 1)
            obstacles = ObstacleSet(pts)
            hits = sweep.hits(parent, obstacles) or [False] * len(samples)
            for pose, flagged in zip(samples, hits):
                exact = vehicle_collides(pose, geometry, obstacles)
                assert flagged or not exact, (n, pose)
                exact_hits += exact
                if flagged and not exact:
                    flagged_only += 1
                    near = [
                        world_to_body(pose, p) for p in pts
                        if point_in_rectangle(world_to_body(pose, p), inflated(geometry, 2e-6))
                    ]
                    assert near, (n, pose)
        assert exact_hits > 1000 and flagged_only > 50

    def test_no_points_near_flags_nothing(self):
        table, sweep = self._table(CAR, primitive_table(0.5, (-0.6, 0.0, 0.6), CAR.wheelbase))
        obstacles = ObstacleSet([(40.0, 40.0)])
        assert sweep.hits(Pose(0.0, 0.0, 0.3), obstacles) is None
        assert sweep.hits(Pose(0.0, 0.0, 0.3), ObstacleSet([])) is None


def inflated(geometry, margin):
    """`geometry` grown by `margin` on every side."""
    return VehicleGeometry(
        length=geometry.length + 2 * margin,
        width=geometry.width + 2 * margin,
        wheelbase=geometry.wheelbase,
        rear_overhang=geometry.rear_overhang + margin,
    )
