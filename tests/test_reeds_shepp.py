import hashlib
import math
import random

import pytest

import mhhastar.geometry
from mhhastar import reeds_shepp
from mhhastar.geometry import ObstacleSet, Pose, VehicleGeometry, normalize_angle, vehicle_collides
from mhhastar.reeds_shepp import RSPath, rs_collision_free, rs_shortest
from mhhastar.vehicle import Arc, Gear, arc_poses, bisection_order

from oracles import linear_collision_scan, rectangle_corners, rs_candidates


def random_pose(rng, span=10.0):
    return Pose(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-math.pi, math.pi))


def lattice_pose(rng):
    return Pose(rng.randint(-4, 4) / 2, rng.randint(-4, 4) / 2, rng.randint(-4, 4) * math.pi / 4)


def endpoint_error(path, start, goal, radius):
    samples = list(arc_poses(start, path.segments, 0.05))
    end = samples[-1][0]
    return math.hypot(end.x - goal.x, end.y - goal.y) + abs(normalize_angle(end.theta - goal.theta))


class TestShortest:
    def test_straight_forward(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(5, 0, 0), 1.0)
        assert path.total_length == pytest.approx(5.0)
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert seg.curvature == 0.0 and seg.gear is Gear.FORWARD
        assert seg.length == pytest.approx(5.0)

    def test_straight_reverse(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(-5, 0, 0), 1.0)
        assert path.total_length == pytest.approx(5.0)
        seg = path.segments[0]
        assert seg.curvature == 0.0 and seg.gear is Gear.REVERSE

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
        samples = list(arc_poses(Pose(0, 0, 0), path.segments, 0.5))
        xs = [p.x for p, _ in samples]
        assert xs == pytest.approx([0.0, 0.5, 1.0])

    def test_final_sample_is_goal(self):
        rng = random.Random(105)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            path = rs_shortest(a, b, 2.0)
            end, _ = list(arc_poses(a, path.segments, 0.1))[-1]
            assert math.hypot(end.x - b.x, end.y - b.y) < 1e-6
            assert abs(normalize_angle(end.theta - b.theta)) < 1e-6

    def test_quarter_arc_on_circle(self):
        rho = 2.0
        quarter = Arc(Gear.FORWARD, 1.0 / rho, rho * math.pi / 2)
        samples = list(arc_poses(Pose(0, 0, 0), [quarter], rho * math.pi / 8))
        assert len(samples) == 5
        for k, (pose, gear) in enumerate(samples):
            angle = k * math.pi / 8
            assert pose.x == pytest.approx(rho * math.sin(angle), abs=1e-9)
            assert pose.y == pytest.approx(rho * (1 - math.cos(angle)), abs=1e-9)
            assert gear is Gear.FORWARD

    def test_gear_tags_follow_segments(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(-5, 0, 0), 1.0)
        samples = list(arc_poses(Pose(0, 0, 0), path.segments, 0.25))
        assert all(g is Gear.REVERSE for _, g in samples)

    def test_rejects_bad_spacing(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(1, 0, 0), 1.0)
        with pytest.raises(ValueError):
            list(arc_poses(Pose(0, 0, 0), path.segments, 0.0))


class TestCollisionFree:
    CAR = VehicleGeometry(4.7, 2.0, 2.7, 1.0)

    def test_empty_obstacles(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(8, 0, 0), 2.0)
        assert rs_collision_free(path, Pose(0, 0, 0), self.CAR, ObstacleSet([]))

    def test_blocked_corridor(self):
        path = rs_shortest(Pose(0, 0, 0), Pose(8, 0, 0), 2.0)
        assert not rs_collision_free(path, Pose(0, 0, 0), self.CAR, ObstacleSet([(4.0, 0.0)]))

    def test_refinement_stability(self):
        # verdicts at the 0.1 m collision spacing agree with a 10x finer sampling
        rng = random.Random(106)
        agreements = 0
        for _ in range(200):
            a, b = random_pose(rng, 8), random_pose(rng, 8)
            pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(25)]
            obstacles = ObstacleSet(pts)
            path = rs_shortest(a, b, 3.0)
            coarse = rs_collision_free(path, a, self.CAR, obstacles)
            fine = not any(
                vehicle_collides(pose, self.CAR, obstacles)
                for pose, _ in arc_poses(a, path.segments, 0.01)
            )
            if coarse == fine:
                agreements += 1
        assert agreements >= 198  # collisions grazing a sample boundary are rare


def random_word(rng, n_arcs, radius=3.0):
    """Any word of n_arcs arcs, not only a shortest one; some arcs are
    shorter than the 0.1 m sample spacing."""
    arcs = tuple(
        Arc(rng.choice(list(Gear)), rng.choice((-1.0, 0.0, 1.0)) / radius, rng.uniform(0.03, 4.0))
        for _ in range(n_arcs)
    )
    return RSPath(arcs, sum(arc.length for arc in arcs))


class TestBisectionOrderCheck:
    """rs_collision_free visits the samples in bisection order; the verdict
    and the poses must be those of a start-to-end scan."""

    CAR = VehicleGeometry(4.7, 2.0, 2.7, 1.0)

    def test_verdict_matches_linear_scan(self):
        rng = random.Random(108)
        verdicts = set()
        for i in range(600):
            start = random_pose(rng, 3)
            # the empty word, as between coincident poses, checks the start alone
            path = random_word(rng, i % 6) if i % 6 else rs_shortest(start, start, 3.0)
            n_points = rng.choice((0, 1, 3, 20))
            obstacles = ObstacleSet([(rng.uniform(-12, 12), rng.uniform(-12, 12)) for _ in range(n_points)])
            want = linear_collision_scan(path, start, self.CAR, obstacles)
            assert rs_collision_free(path, start, self.CAR, obstacles) == want
            verdicts.add((len(path.segments), want))
        assert verdicts == {(n, v) for n in range(6) for v in (False, True)}

    @staticmethod
    def _inset_corners(pose, geometry):
        # just inside each corner, toward the rectangle's center
        corners = rectangle_corners(pose, geometry)
        cx = sum(x for x, _ in corners) / 4.0
        cy = sum(y for _, y in corners) / 4.0
        return [(x + 1e-4 * (cx - x), y + 1e-4 * (cy - y)) for x, y in corners]

    def test_a_single_colliding_sample_is_found(self):
        # A point just inside one corner of one sample's body, placed so
        # that no other sample covers it: the first, one in the middle, or
        # the last. Only a check that visits every sample can see it.
        rng = random.Random(109)
        found = {"first": 0, "middle": 0, "last": 0}
        for i in range(60):
            start = random_pose(rng, 3)
            path = random_word(rng, 1 + i % 5)
            poses = [pose for pose, _ in arc_poses(start, path.segments, 0.1)]
            n = len(poses)
            for target in {0, n // 3, n // 2, n - 1}:
                for point in self._inset_corners(poses[target], self.CAR):
                    obstacles = ObstacleSet([point])
                    hits = [k for k, pose in enumerate(poses) if vehicle_collides(pose, self.CAR, obstacles)]
                    if hits != [target]:
                        continue
                    assert not linear_collision_scan(path, start, self.CAR, obstacles)
                    assert not rs_collision_free(path, start, self.CAR, obstacles)
                    found["first" if target == 0 else "last" if target == n - 1 else "middle"] += 1
        assert min(found.values()) >= 20, found

    def test_visits_exactly_the_sampled_poses_in_bisection_order(self, monkeypatch):
        # With nothing in the way every sample is visited once; each must be
        # the pose arc_poses yields, bit for bit (repr tells -0.0 from 0.0).
        visited = []

        def record(pose, geometry, obstacles):
            visited.append(pose)
            return False

        monkeypatch.setattr(mhhastar.geometry, "vehicle_collides", record)
        rng = random.Random(110)
        starts = [Pose(-0.0, -0.0, -0.0), Pose(0.0, -0.0, math.pi)]
        cases = [
            (starts[i] if i < len(starts) else random_pose(rng, 3), random_word(rng, i % 6))
            for i in range(200)
        ]
        # The arc lengths TestArcPoses pins for arc_poses (0.6 / 0.1 rounds
        # below 6; 0.50000000005 lies within the 1e-9 slack of 0.5), one
        # spacing and half of one, in words of either gear and of both;
        # random_word draws uniform lengths and never hits them.
        for gears in ("FFFF", "RRRR", "FRFR", "RFRF"):
            for lengths in ((0.6, 0.50000000005, 0.1, 0.05), (0.05, 0.1, 0.50000000005, 0.6)):
                arcs = tuple(
                    Arc(Gear.FORWARD if gear == "F" else Gear.REVERSE, curvature, length)
                    for gear, curvature, length in zip(gears, (1 / 3, -1 / 3, 0.0, 1 / 3), lengths)
                )
                cases.append((Pose(1.0, -2.0, 0.3), RSPath(arcs, sum(lengths))))
        for start, path in cases:
            visited.clear()
            assert rs_collision_free(path, start, self.CAR, ObstacleSet([]))
            samples = [repr(pose) for pose, _ in arc_poses(start, path.segments, 0.1)]
            order = list(bisection_order(len(samples)))
            assert [repr(pose) for pose in visited] == [samples[k] for k in order]


    def test_builds_only_the_stations_it_visits(self, monkeypatch):
        # A station is built when its pose is checked and not before: a
        # check that stops at the k-th visited pose has read k - 1 stations.
        read = []

        class Counted(reeds_shepp.ArcStations):
            def __getitem__(self, i):
                read.append(i)
                return super().__getitem__(i)

        monkeypatch.setattr(reeds_shepp, "ArcStations", Counted)
        rng = random.Random(111)
        for i in range(40):
            start = random_pose(rng, 3)
            path = random_word(rng, 1 + i % 5)
            poses = [pose for pose, _ in arc_poses(start, path.segments, 0.1)]
            order = list(bisection_order(len(poses)))
            stop = rng.randrange(len(order))
            read.clear()
            checked = []

            def record(pose, geometry, obstacles):
                checked.append(pose)
                return len(checked) == stop + 1

            monkeypatch.setattr(mhhastar.geometry, "vehicle_collides", record)
            assert not rs_collision_free(path, start, self.CAR, ObstacleSet([]))
            assert checked == [poses[k] for k in order[: stop + 1]]
            assert read == [k - 1 for k in order[1 : stop + 1]]


def bit_identity_cases():
    """21,000 seeded (start, goal, radius) triples: random pairs, lattice
    pairs where distinct words tie, near-coincident pairs, and goals whose
    polar term lies on or within 1e-15..1e-6 of the family bounds rho = 2, 4,
    sqrt(20) and 6."""
    rng = random.Random(2005)
    cases = []
    for _ in range(6000):
        cases.append((random_pose(rng), random_pose(rng), rng.uniform(0.5, 4.0)))
    for _ in range(6000):
        cases.append((lattice_pose(rng), lattice_pose(rng), rng.choice((0.5, 1.0, 2.0, 4.0))))
    for _ in range(3000):
        a = random_pose(rng)
        d = [rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-15.0, -6.0) for _ in range(3)]
        cases.append((a, Pose(a.x + d[0], a.y + d[1], a.theta + d[2]), rng.uniform(0.5, 4.0)))
    offsets = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)
    for _ in range(6000):
        r = rng.choice((2.0, 4.0, 6.0, math.sqrt(20.0))) + rng.choice(offsets)
        phi = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        # a goal whose (x - sin phi, y - 1 + cos phi) or (x + sin phi,
        # y - 1 - cos phi) term has length r
        if rng.random() < 0.5:
            x, y = math.sin(phi) + r * math.cos(alpha), 1.0 - math.cos(phi) + r * math.sin(alpha)
        else:
            x, y = -math.sin(phi) + r * math.cos(alpha), 1.0 + math.cos(phi) + r * math.sin(alpha)
        radius = rng.choice((0.5, 1.0, 2.0))
        cases.append((Pose(0.0, 0.0, 0.0), Pose(x * radius, y * radius, phi), radius))
    return cases


class TestBitIdentity:
    # sha256 over repr(rs_shortest(a, b, radius)) + "\n" for every case, as
    # the family-by-family enumeration with a full stable sort computed it.
    DIGEST = "22f36c2b0f877aa425ee6ca811a78e8ea71600efe14ef52b3483a83391743ba3"

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        for a, b, radius in bit_identity_cases():
            digest.update(repr(rs_shortest(a, b, radius)).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST

    def test_full_sort_when_no_screened_word_verifies(self, monkeypatch):
        # Every word within 1e-6 of the shortest fails verification, so no
        # screened word verifies and the branch that ranks all words runs.
        # The answer must be the oracle's first shortest among the rest.
        # Power-of-two radii keep lengths exact in both frames.
        real = reeds_shepp._verified
        rng = random.Random(112)
        checked = 0
        for i in range(400):
            a, b = (lattice_pose(rng), lattice_pose(rng)) if i % 2 else (random_pose(rng), random_pose(rng))
            radius = rng.choice((0.5, 1.0, 2.0, 4.0))
            candidates = rs_candidates(a, b, radius)
            cut = min(c.total_length for c in candidates) / radius + 1e-6
            rest = [c for c in candidates if c.total_length / radius > cut]
            if not rest:
                continue

            def reject_near_shortest(params, pattern, x, y, phi, cut=cut):
                if sum(abs(p) for p in params if abs(p) > 1e-12) <= cut:
                    return None
                return real(params, pattern, x, y, phi)

            monkeypatch.setattr(reeds_shepp, "_verified", reject_near_shortest)
            assert rs_shortest(a, b, radius) == min(rest, key=lambda c: c.total_length)
            monkeypatch.setattr(reeds_shepp, "_verified", real)
            checked += 1
        assert checked > 300
