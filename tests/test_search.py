import dataclasses
import gc
import math
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar import geometry, heuristics, search
from mhhastar.geometry import ObstacleSet, Pose, VehicleGeometry, vehicle_collides
from mhhastar.grid import CellKey, GridSpec, discretize
from mhhastar.reeds_shepp import rs_shortest
from mhhastar.scenario import build_parallel_parking, load_scenario, validate
from mhhastar.search import (
    OpenList,
    SearchConfig,
    SearchLimitError,
    SearchNode,
    Termination,
    _Search,
    hybrid_a_star,
    mhha_star,
)
from mhhastar.vehicle import SAMPLE_SPACING, Gear, advance_arc, arc_poses, primitive_table

from conftest import SCENARIOS, make_coarse_scenario, make_open_scenario
from test_reeds_shepp import bit_identity_cases
from oracles import point_in_rectangle, rectangle_corners, world_to_body


def make_ring(cx, cy, radii=(4.0, 4.15, 4.3), n=720):
    pts = []
    for rr in radii:
        for k in range(n):
            a = 2 * math.pi * k / n
            pts.append((cx + rr * math.cos(a), cy + rr * math.sin(a)))
    return pts


def wall(x0, y0, x1, y1, spacing=0.05):
    n = max(1, math.ceil(math.hypot(x1 - x0, y1 - y0) / spacing))
    return [(x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n) for k in range(n + 1)]


# One row per rule of `input_problems`, in its order: the changes to the open
# scenario (start, goal, points) or to a field of its search config, and the
# one message they cause.
INPUT_RULES = [
    ({"start": Pose(20.0, 0, 0)}, "start outside workspace"),
    ({"goal": Pose(20.0, 0, 0)}, "goal outside workspace"),
    ({"start": Pose(0, 0, math.nan)}, "start heading not finite"),
    ({"goal": Pose(8, 0, math.nan)}, "goal heading not finite"),
    ({"points": [(1.0, 0.0)]}, "start in collision"),
    ({"points": [(9.0, 0.0)]}, "goal in collision"),
    ({"points": [(15.5, 3.0)]}, "obstacle point (15.500, 3.000) outside workspace"),
    ({"omega_factor": 0.5}, "omega_factor < 1"),
    ({"setvalue": 0}, "setvalue < 1"),
    ({"max_iterations": 0}, "max_iterations < 1"),
    ({"inflation_factors": (2.0, 0.5)}, "inflation factor #2 < 1"),
    ({"reverse_mult": 0.5}, "penalties.reverse_mult < 1 (breaks heuristic admissibility)"),
    ({"switchback": -1.0}, "penalties.switchback < 0"),
    ({"steer_change": -1.0}, "penalties.steer_change < 0"),
    ({"steer_hold": -1.0}, "penalties.steer_hold < 0"),
    ({"reverse_mult": math.inf}, "penalties.reverse_mult is not finite"),
    ({"switchback": math.inf}, "penalties.switchback is not finite"),
    ({"steer_hold": math.inf}, "penalties.steer_hold is not finite"),
    ({"steer_change": math.inf}, "penalties.steer_change is not finite"),
    ({"arc_length": 0.4}, "arc_length 0.4 does not exceed the cell diagonal 0.4243"),
    ({"arc_length": math.nan}, "arc_length nan does not exceed the cell diagonal 0.4243"),
    ({"arc_length": math.inf}, "arc_length inf is not finite"),
    ({"steering_angles": (-0.6, 0.0, 0.9)}, "steering angle 0.9 exceeds phi_max 0.6"),
]


def _take_fields(obj, changes: dict):
    """obj with the fields that `changes` names replaced; their keys are
    removed from `changes`."""
    return dataclasses.replace(obj, **{k: changes.pop(k) for k in list(changes) if hasattr(obj, k)})


class TestOpenList:
    """The anchor of a node in these tests is its pose's x."""

    @staticmethod
    def _open(*factors):
        return OpenList((1.0, *factors), lambda pose: pose.x)

    @staticmethod
    def _node(g=0.0, h=0.0):
        return SearchNode(
            pose=Pose(h, 0, 0), step=None, cell=CellKey(0, 0, 0, Gear.FORWARD), g=g, bp=None,
        )

    def test_empty_head_is_inf_and_none(self):
        assert self._open().head(0) == (math.inf, None)

    def test_fifo_among_ties(self):
        ol = self._open()
        a, b = self._node(h=1.0), self._node(h=1.0)
        ol.push(a, 1.0)
        ol.push(b, 1.0)
        assert ol.head(0)[1] is a

    def test_stale_entries_skipped(self):
        ol = self._open()
        a, b = self._node(h=1.0), self._node(h=2.0)
        ol.push(a, 1.0)
        ol.push(b, 2.0)
        a.version += 1  # removal
        assert ol.head(0) == (2.0, b)

    def test_reinsert_with_new_key(self):
        ol = self._open()
        a = self._node(h=5.0)
        ol.push(a, 5.0)
        a.pose = Pose(1.0, 0, 0)
        ol.push(a, 1.0)
        assert ol.head(0) == (1.0, a)

    def test_lower_bound_head_is_rekeyed(self):
        ol = self._open()
        a, b = self._node(h=5.0), self._node(h=3.0)
        ol.push(a, 0.0)
        ol.push(b, 3.0)
        assert ol.head(0) == (3.0, b)
        assert (a.h_anchor, b.h_anchor, ol.evaluations) == (5.0, 3.0, 2)

    def test_rekeyed_entry_keeps_its_place_among_ties(self):
        ol = self._open()
        a, b = self._node(h=2.0), self._node(h=2.0)
        ol.push(a, 0.0)
        ol.push(b, 2.0)
        assert ol.head(0)[1] is a

    def test_anchor_evaluated_once_per_push(self):
        ol = self._open(2.0, 3.0)
        a = self._node(g=1.0, h=2.0)
        ol.push(a, 0.0)
        assert [ol.head(i) for i in range(3)] == [(3.0, a), (5.0, a), (7.0, a)]
        assert ol.evaluations == 1
        a.pose = Pose(4.0, 0, 0)
        ol.push(a, 0.0)
        assert [ol.head(i) for i in range(3)] == [(5.0, a), (9.0, a), (13.0, a)]
        assert ol.evaluations == 2

    def test_push_key_above_the_true_key_is_an_error(self):
        # A push key must be a lower bound: one above the true key could pop
        # ahead of a node whose true key is less.
        ol = self._open(2.0)
        a = self._node(g=1.0, h=2.0)
        ol.push(a, 2.5)
        with pytest.raises(AssertionError, match="above its true key"):
            ol.head(0)

    def test_unreached_nodes_are_never_evaluated(self):
        ol = self._open()
        nodes = [self._node(h=float(k)) for k in range(10)]
        for node in nodes:
            ol.push(node, node.pose.x)
        assert ol.head(0)[1] is nodes[0]
        assert ol.evaluations == 1
        assert all(node.h_anchor is None for node in nodes[1:])


# One open-list operation: push (node index, g, anchor, anchor minus its
# lower bound) or expand (queue index). Small value sets make ties common.
_PUSH = st.tuples(
    st.just("push"),
    st.integers(0, 5),
    st.sampled_from((0.0, 0.5, 1.0, 2.0)),
    st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)),
    st.sampled_from((0.0, 0.0, 0.5, 1.0)),
)
_EXPAND = st.tuples(st.just("expand"), st.integers(0, 2))


class TestLazyKeysMatchEagerKeys:
    """The lazy open list pops what a heap keyed on true keys would pop."""

    @staticmethod
    def _eager_min(entries):
        """(key, node) of the least live (key, counter) entry; (inf, None)
        when there is none."""
        live = [e for e in entries if e[2] == e[3].version]
        head = min(live, key=lambda e: e[:2], default=None)
        return (head[0], head[3]) if head else (math.inf, None)

    @settings(max_examples=400, deadline=None)
    @given(
        factors=st.lists(st.sampled_from((1.0, 1.5, 2.0, 3.0)), max_size=2),
        ops=st.lists(st.one_of(_PUSH, _EXPAND), max_size=40),
    )
    def test_same_heads(self, factors, ops):
        factors = (1.0, *factors)
        anchors = []  # a pose's x indexes its true anchor here
        ol = OpenList(factors, lambda pose: anchors[int(pose.x)])
        nodes = [TestOpenList._node() for _ in range(6)]
        eager = [[] for _ in factors]
        counter = 0
        for op in ops:
            if op[0] == "push":
                _, k, g, h, slack = op
                node = nodes[k]
                node.g, node.pose = g, Pose(float(len(anchors)), 0, 0)
                anchors.append(h)
                ol.push(node, h - slack)
                for entries, factor in zip(eager, factors):
                    entries.append((g + factor * h, counter, node.version, node))
                    counter += 1
            else:
                i = op[1] % len(factors)
                _, node = ol.head(i)
                assert node is self._eager_min(eager[i])[1]
                if node is not None:
                    node.version += 1  # removal from every queue
            for i, entries in enumerate(eager):
                assert ol.head(i) == self._eager_min(entries)
        assert ol.evaluations <= len(anchors)


class TestImmediateCases:
    def test_start_equals_goal(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(0, 0, 0))
        r = mhha_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.GOAL_KEY
        assert len(r.path) == 1
        assert r.nodes_expanded == 0
        assert r.path_length == 0.0
        assert r.cost == 0.0

    def test_aligned_open_corridor_shortcuts_exactly(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        r = mhha_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.RS_SHORTCUT
        assert r.path_length == pytest.approx(10.0, abs=1e-6)
        # nothing blocks the corridor, so the very first periodic attempt lands
        assert r.iterations == sc.search.setvalue
        end = r.path[-1][0]
        assert math.hypot(end.x - 10.0, end.y) < 1e-6

    def test_sealed_ring_is_no_solution(self):
        sc = make_open_scenario(Pose(-8, 0, 0), Pose(8, 0, 0), make_ring(8, 0))
        r = mhha_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.NO_SOLUTION
        assert r.path == []
        assert math.isinf(r.path_length)

    def test_no_primitives_is_no_solution_after_one_expansion(self):
        # An empty steering set leaves the collision sweep with no bodies; a
        # point near the start still reaches it.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0), [(3.0, 2.0)])
        config = dataclasses.replace(sc.search, steering_angles=())
        result = mhha_star(sc.start, sc.goal, sc, config)
        assert (result.termination, result.nodes_expanded, result.iterations) == (
            Termination.NO_SOLUTION, 1, 1
        )

    def test_blocked_goal_cell_is_no_solution_before_any_expansion(self):
        # With no rear overhang the body ends at the rear axle, so a point
        # just behind the goal pose blocks its cell without touching the car.
        goal = Pose(9.15, 0.15, 0.0)  # a cell center
        point = (goal.x - 0.01, goal.y)
        sc = build_parallel_parking(
            workspace=GridSpec(-15.0, 15.0, -15.0, 15.0, 0.3, 72),
            vehicle=VehicleGeometry(4.7, 2.0, 2.7, 0.0, phi_max=0.6),
            spot=None,
            start=Pose(0, 0, 0),
            goal=goal,
            extra_points=[point],
        )
        assert sc.workspace.cell_of(*point) == sc.workspace.cell_of(goal.x, goal.y)
        assert validate(sc) == []
        for planner in (mhha_star, hybrid_a_star):
            r = planner(sc.start, sc.goal, sc)
            assert r.termination is Termination.NO_SOLUTION
            assert (r.nodes_expanded, r.iterations, r.heuristic_evaluations) == (0, 0, 0)

    @pytest.mark.parametrize("factors", [(), (2.0,), (2.0, 3.0), (1.5, 2.0, 3.0)])
    def test_trapped_vehicle_exhausts_open(self, factors):
        # a pocket barely larger than the body, with a slit the distance field
        # can leak through but the vehicle cannot: every successor collides.
        # One iteration takes one head, so emptying the queues takes as many
        # iterations as expansions, however many queues there are, and an
        # empty open list ends the search before the iteration cap is checked.
        cx = 1.35
        pts = (
            wall(cx - 2.6, -1.2, cx + 2.6, -1.2)
            + wall(cx - 2.6, 1.2, cx + 0.5, 1.2)
            + wall(cx + 0.9, 1.2, cx + 2.6, 1.2)
            + wall(cx - 2.6, -1.2, cx - 2.6, 1.2)
            + wall(cx + 2.6, -1.2, cx + 2.6, 1.2)
        )
        sc = make_open_scenario(Pose(0, 0, 0), Pose(5, 5, 0), pts, size=8.0)
        config = dataclasses.replace(sc.search, inflation_factors=factors)
        r = mhha_star(sc.start, sc.goal, sc, config)
        assert r.termination is Termination.NO_SOLUTION
        assert r.nodes_expanded >= 1
        assert r.iterations == r.nodes_expanded
        capped = dataclasses.replace(config, max_iterations=1)
        assert mhha_star(sc.start, sc.goal, sc, capped).termination is Termination.NO_SOLUTION

    @pytest.mark.parametrize("changes, message", INPUT_RULES, ids=[m for _, m in INPUT_RULES])
    def test_input_rule_reported_alike(self, changes, message):
        # `validate` and both planners share one rule list
        changes = dict(changes)
        sc = make_open_scenario(
            changes.pop("start", Pose(0, 0, 0)),
            changes.pop("goal", Pose(8, 0, 0)),
            changes.pop("points", ()),
        )
        cfg = sc.search
        penalties = _take_fields(cfg.penalties, changes)
        cfg = dataclasses.replace(cfg, penalties=penalties, **changes)
        sc = dataclasses.replace(sc, search=cfg)
        assert validate(sc) == [message]
        for plan in (mhha_star, hybrid_a_star):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                plan(sc.start, sc.goal, sc)

    def test_nan_config_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0))
        config = dataclasses.replace(SearchConfig(), omega_factor=math.nan, inflation_factors=(math.nan,))
        with pytest.raises(ValueError, match="omega_factor.*inflation factor #1"):
            mhha_star(sc.start, sc.goal, sc, config)

    def test_nan_penalty_reads_one_problem(self):
        # the +inf rule leaves NaN to the range rule
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0))
        for f in dataclasses.fields(sc.search.penalties):
            penalties = dataclasses.replace(sc.search.penalties, **{f.name: math.nan})
            problems = validate(dataclasses.replace(sc, search=dataclasses.replace(sc.search, penalties=penalties)))
            assert len(problems) == 1 and problems[0].startswith(f"penalties.{f.name} < "), problems

    def test_iteration_cap_is_an_error(self):
        sc = make_open_scenario(Pose(-8, 0, 0), Pose(8, 8, math.pi / 2))
        config = dataclasses.replace(SearchConfig(), max_iterations=3, setvalue=10**9)
        with pytest.raises(SearchLimitError):
            mhha_star(sc.start, sc.goal, sc, config)


def make_searcher(sc, n=1):
    """A live search over `sc` with only the start node inserted."""
    s = _Search(sc.start, sc.goal, sc, sc.search, n, trace=False)
    start = SearchNode(
        pose=sc.start, step=None, cell=discretize(sc.start, Gear.FORWARD, sc.workspace),
        g=0.0, bp=None,
    )
    s.nodes[start.cell] = start
    insert(s, start)
    return s, start


def insert(s, node):
    """(Re)insert node into a live search, keyed on its holonomic value."""
    s._insert(node, s.field.lookup(node.pose.x, node.pose.y))


class TestQueueKeys:
    """Queue 0 keys a node on g + anchor, queue i >= 1 on g + factor * anchor."""

    @pytest.fixture
    def s(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        config = dataclasses.replace(sc.search, inflation_factors=(2.0, 3.0))
        return _Search(sc.start, sc.goal, sc, config, None, trace=False)

    @staticmethod
    def _node(s, g, pose):
        return SearchNode(
            pose=pose, step=None, cell=discretize(pose, Gear.FORWARD, s.spec), g=g, bp=None
        )

    def _keys(self, s, g, pose):
        """Every queue's key for one inserted node, which is then dropped."""
        node = self._node(s, g, pose)
        insert(s, node)
        keys = [s.open.head(i)[0] for i in range(len(s.factors) + 1)]
        node.version += 1
        return keys

    def test_index_zero_is_anchor_and_inflation_is_exact_multiple(self, s):
        pose = Pose(-3.0, 4.0, 0.3)
        h = s.heuristics.anchor(pose)
        assert self._keys(s, 1.25, pose) == [1.25 + h, 1.25 + 2.0 * h, 1.25 + 3.0 * h]

    def test_known_inflation_example(self, s):
        keys = self._keys(s, 0.0, Pose(s.goal.x - 4.0, s.goal.y, 0.0))
        assert keys == pytest.approx([4.0, 8.0, 12.0])

    def test_sum(self, s):
        assert self._keys(s, 2.0, Pose(s.goal.x - 3.0, s.goal.y, 0.0))[0] == pytest.approx(5.0)

    def test_at_goal_equals_g(self, s):
        assert self._keys(s, 7.5, s.goal) == [7.5, 7.5, 7.5]

    def test_inflated_key_dominates(self, s):
        rng = random.Random(57)
        for _ in range(100):
            pose = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi))
            keys = self._keys(s, rng.uniform(0, 20), pose)
            assert keys[1] >= keys[0] and keys[2] >= keys[0]

    def test_ordering_matches_anchor(self, s):
        # at g = 0 every inflated queue serves the nodes in anchor order
        rng = random.Random(56)
        for _ in range(50):
            pose = Pose(rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(-math.pi, math.pi))
            insert(s, self._node(s, 0.0, pose))
        served = 0
        while (head := s.open.head(0)[1]) is not None:
            assert s.open.head(1)[1] is head and s.open.head(2)[1] is head
            head.version += 1
            served += 1
        assert served == 50


class TestExpandNode:
    def test_expansion_removes_and_closes(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        assert start.closed
        for i in range(len(s.factors) + 1):
            assert s.open.head(i)[1] is not start
        assert s.expansions == 1

    def test_six_successors_inserted(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        assert len(s.nodes) == 1 + 6  # start plus one node per primitive

    def test_rediscovery_with_larger_g_keeps_entry(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        arc = sc.search.arc_length
        ahead = Pose(arc, 0.0, 0.0)  # where start's straight step lands
        cell = discretize(ahead, Gear.FORWARD, sc.workspace)
        planted = SearchNode(pose=Pose(arc - 0.01, 0.0, 0.0), step=None, cell=cell, g=0.1, bp=None)
        s.nodes[cell] = planted
        insert(s, planted)
        s.expand_node(start)
        # the straight successor costs arc > 0.1: stored g, bp, pose untouched
        assert planted.g == 0.1
        assert planted.bp is None
        assert planted.pose.x == arc - 0.01

    def test_improvement_updates_g_bp_and_pose(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        arc = sc.search.arc_length
        ahead = Pose(arc, 0.0, 0.0)
        cell = discretize(ahead, Gear.FORWARD, sc.workspace)
        left, straight = s.primitives[:2]  # forward at -phi, then forward straight
        assert straight.arc == (Gear.FORWARD, 0.0, arc) and left.steering != 0.0
        planted = SearchNode(pose=Pose(arc - 0.01, 0.0, 0.0), step=left, cell=cell, g=99.0, bp=None)
        s.nodes[cell] = planted
        insert(s, planted)
        s.expand_node(start)
        assert planted.g == pytest.approx(arc)
        assert planted.bp is start
        assert planted.pose == ahead
        assert planted.step is straight

    def test_anchor_closed_cells_skipped(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        rev = next(
            n for n in s.nodes.values()
            if n.bp is start and n.step.steering == 0.0 and n.cell.gear is Gear.REVERSE
        )
        # rev's forward-straight successor lands exactly on the closed start
        # cell (same gear) and must be skipped, not re-opened or updated
        s.expand_node(rev)
        assert [n for n in s.nodes.values() if n.cell == start.cell] == [start]
        assert start.g == 0.0 and start.bp is None

    @staticmethod
    def _swept_corner_point(sc, at, outside=None):
        """Full-lock left, forward: a point just inside the front-right
        corner, the one farthest from the turning center, of the body `at`
        meters along the step; or, given `outside`, that many meters beyond
        the corner along the body's diagonal."""
        wheelbase = sc.vehicle.wheelbase
        steer = max(sc.search.steering_angles)
        pose = advance_arc(sc.start, Gear.FORWARD, math.tan(steer) / wheelbase, at)
        corners = rectangle_corners(pose, sc.vehicle)
        cx = sum(x for x, _ in corners) / 4.0
        cy = sum(y for _, y in corners) / 4.0
        x, y = corners[1]  # front right
        if outside is None:
            return (x + 1e-4 * (cx - x), y + 1e-4 * (cy - y)), steer
        reach = math.hypot(x - cx, y - cy)
        return (x + outside * (x - cx) / reach, y + outside * (y - cy) / reach), steer

    @staticmethod
    def _accepted(sc, steer):
        s, node = make_searcher(sc)
        s.expand_node(node)
        return [
            n for n in s.nodes.values()
            if n.bp is node and n.cell.gear is Gear.FORWARD and n.step.steering == steer
        ]

    def test_point_inside_the_body_only_at_one_sample_rejects_the_successor(self):
        # The point lies in the body at the 0.4 m sample alone: not at the
        # start, the midpoint, the end, or any other 0.1 m sample.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        point, steer = self._swept_corner_point(sc, 0.4)
        curvature = math.tan(steer) / sc.vehicle.wheelbase
        obstacles = ObstacleSet([point])
        stations = (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5)
        poses = [advance_arc(sc.start, Gear.FORWARD, curvature, at) for at in stations]
        hits = [at for at, pose in zip(stations, poses) if vehicle_collides(pose, sc.vehicle, obstacles)]
        assert hits == [0.4]
        assert self._accepted(make_open_scenario(sc.start, sc.goal, [point]), steer) == []

    @pytest.mark.parametrize("outside, rejected", [(5e-7, True), (1e-5, False)])
    def test_point_outside_the_body_at_one_sample_is_rejected_only_within_the_margin(
        self, outside, rejected
    ):
        # The sweep's flag is the verdict, and it flags a point within
        # BodySweep.INFLATION (1e-6 m) of a body: the point lies that far
        # outside the body at the 0.4 m sample, more than 1e-5 m from it at
        # every other sample, and in none of them.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        point, steer = self._swept_corner_point(sc, 0.4, outside)
        curvature = math.tan(steer) / sc.vehicle.wheelbase
        vehicle = sc.vehicle
        gaps = {}
        for at in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            bx, by = world_to_body(advance_arc(sc.start, Gear.FORWARD, curvature, at), point)
            gaps[at] = math.hypot(
                max(-vehicle.rear_overhang - bx, bx - vehicle.front_extent, 0.0),
                max(abs(by) - vehicle.width / 2.0, 0.0),
            )
        assert gaps.pop(0.4) == pytest.approx(outside, rel=1e-3)
        assert min(gaps.values()) > 1e-5
        accepted = self._accepted(make_open_scenario(sc.start, sc.goal, [point]), steer)
        assert len(accepted) == (0 if rejected else 1)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 8 (an exact swept test): expand_node checks a primitive "
        "at its 0.1 m samples, and the point lies between two of them",
    )
    def test_body_sweeping_through_a_point_rejects_the_successor(self):
        # Full-lock left, forward: the front-right corner lies farthest from
        # the turning center, so just inside it at 3/4 of the step sits a
        # point that only poses near 3/4 of the step cover.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        geometry, wheelbase = sc.vehicle, sc.vehicle.wheelbase
        arc = sc.search.arc_length
        steer = max(sc.search.steering_angles)
        curvature = math.tan(steer) / wheelbase
        start, mid, between, end = (
            advance_arc(sc.start, Gear.FORWARD, curvature, f * arc) for f in (0.0, 0.5, 0.75, 1.0)
        )
        corners = rectangle_corners(between, geometry)
        cx = sum(x for x, _ in corners) / 4.0
        cy = sum(y for _, y in corners) / 4.0
        x, y = corners[1]  # front right
        point = (x + 1e-4 * (cx - x), y + 1e-4 * (cy - y))
        obstacles = ObstacleSet([point])
        assert [vehicle_collides(p, geometry, obstacles) for p in (start, mid, between, end)] == [
            False, False, True, False
        ]

        sc = make_open_scenario(sc.start, sc.goal, [point])
        s, node = make_searcher(sc)
        s.expand_node(node)
        accepted = [
            n for n in s.nodes.values()
            if n.bp is node and n.cell.gear is Gear.FORWARD and n.step.steering == steer
        ]
        assert accepted == [], "expand_node accepted a primitive whose body sweeps through a point"


def swept_fuzz_scenario(rng):
    """A random vehicle (any valid rear overhang), cell size, heading bins,
    arc length of 0.8-1.2 m and steering set, among 3-10 clusters of 1-6
    points, with a start and goal 12 m apart facing anywhere."""
    length = rng.uniform(1.5, 5.0)
    wheelbase = rng.uniform(0.5, 0.75) * length
    vehicle = VehicleGeometry(
        length, rng.uniform(0.6, 0.5 * length), wheelbase, rng.uniform(0.0, length - wheelbase)
    )
    cell = rng.choice((0.2, 0.3, 0.5))
    arc_length = rng.choice((0.8, 1.0, 1.2))
    steering_angles = rng.choice(((-0.6, 0.0, 0.6), (-0.6, -0.3, 0.0, 0.3, 0.6)))
    points = []
    for _ in range(rng.randint(3, 10)):
        cx, cy = rng.uniform(-7, 7), rng.uniform(-5, 5)
        points += [
            (cx + rng.uniform(-0.3, 0.3), cy + rng.uniform(-0.3, 0.3))
            for _ in range(rng.randint(1, 6))
        ]
    return build_parallel_parking(
        workspace=GridSpec(-9.0, 9.0, -6.0, 6.0, cell, rng.choice((16, 36, 72))),
        vehicle=vehicle,
        spot=None,
        start=Pose(-6.0, rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
        goal=Pose(6.0, rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi)),
        search=SearchConfig(max_iterations=4000, arc_length=arc_length, steering_angles=steering_angles),
        extra_points=points,
    )


class TestSweptCollisionFuzz:
    def test_every_returned_sample_clears_every_point(self):
        # A primitive of 0.8-1.2 m adds 8-12 samples to a path. Checking only
        # its midpoint and end pose returned 5 colliding paths in these plans.
        plans = 0
        for seed in range(60):
            sc = swept_fuzz_scenario(random.Random(seed))
            if validate(sc):
                continue
            try:
                result = mhha_star(sc.start, sc.goal, sc)
            except SearchLimitError:
                continue
            points = sc.obstacles.points.tolist()
            for pose, _ in result.path:
                hits = [q for q in points if point_in_rectangle(world_to_body(pose, q), sc.vehicle)]
                assert hits == [], (seed, pose)
            plans += result.found
        assert plans >= 40


class TestPushKeyLowerBound:
    def test_successor_reeds_shepp_length_is_at_least_parents_less_the_step(self):
        # A primitive is a feasible path from its parent, so the successor's
        # shortest Reeds-Shepp length is at least the parent's less the arc
        # length; the search pushes new nodes on that, less its margin. The
        # parents, goals and radii are the Reeds-Shepp bit-identity cases,
        # family bounds included, and each takes every benchmark primitive
        # at full lock for its radius.
        worst = math.inf
        for parent, goal, radius in bit_identity_cases():
            table = primitive_table(0.5, (-0.6, 0.0, 0.6), radius * math.tan(0.6))
            floor = rs_shortest(parent, goal, radius).total_length - search.RS_MARGIN * (1.0 + radius)
            for primitive in table:
                child = advance_arc(parent, *primitive.arc)
                slack = rs_shortest(child, goal, radius).total_length - (floor - primitive.arc.length)
                worst = min(worst, slack)
        assert worst >= 0.0


class TestGoalNode:
    def _goal_nodes(self, sc):
        return [
            SearchNode(
                pose=sc.goal, step=None, cell=discretize(sc.goal, gear, sc.workspace),
                g=math.inf, bp=None,
            )
            for gear in (Gear.FORWARD, Gear.REVERSE)
        ]

    def test_first_inserted_wins_a_tie_after_update(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, _ = make_searcher(sc)
        assert s.goal_node is None
        first, second = self._goal_nodes(sc)
        first.g = 5.0
        insert(s, first)
        second.g = 3.0
        insert(s, second)
        assert s.goal_node is second
        first.g = 3.0  # an earlier node drops to tie the later best
        insert(s, first)
        assert s.goal_node is first
        second.g = 2.0
        insert(s, second)
        assert s.goal_node is second

    def test_matches_a_scan_of_inserted_goal_nodes(self):
        # The rule the search used to apply on every iteration: scan the goal
        # nodes in first-insert order, keeping the first with the least g.
        rng = random.Random(601)
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        for _ in range(30):
            s, start = make_searcher(sc)
            nodes = self._goal_nodes(sc)
            inserted = []
            for _ in range(10):
                node = rng.choice(nodes)
                node.g = min(node.g, float(rng.randrange(1, 6)))
                insert(s, node)
                if node not in inserted:
                    inserted.append(node)
                assert s.goal_node is min(inserted, key=lambda n: n.g)
            insert(s, start)
            assert s.goal_node is min(inserted, key=lambda n: n.g)


class TestSearchLifetime:
    def test_finished_search_is_freed_without_the_cycle_collector(self):
        # A reference cycle through the open list would keep the nodes, the
        # heaps and the distance field of every finished search alive until
        # the next full collection, which shows as peak memory over many plans.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        gc.disable()
        try:
            s = _Search(sc.start, sc.goal, sc, sc.search, None, trace=False)
            assert s.run().found
            ref = weakref.ref(s)
            del s
            assert ref() is None
        finally:
            gc.enable()


class TestAnalyticExpansion:
    """With setvalue 1 the first iteration tries the exact curve from the
    start; with one iteration allowed, only that try can end the search."""

    CONFIG = SearchConfig(setvalue=1, max_iterations=1)

    def test_clear_corridor_returns_path(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        result = mhha_star(sc.start, sc.goal, sc, self.CONFIG)
        assert result.termination is Termination.RS_SHORTCUT
        assert (result.iterations, result.nodes_expanded, result.drive) == (1, 0, ())
        assert result.path_length == pytest.approx(10.0)

    def test_wall_blocks_expansion(self):
        # a wall across the straight curve, with room around it
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0), wall(5.0, -3.0, 5.0, 3.0))
        with pytest.raises(SearchLimitError):
            mhha_star(sc.start, sc.goal, sc, self.CONFIG)


class TestDeterminismAndDegeneracy:
    def test_identical_runs_identical_results(self, forward_scenario):
        a = mhha_star(forward_scenario.start, forward_scenario.goal, forward_scenario)
        b = mhha_star(forward_scenario.start, forward_scenario.goal, forward_scenario)
        assert a.path == b.path
        assert a.path_length == b.path_length
        assert a.nodes_expanded == b.nodes_expanded
        assert a.iterations == b.iterations

    def test_mhha_with_no_inflated_queues_is_hybrid(self, forward_scenario):
        config = dataclasses.replace(forward_scenario.search, inflation_factors=())
        a = mhha_star(forward_scenario.start, forward_scenario.goal, forward_scenario, config, trace=True)
        b = hybrid_a_star(forward_scenario.start, forward_scenario.goal, forward_scenario, trace=True)
        assert [cell for _, _, cell in a.trace] == [cell for _, _, cell in b.trace]
        assert a.path == b.path
        assert (a.nodes_expanded, a.iterations) == (b.nodes_expanded, b.iterations)


class TestResultInvariants:
    def test_benchmark_paths_are_collision_free(
        self, forward_scenario, backward_scenario, benchmark_results
    ):
        scenarios = {"forward": forward_scenario, "backward": backward_scenario}
        for (label, _), result in benchmark_results.items():
            scenario = scenarios[label]
            for pose, _ in result.path:
                assert not vehicle_collides(pose, scenario.vehicle, scenario.obstacles)

    def test_benchmark_search_trace_pinned(self, benchmark_results):
        # Speed-ups of any layer must leave every search decision unchanged:
        # expansion and iteration counts, termination and path length.
        expected = {
            ("forward", "mhha"): (704, 705, 17.812887),
            ("forward", "hybrid"): (1559, 1560, 18.317931),
            ("backward", "mhha"): (299, 300, 16.137860),
            ("backward", "hybrid"): (1204, 1205, 16.263515),
        }
        for case, (nodes, iterations, length) in expected.items():
            result = benchmark_results[case]
            assert (result.nodes_expanded, result.iterations) == (nodes, iterations), case
            assert result.termination is Termination.RS_SHORTCUT, case
            assert result.path_length == pytest.approx(length, abs=1e-6), case

    def test_benchmark_anchor_evaluations_pinned(self, benchmark_results):
        # The anchor is evaluated only for nodes that reach a queue's head.
        # Evaluating it for every created or reopened node, as an eager open
        # list must, took the second count of each case. Pushing on the
        # holonomic value alone, without the parent's Reeds-Shepp length less
        # the step, took 1033 / 2340 / 338 / 1350.
        expected = {
            ("forward", "mhha"): (894, 2204),
            ("forward", "hybrid"): (1743, 5033),
            ("backward", "mhha"): (329, 1391),
            ("backward", "hybrid"): (1261, 4036),
        }
        for case, (lazy, eager) in expected.items():
            evaluations = benchmark_results[case].heuristic_evaluations
            assert evaluations == lazy < eager, case

    @pytest.mark.parametrize("planner", [mhha_star, hybrid_a_star])
    def test_anchor_evaluations_match_rs_calls(self, backward_scenario, monkeypatch, planner):
        # Each anchor evaluation solves one Reeds-Shepp problem, and nothing
        # else calls the heuristic module's solver.
        calls = []
        original = heuristics.rs_shortest

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(heuristics, "rs_shortest", counted)
        sc = backward_scenario
        result = planner(sc.start, sc.goal, sc)
        assert result.heuristic_evaluations == len(calls) > 0

    def test_analytic_pose_checks_pinned(self, forward_scenario, backward_scenario, monkeypatch):
        # rs_collision_free visits its poses in bisection order and stops at
        # the first hit; a start-to-end scan made 29,896 pose checks in these
        # four plans. The order cannot change the tries or their verdicts.
        tally = {"tries": 0, "successes": 0, "pose_checks": 0}
        inside = []
        original_check = search.rs_collision_free
        original_collides = geometry.vehicle_collides

        def check(*args):
            inside.append(True)
            try:
                free = original_check(*args)
            finally:
                inside.pop()
            tally["tries"] += 1
            tally["successes"] += free
            return free

        def collides(*args):
            tally["pose_checks"] += bool(inside)
            return original_collides(*args)

        monkeypatch.setattr(search, "rs_collision_free", check)
        monkeypatch.setattr(geometry, "vehicle_collides", collides)
        for sc in (forward_scenario, backward_scenario):
            for planner in (mhha_star, hybrid_a_star):
                planner(sc.start, sc.goal, sc)
        assert tally == {"tries": 754, "successes": 4, "pose_checks": 2569}

    def test_search_checks_only_the_start_and_goal_in_the_world_frame(
        self, forward_scenario, backward_scenario, monkeypatch
    ):
        # expand_node takes the sweep's flag as its verdict, so the only
        # world-frame checks the search module makes are the start and goal
        # checks of `input_problems`. Confirming each flagged sample with an
        # exact check made 1,101 in these four plans.
        calls = []
        original = search.vehicle_collides

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(search, "vehicle_collides", counted)
        for sc in (forward_scenario, backward_scenario):
            for planner in (mhha_star, hybrid_a_star):
                planner(sc.start, sc.goal, sc)
        assert len(calls) == 8

    def test_range_queries_pinned(self, monkeypatch):
        # A memo miss filters its square's points from the rows of one range
        # query per MEMO_BLOCK x MEMO_BLOCK block of squares; one query per
        # square made 606/979/488/918 (2,991) in these four plans. Each plan
        # gets a freshly loaded scenario, so no memo carries over. The sweep
        # reads the block around each parent, at a larger reach, so a block
        # that the start and goal checks filled is queried once more.
        # Checking each primitive's midpoint and end pose made 64/93/50/92.
        # Confirming each sample the sweep flags with an exact check made
        # 61/88/48/86: it read the memo blocks around sample body centers
        # that no parent's sweep block covered.
        calls = []
        original = ObstacleSet.query

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(ObstacleSet, "query", counted)
        counts = {}
        for name in ("forward", "backward"):
            for planner in (mhha_star, hybrid_a_star):
                sc = load_scenario(SCENARIOS / f"{name}_parking.json")
                del calls[:]
                planner(sc.start, sc.goal, sc)
                counts[name, planner.__name__] = len(calls)
        assert counts == {
            ("forward", "mhha_star"): 58,
            ("forward", "hybrid_a_star"): 86,
            ("backward", "mhha_star"): 47,
            ("backward", "hybrid_a_star"): 84,
        }
        assert sum(counts.values()) == 275

    def test_expansion_trace_counts_match(self, benchmark_results):
        for result in benchmark_results.values():
            assert result.trace is not None
            assert len(result.trace) == result.nodes_expanded
            assert result.iterations >= result.nodes_expanded

    def test_path_spacing_and_endpoints(self, forward_scenario, benchmark_results):
        result = benchmark_results[("forward", "mhha")]
        start, goal = forward_scenario.start, forward_scenario.goal
        first = result.path[0][0]
        assert (first.x, first.y, first.theta) == (start.x, start.y, start.theta)
        end = result.path[-1][0]
        assert math.hypot(end.x - goal.x, end.y - goal.y) < 1e-6
        for (a, _), (b, _) in zip(result.path, result.path[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) <= 0.1 + 1e-9

    def test_shortcut_at_start_returns_rs_samples_only(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        config = dataclasses.replace(sc.search, setvalue=1)
        r = mhha_star(sc.start, sc.goal, sc, config)
        assert r.termination is Termination.RS_SHORTCUT
        assert r.drive == () and r.tail is not None  # only the start precedes the tail
        assert r.path[0] == (sc.start, Gear.FORWARD)
        assert r.path[1][1] is r.tail[0].gear
        assert r.nodes_expanded == 0
        assert r.path_length == pytest.approx(10.0, abs=1e-9)

    def test_shortcut_at_start_in_reverse_tags_start_forward(self):
        sc = make_open_scenario(Pose(10, 0, 0), Pose(0, 0, 0))
        config = dataclasses.replace(sc.search, setvalue=1)
        r = mhha_star(sc.start, sc.goal, sc, config)
        assert r.termination is Termination.RS_SHORTCUT
        assert r.nodes_expanded == 0
        assert r.drive == () and r.tail is not None
        path = r.path
        assert path[0] == (sc.start, Gear.FORWARD)
        assert path[1][1] is r.tail[0].gear
        assert {gear for _, gear in path[1:]} == {Gear.REVERSE}
        assert len(path) == 101

    def test_tail_starts_at_the_last_drive_sample(self, benchmark_results):
        for result in benchmark_results.values():
            path = result.path
            drive = list(arc_poses(result.start, result.drive, SAMPLE_SPACING))
            assert result.tail is not None and len(result.drive) > 1
            end = result.start
            for arc in result.drive:
                end = advance_arc(end, *arc)
            assert path[: len(drive)] == drive
            assert drive[-1][0] == end
            assert path[len(drive)][1] is result.tail[0].gear

    def test_path_is_equal_on_repeated_reads(self, benchmark_results):
        for result in benchmark_results.values():
            first = result.path
            assert result.path == first
            assert result.path is not first

    def test_goal_key_path_length_is_step_sum(self):
        sc = make_coarse_scenario()
        r = hybrid_a_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.GOAL_KEY
        assert r.path_length == pytest.approx(4 * sc.search.arc_length, abs=1e-9)


class TestReconstructPath:
    def test_replayed_chain_lands_on_node_poses(self):
        # 0.6 m hops are not a multiple of the 0.1 m spacing; the replay must
        # still land bit for bit on every pose the search stored.
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        sc = dataclasses.replace(sc, search=dataclasses.replace(sc.search, arc_length=0.6))
        s, node = make_searcher(sc)
        F, R = Gear.FORWARD, Gear.REVERSE
        moves = [(F, 0.6), (F, -0.6), (R, 0.6), (R, 0.0)]
        for gear, steering in moves:
            s.expand_node(node)
            node = next(
                n for n in s.nodes.values()
                if n.bp is node and n.cell.gear is gear and n.step.steering == steering
            )
        chain = s._backtrack(node)
        result = s._result(Termination.GOAL_KEY, 0.0, node)
        path = result.path
        assert len(path) == 6 * len(moves) + 1
        assert [pose for pose, _ in path[::6]] == [n.pose for n in chain]
        assert [gear for _, gear in path[1:]] == [g for g, _ in moves for _ in range(6)]
        assert result.path_length == 0.6 + 0.6 + 0.6 + 0.6
        assert result.tail is None


class TestBacktrackGuard:
    def test_cyclic_parent_chain_is_an_error(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        other = SearchNode(
            pose=Pose(0.5, 0, 0), step=s.primitives[1], cell=CellKey(1, 0, 0, Gear.FORWARD),
            g=1.0, bp=start,
        )
        start.bp = other  # corrupt the tree
        with pytest.raises(RuntimeError, match="cyclic"):
            s._result(Termination.GOAL_KEY, 0.0, other)

