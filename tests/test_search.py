import dataclasses
import math

import pytest

from mhhastar.geometry import ObstacleSet, Pose, vehicle_collides
from mhhastar.grid import CellKey, discretize
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
from mhhastar.vehicle import Gear

from conftest import make_coarse_scenario, make_open_scenario


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


class TestOpenList:
    def _node(self, g=0.0):
        return SearchNode(
            pose=Pose(0, 0, 0), gear=Gear.FORWARD, steering=0.0,
            cell=CellKey(0, 0, 0, Gear.FORWARD), g=g, bp=None,
        )

    def test_empty_minkey_is_inf(self):
        assert OpenList(1).minkey(0) == math.inf
        assert OpenList(1).top(0) is None

    def test_fifo_among_ties(self):
        ol = OpenList(1)
        a, b = self._node(), self._node()
        ol.push(0, 1.0, a)
        ol.push(0, 1.0, b)
        assert ol.top(0) is a

    def test_stale_entries_skipped(self):
        ol = OpenList(1)
        a, b = self._node(), self._node()
        ol.push(0, 1.0, a)
        ol.push(0, 2.0, b)
        a.version += 1  # removal
        assert ol.top(0) is b
        assert ol.minkey(0) == 2.0

    def test_reinsert_with_new_key(self):
        ol = OpenList(1)
        a = self._node()
        ol.push(0, 5.0, a)
        a.version += 1
        ol.push(0, 1.0, a)
        assert ol.minkey(0) == 1.0


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

    def test_trapped_vehicle_exhausts_open(self):
        # a pocket barely larger than the body, with a slit the distance field
        # can leak through but the vehicle cannot: every successor collides
        cx = 1.35
        pts = (
            wall(cx - 2.6, -1.2, cx + 2.6, -1.2)
            + wall(cx - 2.6, 1.2, cx + 0.5, 1.2)
            + wall(cx + 0.9, 1.2, cx + 2.6, 1.2)
            + wall(cx - 2.6, -1.2, cx - 2.6, 1.2)
            + wall(cx + 2.6, -1.2, cx + 2.6, 1.2)
        )
        sc = make_open_scenario(Pose(0, 0, 0), Pose(5, 5, 0), pts, size=8.0)
        r = mhha_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.NO_SOLUTION
        assert r.nodes_expanded >= 1

    def test_colliding_start_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0), [(1.0, 0.0)])
        with pytest.raises(ValueError, match="start"):
            mhha_star(sc.start, sc.goal, sc)

    def test_colliding_goal_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0), [(9.0, 0.0)])
        with pytest.raises(ValueError, match="goal"):
            mhha_star(sc.start, sc.goal, sc)

    def test_out_of_workspace_endpoints_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(20.0, 0, 0))
        with pytest.raises(ValueError, match="workspace"):
            mhha_star(sc.start, sc.goal, sc)

    def test_bad_config_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0))
        config = dataclasses.replace(SearchConfig(), omega_factor=0.5)
        with pytest.raises(ValueError, match="omega"):
            mhha_star(sc.start, sc.goal, sc, config)

    @pytest.mark.parametrize("name", ["switchback", "steer_change", "steer_hold"])
    def test_negative_penalty_rejected(self, name):
        # the planner applies the same rules as `validate`
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0))
        penalties = dataclasses.replace(SearchConfig().penalties, **{name: -1.0})
        config = dataclasses.replace(SearchConfig(), penalties=penalties)
        with pytest.raises(ValueError, match=f"penalties.{name} < 0"):
            mhha_star(sc.start, sc.goal, sc, config)

    def test_nan_config_rejected(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(8, 0, 0))
        config = dataclasses.replace(SearchConfig(), omega_factor=math.nan, inflation_factors=(math.nan,))
        with pytest.raises(ValueError, match="omega_factor.*inflation factor #1"):
            mhha_star(sc.start, sc.goal, sc, config)

    def test_iteration_cap_is_an_error(self):
        sc = make_open_scenario(Pose(-8, 0, 0), Pose(8, 8, math.pi / 2))
        config = dataclasses.replace(SearchConfig(), max_iterations=3, setvalue=10**9)
        with pytest.raises(SearchLimitError):
            mhha_star(sc.start, sc.goal, sc, config)


def make_searcher(sc, n=1):
    """A live search over `sc` with only the start node inserted."""
    s = _Search(sc.goal, sc, sc.search, n, trace=False)
    start = SearchNode(
        pose=sc.start, gear=Gear.FORWARD, steering=0.0,
        cell=discretize(sc.start, Gear.FORWARD, sc.workspace),
        g=0.0, bp=None, h_anchor=s.heuristics.anchor(sc.start),
    )
    s.nodes[start.cell] = start
    s._insert(start)
    return s, start


class TestExpandNode:
    def test_expansion_removes_and_closes(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        assert start.closed
        for i in range(s.n + 1):
            assert s.open.top(i) is not start
        assert s.expansions == 1

    def test_six_successors_inserted(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        assert len(s.nodes) == 1 + 6  # start plus one node per primitive

    def test_rediscovery_with_larger_g_keeps_entry(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        arc = sc.search.primitives.arc_length
        ahead = Pose(arc, 0.0, 0.0)  # where start's straight step lands
        cell = discretize(ahead, Gear.FORWARD, sc.workspace)
        planted = SearchNode(
            pose=Pose(arc - 0.01, 0.0, 0.0), gear=Gear.FORWARD, steering=0.0,
            cell=cell, g=0.1, bp=None, h_anchor=s.heuristics.anchor(ahead),
        )
        s.nodes[cell] = planted
        s._insert(planted)
        s.expand_node(start)
        # the straight successor costs arc > 0.1: stored g, bp, pose untouched
        assert planted.g == 0.1
        assert planted.bp is None
        assert planted.pose.x == arc - 0.01

    def test_improvement_updates_g_bp_and_pose(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        arc = sc.search.primitives.arc_length
        ahead = Pose(arc, 0.0, 0.0)
        cell = discretize(ahead, Gear.FORWARD, sc.workspace)
        planted = SearchNode(
            pose=Pose(arc - 0.01, 0.0, 0.0), gear=Gear.FORWARD, steering=0.3,
            cell=cell, g=99.0, bp=None, h_anchor=s.heuristics.anchor(ahead),
        )
        s.nodes[cell] = planted
        s._insert(planted)
        s.expand_node(start)
        assert planted.g == pytest.approx(arc)
        assert planted.bp is start
        assert planted.pose == ahead
        assert planted.steering == 0.0

    def test_anchor_closed_cells_skipped(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        s.expand_node(start)
        rev = next(
            n for n in s.nodes.values()
            if n.bp is start and n.steering == 0.0 and n.gear is Gear.REVERSE
        )
        # rev's forward-straight successor lands exactly on the closed start
        # cell (same gear) and must be skipped, not re-opened or updated
        s.expand_node(rev)
        assert [n for n in s.nodes.values() if n.cell == start.cell] == [start]
        assert start.g == 0.0 and start.bp is None


class TestAnalyticExpansion:
    def test_clear_corridor_returns_path(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        tail = s.analytic_expansion(start)
        assert tail is not None
        assert tail.total_length == pytest.approx(10.0)

    def test_wall_blocks_expansion(self):
        sc = make_open_scenario(
            Pose(0, 0, 0), Pose(10, 0, 0), wall(5.0, -14.9, 5.0, 14.9)
        )
        s, start = make_searcher(sc)
        assert s.analytic_expansion(start) is None


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
        assert r.rs_tail_start == 1  # only the start pose precedes the tail
        assert r.nodes_expanded == 0
        assert r.path_length == pytest.approx(10.0, abs=1e-9)

    def test_goal_key_path_length_is_step_sum(self):
        sc = make_coarse_scenario()
        r = hybrid_a_star(sc.start, sc.goal, sc)
        assert r.termination is Termination.GOAL_KEY
        assert r.path_length == pytest.approx(4 * sc.search.primitives.arc_length, abs=1e-9)


class TestBacktrackGuard:
    def test_cyclic_parent_chain_is_an_error(self):
        sc = make_open_scenario(Pose(0, 0, 0), Pose(10, 0, 0))
        s, start = make_searcher(sc)
        other = SearchNode(
            pose=Pose(0.5, 0, 0), gear=Gear.FORWARD, steering=0.0,
            cell=CellKey(1, 0, 0, Gear.FORWARD), g=1.0, bp=start, step_length=0.5,
        )
        start.bp = other  # corrupt the tree
        with pytest.raises(RuntimeError, match="cyclic"):
            s.reconstruct_path(other, None)

