import dataclasses
import functools
import itertools
import json
import math
import operator
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhhastar.geometry import ObstacleSet, Pose, VehicleGeometry, vehicle_collides
from mhhastar.grid import GridSpec
from mhhastar.scenario import (
    Scenario,
    ScenarioError,
    SpotSpec,
    WALL_POINT_SPACING,
    _parking_walls,
    _points,
    _segment_points,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from mhhastar.search import SearchConfig, Termination, hybrid_a_star, mhha_star
from mhhastar.vehicle import PenaltyConfig

from conftest import SCENARIOS as BUNDLED
from oracles import parking_walls_loop, points_loop, segment_points_loop


NAN = math.nan
INF = math.inf


def _forward_data() -> dict:
    return json.loads((BUNDLED / "forward_parking.json").read_text())


def _spot_at(center_x):
    sc = load_scenario(BUNDLED / "forward_parking.json")
    return Scenario(
        workspace=sc.workspace, vehicle=sc.vehicle,
        spot=SpotSpec(3.0, 7.2, center_x), start=sc.start, goal=sc.goal,
    )


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# Loader inputs: mostly [x, y] pairs of finite floats, as a file holds them,
# with items of every kind the loop must name mixed in at random places.
odd_values = st.one_of(
    st.sampled_from([NAN, INF, -INF, True, False, 10**400, -(10**400), "1.0", None]),
    st.integers(-(10**20), 10**20),
    st.floats(width=64).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(max_size=2),
)
odd_items = st.one_of(
    st.tuples(odd_values, finite),
    st.tuples(finite, odd_values).map(list),
    st.lists(st.one_of(finite, odd_values, st.floats(width=64)), min_size=2, max_size=2),
    st.lists(finite, min_size=1, max_size=1),
    st.tuples(finite, finite, finite),
    st.sets(finite, min_size=2, max_size=2),
    st.dictionaries(st.text(max_size=2), finite, min_size=2, max_size=2),
    odd_values,
)


@st.composite
def point_lists(draw):
    pair = st.one_of(st.lists(finite, min_size=2, max_size=2), st.tuples(finite, finite))
    items = draw(st.lists(pair, max_size=30))
    for at, item in draw(st.lists(st.tuples(st.integers(0, 30), odd_items), max_size=3)):
        items.insert(at, item)
    return items


@st.composite
def search_configs(draw):
    return SearchConfig(
        omega_factor=draw(finite),
        setvalue=draw(st.integers(-10, 10**9)),
        max_iterations=draw(st.integers(-10, 10**9)),
        penalties=PenaltyConfig(
            reverse_mult=draw(finite),
            switchback=draw(finite),
            steer_change=draw(finite),
            steer_hold=draw(finite),
        ),
        arc_length=draw(st.floats(min_value=1e-6, max_value=1e6)),
        steering_angles=tuple(draw(st.lists(finite, max_size=5))),
        inflation_factors=tuple(draw(st.lists(finite, max_size=4))),
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: VehicleGeometry(NAN, 2.0, 2.7, 1.0), id="vehicle.length"),
        pytest.param(lambda: VehicleGeometry(4.7, NAN, 2.7, 1.0), id="vehicle.width"),
        pytest.param(lambda: VehicleGeometry(4.7, 2.0, NAN, 1.0), id="vehicle.wheelbase"),
        pytest.param(lambda: VehicleGeometry(4.7, 2.0, 2.7, NAN), id="vehicle.rear_overhang"),
        pytest.param(lambda: VehicleGeometry(4.7, 2.0, 2.7, 1.0, NAN), id="vehicle.phi_max"),
        pytest.param(lambda: GridSpec(NAN, 21.0, -1.0, 11.0), id="workspace.x_min"),
        pytest.param(lambda: GridSpec(-21.0, NAN, -1.0, 11.0), id="workspace.x_max"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, NAN, 11.0), id="workspace.y_min"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, -1.0, NAN), id="workspace.y_max"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, -1.0, 11.0, NAN), id="workspace.cell_size"),
        pytest.param(lambda: SpotSpec(NAN, 7.2, 0.0), id="spot.depth"),
        pytest.param(lambda: SpotSpec(3.0, NAN, 0.0), id="spot.length"),
        pytest.param(lambda: _spot_at(NAN), id="spot.center_x"),
        pytest.param(lambda: VehicleGeometry(INF, 2.0, 2.7, 1.0), id="vehicle.length-inf"),
        pytest.param(lambda: VehicleGeometry(4.7, INF, 2.7, 1.0), id="vehicle.width-inf"),
        pytest.param(lambda: GridSpec(-INF, 21.0, -1.0, 11.0), id="workspace.x_min-inf"),
        pytest.param(lambda: GridSpec(-21.0, INF, -1.0, 11.0), id="workspace.x_max-inf"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, -INF, 11.0), id="workspace.y_min-inf"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, -1.0, INF), id="workspace.y_max-inf"),
        pytest.param(lambda: GridSpec(-21.0, 21.0, -1.0, 11.0, INF), id="workspace.cell_size-inf"),
        pytest.param(lambda: SpotSpec(INF, 7.2, 0.0), id="spot.depth-inf"),
        pytest.param(lambda: SpotSpec(3.0, INF, 0.0), id="spot.length-inf"),
        pytest.param(lambda: SpotSpec(3.0, 7.2, INF), id="spot.center_x-inf"),
        pytest.param(lambda: SpotSpec(3.0, 7.2, -INF), id="spot.center_x-minus-inf"),
    ],
)
def test_nan_value_rejected(make):
    # each rule is written in the "ok" form, so that NaN fails it; an
    # infinite value fails at construction too. The search config's rules,
    # arc_length's among them, are `input_problems` rows (INPUT_RULES in
    # test_search).
    with pytest.raises(ValueError):
        make()


class TestBuild:
    def test_benchmark_layout(self, forward_scenario, backward_scenario):
        ws = forward_scenario.workspace
        assert (ws.x_min, ws.x_max, ws.y_min, ws.y_max) == (-21.0, 21.0, -1.0, 11.0)
        assert forward_scenario.spot == SpotSpec(3.0, 7.2, 0.0)
        assert forward_scenario.goal == Pose(-1.35, 1.5, 0.0)
        assert forward_scenario.start == Pose(-9.0, 8.0, 0.0)
        assert backward_scenario.start == Pose(12.0, 8.0, 0.0)

    def test_goal_is_collision_free(self, forward_scenario):
        assert not vehicle_collides(
            forward_scenario.goal, forward_scenario.vehicle, forward_scenario.obstacles
        )

    def test_no_violations(self, forward_scenario, backward_scenario):
        assert validate(forward_scenario) == []
        assert validate(backward_scenario) == []

    def test_deterministic(self):
        a = load_scenario(BUNDLED / "forward_parking.json")
        b = load_scenario(BUNDLED / "forward_parking.json")
        assert (a.obstacles.points == b.obstacles.points).all()

    def test_wall_sampling_spacing(self, forward_scenario):
        pts = sorted(
            (x, y) for x, y in forward_scenario.obstacles.points if y == 11.0
        )
        assert pts[0][0] == -21.0 and pts[-1][0] == 21.0
        gaps = [b[0] - a[0] for a, b in zip(pts, pts[1:])]
        assert max(gaps) <= 0.1 + 1e-9

    def test_walls_form_expected_lines(self, forward_scenario):
        ys = {round(y, 6) for _, y in forward_scenario.obstacles.points}
        # lower boundary at the spot opening, spot floor, upper boundary
        assert 3.0 in ys and 0.0 in ys and 11.0 in ys

    def test_spot_outside_workspace_rejected(self, forward_scenario):
        with pytest.raises(ValueError):
            Scenario(
                workspace=forward_scenario.workspace,
                vehicle=forward_scenario.vehicle,
                    spot=SpotSpec(3.0, 100.0, 0.0),
                start=forward_scenario.start,
                goal=forward_scenario.goal,
            )

    def test_density_stability_along_plan(self, forward_scenario, benchmark_results):
        # doubling the wall point density must not change any collision
        # verdict along the planned path
        dense = ObstacleSet(_parking_walls(
            forward_scenario.workspace,
            forward_scenario.spot,
            forward_scenario.goal,
            WALL_POINT_SPACING / 2.0,
        ))
        for pose, _ in benchmark_results[("forward", "mhha")].path:
            sparse_hit = vehicle_collides(
                pose, forward_scenario.vehicle, forward_scenario.obstacles
            )
            dense_hit = vehicle_collides(pose, forward_scenario.vehicle, dense)
            assert sparse_hit == dense_hit == False  # noqa: E712

    @settings(max_examples=300, deadline=None)
    @given(
        p0=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        p1=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        spacing=st.floats(1.0, 50.0),
    )
    def test_segment_points_match_point_by_point_sampling(self, p0, p1, spacing):
        expected = np.array(segment_points_loop(p0, p1, spacing), dtype=float)
        assert _segment_points(p0, p1, spacing).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        size=st.tuples(st.floats(0.5, 60.0), st.floats(0.5, 20.0)),
        spot=st.tuples(
            st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.floats(0.0, 1.0)
        ),
        spacing=st.floats(0.05, 1.0),
    )
    def test_walls_match_point_by_point_sampling(self, corner, size, spot, spacing):
        # random workspaces, spots (length, centre, depth and goal depth as
        # fractions of the free room) and spacings, bit for bit
        (x_min, y_min), (width, height) = corner, size
        length_f, center_f, depth_f, goal_f = spot
        workspace = GridSpec(x_min, x_min + width, y_min, y_min + height)
        length, depth = length_f * width, depth_f * height
        spot = SpotSpec(depth, length, x_min + length / 2.0 + center_f * (width - length))
        goal = Pose(0.0, y_min + depth / 2.0 + goal_f * (height - depth), 0.0)
        try:
            walls = _parking_walls(workspace, spot, goal, spacing)
        except ValueError as e:
            assume("outside the workspace" not in str(e))  # the spot rounded out
            raise
        expected = np.array(parking_walls_loop(workspace, spot, goal, spacing), dtype=float)
        assert walls.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["forward_parking.json", "backward_parking.json"])
    def test_shipped_walls_match_point_by_point_sampling(self, name):
        scenario = load_scenario(BUNDLED / name)
        expected = np.array(
            parking_walls_loop(scenario.workspace, scenario.spot, scenario.goal, WALL_POINT_SPACING),
            dtype=float,
        )
        assert len(expected) == 906 and len(scenario.extra_points) == 0
        assert scenario.obstacles.points[:906].tobytes() == expected.tobytes()

    def test_scenario_is_keyword_only_and_frozen(self, forward_scenario):
        sc = forward_scenario
        with pytest.raises(TypeError):
            Scenario(sc.workspace, sc.vehicle, sc.start, sc.goal)
        for name in ("goal", "spot", "extra_points", "obstacles"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sc, name, getattr(sc, name))
        with pytest.raises(ValueError):  # built in the constructor, never passed
            dataclasses.replace(sc, obstacles=sc.obstacles)
        for array in (sc.extra_points, sc.obstacles.points):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_extra_points_are_the_rows_after_the_walls(self, forward_scenario):
        sc = dataclasses.replace(forward_scenario, extra_points=[(5.0, 5.0), (-3.0, 9.0)])
        assert np.shares_memory(sc.extra_points, sc.obstacles.points)
        assert sc.obstacles.points[906:].tobytes() == sc.extra_points.tobytes()
        assert sc.obstacles.points[:906].tobytes() == forward_scenario.obstacles.points.tobytes()


class TestValidate:
    def test_start_in_collision(self, forward_scenario):
        bad = dataclasses.replace(forward_scenario, start=Pose(0.0, 3.0, 0.2))
        assert any("start in collision" in v for v in validate(bad))

    def test_omega_below_one(self, forward_scenario):
        cfg = dataclasses.replace(forward_scenario.search, omega_factor=0.5)
        bad = dataclasses.replace(forward_scenario, search=cfg)
        assert any("omega_factor < 1" in v for v in validate(bad))

    def test_reverse_mult_below_one(self, forward_scenario):
        pen = dataclasses.replace(forward_scenario.search.penalties, reverse_mult=0.5)
        cfg = dataclasses.replace(forward_scenario.search, penalties=pen)
        bad = dataclasses.replace(forward_scenario, search=cfg)
        assert any("reverse_mult" in v for v in validate(bad))

    def test_steering_beyond_lock(self, forward_scenario):
        cfg = dataclasses.replace(forward_scenario.search, steering_angles=(-0.9, 0.0, 0.9))
        bad = dataclasses.replace(forward_scenario, search=cfg)
        assert any("exceeds phi_max" in v for v in validate(bad))

    def test_out_of_workspace_obstacles_flagged(self, forward_scenario):
        bad = Scenario(
            workspace=forward_scenario.workspace,
            vehicle=forward_scenario.vehicle,
            spot=forward_scenario.spot,
            start=forward_scenario.start,
            goal=forward_scenario.goal,
            extra_points=[(5.0, 5.0), (-25.0, 8.0), (0.0, NAN)],
        )
        assert validate(bad) == [
            "obstacle point (-25.000, 8.000) outside workspace",
            "obstacle point (0.000, nan) outside workspace",
        ]

    def test_obstacle_rule_matches_point_loop(self, forward_scenario):
        # the rule is one numpy mask; the per-point loop over
        # `GridSpec.contains` that it replaced is the reference
        ws = forward_scenario.workspace
        edges = (ws.x_min, ws.x_max, ws.y_min, ws.y_max)
        near = [math.nextafter(e, side * INF) for e in edges for side in (-1, 1)]
        coords = [*edges, *near, 0.0, NAN, INF, -INF]
        points = list(itertools.product(coords, coords))
        sc = dataclasses.replace(forward_scenario, spot=None, extra_points=points)
        assert [v for v in validate(sc) if v.startswith("obstacle point")] == [
            f"obstacle point ({x:.3f}, {y:.3f}) outside workspace"
            for x, y in points
            if not ws.contains(x, y)
        ]

    @settings(max_examples=200, deadline=None)
    @given(config=search_configs())
    def test_planners_refuse_exactly_what_validate_lists(self, forward_scenario, config):
        # one rule list: a planner raises on every problem `validate` lists,
        # with a config given directly or taken from the scenario
        scenario = dataclasses.replace(forward_scenario, search=config)
        problems = validate(scenario)
        if not problems:
            return  # planning the valid draws would only slow the test
        s, g = scenario.start, scenario.goal
        for plan in (lambda: mhha_star(s, g, scenario), lambda: hybrid_a_star(s, g, forward_scenario, config)):
            with pytest.raises(ValueError) as err:
                plan()
            assert str(err.value) == "; ".join(problems)


class TestFiles:
    def test_round_trip_is_semantically_identical(self, tmp_path, forward_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(forward_scenario, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(forward_scenario)
        again = tmp_path / "again.json"
        save_scenario(loaded, again)
        assert json.loads(path.read_text()) == json.loads(again.read_text())

    def test_loaded_scenario_rebuilds_obstacles(self, tmp_path, forward_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(forward_scenario, path)
        loaded = load_scenario(path)
        assert (loaded.obstacles.points == forward_scenario.obstacles.points).all()

    def test_unknown_top_level_key_rejected(self):
        data = _forward_data()
        data["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown key.*surprise"):
            scenario_from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = _forward_data()
        data["search"]["penalties"]["steer_bonus"] = 1.0
        with pytest.raises(ScenarioError, match="search.penalties.*steer_bonus"):
            scenario_from_dict(data)

    def test_missing_section_diagnostic(self):
        data = _forward_data()
        del data["vehicle"]
        with pytest.raises(ScenarioError, match="scenario.vehicle"):
            scenario_from_dict(data)

    def test_type_error_diagnostic(self):
        data = _forward_data()
        data["goal"]["x"] = "left"
        with pytest.raises(ScenarioError, match="goal.x"):
            scenario_from_dict(data)

    def test_constructor_errors_carry_section(self):
        data = _forward_data()
        data["vehicle"]["width"] = -1.0
        with pytest.raises(ScenarioError, match="vehicle"):
            scenario_from_dict(data)

    def test_list_fields_must_be_numeric_lists(self):
        data = _forward_data()
        data["search"]["inflation_factors"] = "big"
        with pytest.raises(ScenarioError, match="inflation_factors"):
            scenario_from_dict(data)
        data = _forward_data()
        data["search"]["steering_angles"] = [0.1, "hard-left"]
        with pytest.raises(ScenarioError, match="steering_angles"):
            scenario_from_dict(data)
        data = _forward_data()
        data["obstacles"]["extra_points"] = [[1.0]]
        with pytest.raises(ScenarioError, match=r"extra_points\[0\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "item, message",
        [
            ([5, 6], None),
            ([5.0, 6], None),
            ([True, 1.0], "obstacles.extra_points[2]: expected a number"),
            ([1.0, False], "obstacles.extra_points[2]: expected a number"),
            ([NAN, 1.0], "obstacles.extra_points[2]: expected a finite number"),
            ([1.0, INF], "obstacles.extra_points[2]: expected a finite number"),
            ([1.0, 2.0, 3.0], "obstacles.extra_points[2]: expected an [x, y] pair"),
            ("ab", "obstacles.extra_points[2]: expected an [x, y] pair"),
            # a dict built in code may hold tuples, numpy scalars, sets and dicts
            ((5.0, 6.0), None),
            ([np.float64(1.5), 2.0], None),
            ((2.0, np.float32(1.5)), "obstacles.extra_points[2]: expected a number"),
            ([2.0, "1.0"], "obstacles.extra_points[2]: expected a number"),
            ((None, 2.0), "obstacles.extra_points[2]: expected a number"),
            ([10**400, 2.0], "obstacles.extra_points[2]: expected a finite number"),
            ((2.0, -INF), "obstacles.extra_points[2]: expected a finite number"),
            ([1.0], "obstacles.extra_points[2]: expected an [x, y] pair"),
            ({1.0, 2.0}, "obstacles.extra_points[2]: expected an [x, y] pair"),
            ({"x": 1.0, "y": 2.0}, "obstacles.extra_points[2]: expected an [x, y] pair"),
        ],
    )
    def test_extra_point_messages(self, item, message):
        data = _forward_data()
        data["obstacles"]["extra_points"] = [[5.0, 5.0], [6.0, 7.0], item]
        if message is None:
            point = scenario_from_dict(data).extra_points[-1]
            assert point.dtype == np.float64
            assert point.tolist() == [float(item[0]), float(item[1])]
        else:
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(data)
            assert str(err.value) == message

    @settings(max_examples=400, deadline=None)
    @given(value=point_lists())
    def test_points_match_item_loop(self, value):
        # the fast path and its fallback give the points of the per-item
        # loop bit for bit, or its ScenarioError message
        where = "obstacles.extra_points"
        try:
            want = np.array(points_loop(value, where), dtype=float).reshape(-1, 2)
        except ScenarioError as err:
            with pytest.raises(ScenarioError) as got:
                _points(value, where)
            assert str(got.value) == str(err)
            return
        points = _points(value, where)
        assert points.dtype == np.float64 and points.shape == want.shape
        assert points.tobytes() == want.tobytes()
        data = _forward_data()
        data["obstacles"]["extra_points"] = value
        scenario = scenario_from_dict(data)
        extra = scenario.extra_points
        assert extra.dtype == np.float64 and extra.shape == want.shape
        assert extra.tobytes() == want.tobytes()
        again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
        assert again.obstacles.points.tobytes() == scenario.obstacles.points.tobytes()

    def test_saved_points_load_bit_identical(self, tmp_path):
        # a large-lot-sized cloud with -0.0, subnormals and full-precision
        # values survives save and load bit for bit, and saves to the same text
        rng = np.random.default_rng(7)
        cloud = rng.uniform(-20.0, 20.0, (9000, 2))
        cloud[:4] = [[-0.0, 5e-324], [0.1, -0.0], [1e-300, 2.0**-1074], [math.pi, -math.e]]
        data = _forward_data()
        data["obstacles"]["extra_points"] = cloud.tolist()
        scenario = scenario_from_dict(data)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_scenario(scenario, first)
        loaded = load_scenario(first)
        assert loaded.obstacles.points.tobytes() == scenario.obstacles.points.tobytes()
        assert loaded.extra_points.tobytes() == cloud.tobytes()
        save_scenario(loaded, second)
        assert second.read_text() == first.read_text()

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"workspace": {,}\n')
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{\x00}\x00", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-100000-deep"],
    )
    def test_undecodable_file_names_the_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: "):
            load_scenario(path)

    def test_extra_points_round_trip(self, tmp_path, forward_scenario):
        # a built scenario saves only its extra points, and the loader
        # rebuilds the 906 wall points from spot and goal, once
        scenario = Scenario(
            workspace=forward_scenario.workspace,
            vehicle=forward_scenario.vehicle,
            spot=SpotSpec(3.0, 7.2, 0.0),
            start=Pose(-9, 8, 0),
            goal=Pose(-1.35, 1.5, 0),
            extra_points=[(5.0, 5.0), (-3.0, 9.0)],
        )
        assert scenario_to_dict(scenario)["obstacles"] == {"extra_points": [[5.0, 5.0], [-3.0, 9.0]]}
        path = tmp_path / "extra.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.extra_points.tolist() == [[5.0, 5.0], [-3.0, 9.0]]
        assert len(loaded.obstacles) == len(scenario.obstacles) == 906 + 2
        assert loaded.obstacles.points.tobytes() == scenario.obstacles.points.tobytes()

    def test_replaced_goal_moves_the_walls_and_round_trips(self, tmp_path, forward_scenario):
        # the spot is centered on the goal's depth, so a moved goal moves the
        # walls, in memory as after a save and load, and both plan alike
        goal = forward_scenario.goal
        moved = dataclasses.replace(forward_scenario, goal=Pose(goal.x, goal.y + 0.5, goal.theta))
        walls = _parking_walls(moved.workspace, moved.spot, moved.goal, WALL_POINT_SPACING)
        assert moved.obstacles.points.tobytes() == walls.tobytes()
        path = tmp_path / "moved.json"
        save_scenario(moved, path)
        loaded = load_scenario(path)
        assert loaded.obstacles.points.tobytes() == moved.obstacles.points.tobytes()
        plans = [mhha_star(sc.start, sc.goal, sc) for sc in (moved, loaded)]
        a, b = ((r.termination, r.nodes_expanded, r.iterations, r.path_length, r.path) for r in plans)
        assert a == b and a[0] is not Termination.NO_SOLUTION

    @pytest.mark.parametrize(
        "key, change",
        [
            (
                "search.omega_factor",
                lambda sc: dataclasses.replace(sc, search=dataclasses.replace(sc.search, omega_factor=INF)),
            ),
            ("start.theta", lambda sc: dataclasses.replace(sc, start=Pose(sc.start.x, sc.start.y, NAN))),
            (
                "search.penalties.steer_hold",
                lambda sc: dataclasses.replace(
                    sc,
                    search=dataclasses.replace(
                        sc.search, penalties=dataclasses.replace(sc.search.penalties, steer_hold=NAN)
                    ),
                ),
            ),
            (
                "search.setvalue",
                lambda sc: dataclasses.replace(sc, search=dataclasses.replace(sc.search, setvalue=2.5)),
            ),
            (
                "workspace.heading_bins",
                lambda sc: dataclasses.replace(
                    sc, workspace=dataclasses.replace(sc.workspace, heading_bins=72.5)
                ),
            ),
            (
                "search.max_iterations",
                lambda sc: dataclasses.replace(sc, search=dataclasses.replace(sc.search, max_iterations=True)),
            ),
        ],
        ids=[
            "omega_factor-inf", "start-theta-nan", "steer_hold-nan",
            "setvalue-2.5", "heading_bins-72.5", "max_iterations-True",
        ],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, forward_scenario, key, change):
        # the saver runs the loader's checks: it raises the loader's error,
        # naming the dotted key, and writes no file
        path = tmp_path / "bad.json"
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: "):
            save_scenario(change(forward_scenario), path)
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(config=search_configs())
    def test_save_writes_only_what_load_reads_back(self, tmp_path_factory, forward_scenario, config):
        scenario = dataclasses.replace(forward_scenario, search=config)
        path = tmp_path_factory.mktemp("save") / "scenario.json"
        try:
            save_scenario(scenario, path)
        except ScenarioError:
            assert not path.exists()
            return
        assert scenario_to_dict(load_scenario(path)) == scenario_to_dict(scenario)

    def test_loaded_obstacles_are_walls_then_extra_points(self):
        data = _forward_data()
        data["obstacles"]["extra_points"] = [[5.0, 5.0], [-3.25, 9.5], [0.1, 0.2]]
        scenario = scenario_from_dict(data)
        walls = _parking_walls(scenario.workspace, scenario.spot, scenario.goal, WALL_POINT_SPACING)
        assert scenario.extra_points.tolist() == data["obstacles"]["extra_points"]
        expected = np.concatenate((walls, scenario.extra_points))
        assert scenario.obstacles.points.dtype == np.float64
        assert np.array_equal(scenario.obstacles.points, expected)

    def test_library_int_points_become_float_pairs(self, forward_scenario):
        def build(points):
            return Scenario(
                workspace=forward_scenario.workspace,
                vehicle=forward_scenario.vehicle,
                    spot=forward_scenario.spot,
                start=forward_scenario.start,
                goal=forward_scenario.goal,
                extra_points=points,
            )

        from_ints = build([(5, 5), [-3, 9], (np.int64(2), 7)])
        from_floats = build(((5.0, 5.0), (-3.0, 9.0), (2.0, 7.0)))
        assert from_ints.extra_points.dtype == np.float64
        assert from_ints.extra_points.tobytes() == from_floats.extra_points.tobytes()
        assert np.array_equal(from_ints.obstacles.points, from_floats.obstacles.points)
        assert from_ints.obstacles.points.shape == (len(forward_scenario.obstacles) + 3, 2)
        with pytest.raises(ValueError):
            build([(1.0, 2.0, 3.0)])

    @pytest.mark.parametrize("entry", ["ObstacleSet", "Scenario"])
    @pytest.mark.parametrize(
        "points",
        [
            [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)],  # 6 values, not 3 points
            np.arange(6.0).reshape(2, 3),
            [1.0, 2.0, 3.0, 4.0],
            [(1.0, 2.0), (3.0,)],
            [(1.0, 2.0), (3.0, 4.0, 5.0)],
        ],
        ids=["three_columns", "three_column_array", "flat", "ragged_short", "ragged_long"],
    )
    def test_points_must_be_pairs(self, forward_scenario, entry, points):
        def build(points):
            if entry == "ObstacleSet":
                return ObstacleSet(points)
            return Scenario(
                workspace=forward_scenario.workspace,
                vehicle=forward_scenario.vehicle,
                spot=forward_scenario.spot,
                start=forward_scenario.start,
                goal=forward_scenario.goal,
                extra_points=points,
            )

        with pytest.raises(ValueError):
            build(points)

    def test_spotless_scenario(self):
        data = _forward_data()
        del data["spot"]
        data["obstacles"]["extra_points"] = [[0.0, 3.0]]
        loaded = scenario_from_dict(data)
        assert loaded.spot is None
        assert len(loaded.obstacles) == 1

    @pytest.mark.parametrize("name", ["forward_parking.json", "backward_parking.json"])
    def test_bundled_scenarios_are_valid(self, name, tmp_path):
        bundled = BUNDLED / name
        scenario = load_scenario(bundled)
        assert validate(scenario) == []
        assert scenario_to_dict(scenario) == json.loads(bundled.read_text())
        # key order too: the saver writes the shipped file back byte for byte
        saved = tmp_path / name
        save_scenario(scenario, saved)
        assert saved.read_bytes() == bundled.read_bytes()


class TestSchema:
    def test_each_section_is_one_dataclass(self, forward_scenario):
        # a file section's keys are the fields of the one object holding it,
        # in declared order
        data = scenario_to_dict(forward_scenario)
        holders = {
            ("workspace",): GridSpec,
            ("vehicle",): VehicleGeometry,
            ("start",): Pose,
            ("goal",): Pose,
            ("search",): SearchConfig,
            ("search", "penalties"): PenaltyConfig,
            ("spot",): SpotSpec,
        }
        for path, cls in holders.items():
            section = functools.reduce(operator.getitem, path, data)
            assert list(section) == [f.name for f in dataclasses.fields(cls)], path

    @settings(max_examples=200, deadline=None)
    @given(config=search_configs())
    def test_round_trip_keeps_every_search_field(self, forward_scenario, config):
        scenario = dataclasses.replace(forward_scenario, search=config)
        text = json.dumps(scenario_to_dict(scenario))
        loaded = scenario_from_dict(json.loads(text))
        assert loaded.search == config
        assert scenario_to_dict(loaded) == scenario_to_dict(scenario)

    CASES = [
        *(
            (section, key, bad)
            for section, key in (
                ("workspace", "x_max"),
                ("search", "omega_factor"),
                ("search", "arc_length"),
                ("start", "x"),
                ("obstacles", "extra_points"),
            )
            for bad in (math.nan, math.inf, -math.inf)
        ),
        ("search", "setvalue", 5.7),
        ("workspace", "heading_bins", 72.9),
        ("search", "max_iterations", 0.5),
        ("vehicle", "width", True),
        ("search", "setvalue", True),
        # an int beyond the float range
        pytest.param("workspace", "x_max", 10**400, id="workspace-x_max-10**400"),
    ]

    @staticmethod
    def _malformed(section, key, bad):
        data = _forward_data()
        if key == "extra_points":
            data["obstacles"]["extra_points"] = [[5.0, 5.0], [6.0, bad]]
            return data, "obstacles.extra_points[1]"
        data[section][key] = bad
        return data, f"{section}.{key}"

    @pytest.mark.parametrize("section, key, bad", CASES)
    def test_malformed_value_names_its_key(self, section, key, bad):
        data, dotted = self._malformed(section, key, bad)
        with pytest.raises(ScenarioError, match=re.escape(dotted)):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section, key, bad", CASES)
    def test_cli_validate_reports_malformed_value(self, tmp_path, section, key, bad):
        data, dotted = self._malformed(section, key, bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        proc = subprocess.run(
            [sys.executable, "-m", "mhhastar", "validate", "--scenario", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr and dotted in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("center_x", 19.0),  # the opening would end at x = 22.6 > 21
            ("center_x", -19.0),  # the opening would start at x = -22.6 < -21
            ("depth", 6.0),  # the floor would lie at y = -1.5 < -1
        ],
    )
    def test_spot_outside_workspace_is_one_error(self, tmp_path, key, value):
        data = _forward_data()
        data["spot"][key] = value
        with pytest.raises(ScenarioError, match=r"^spot: spot extends outside the workspace"):
            scenario_from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "mhhastar", "validate", "--scenario", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: spot: spot extends outside the workspace"]

    @pytest.mark.parametrize(
        "spot",
        [
            {"length": 8.0, "center_x": -17.0},  # opening starts at x = -21
            {"length": 8.0, "center_x": 17.0},  # opening ends at x = 21
            {"depth": 5.0},  # floor at y = -1
        ],
    )
    def test_spot_flush_with_workspace_loads(self, spot):
        data = _forward_data()
        data["spot"].update(spot)
        scenario = scenario_from_dict(data)
        assert not [line for line in validate(scenario) if "outside workspace" in line]

    def test_integral_floats_accepted_for_integer_keys(self):
        data = _forward_data()
        data["workspace"]["heading_bins"] = 72.0
        data["search"]["setvalue"] = 5.0
        scenario = scenario_from_dict(data)
        assert scenario.workspace.heading_bins == 72 and scenario.search.setvalue == 5
        assert type(scenario.search.setvalue) is int


def _node_paths(node, path=()):
    """Every key or index path below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, child in children:
        yield path + (k,)
        yield from _node_paths(child, path + (k,))


def _fuzz_base() -> dict:
    data = _forward_data()
    data["obstacles"]["extra_points"] = [[5.0, 5.0], [-3.0, 9.0]]
    return data


FUZZ_PATHS = list(_node_paths(_fuzz_base()))
BAD_VALUES = [math.nan, math.inf, -math.inf, "x", True, False, None, [], {}, 0.5, [1.0, 2.0]]


class TestLoaderFuzz:
    @staticmethod
    def _check(data):
        try:
            scenario = scenario_from_dict(data)
        except ScenarioError:
            return
        assert isinstance(validate(scenario), list)

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(FUZZ_PATHS), bad=st.sampled_from(BAD_VALUES))
    def test_replaced_leaf_raises_only_scenario_error(self, path, bad):
        data = _fuzz_base()
        parent = functools.reduce(operator.getitem, path[:-1], data)
        parent[path[-1]] = bad
        self._check(data)

    @pytest.mark.parametrize("path", FUZZ_PATHS, ids=lambda p: ".".join(map(str, p)))
    def test_deleted_key_raises_only_scenario_error(self, path):
        data = _fuzz_base()
        parent = functools.reduce(operator.getitem, path[:-1], data)
        del parent[path[-1]]
        self._check(data)
