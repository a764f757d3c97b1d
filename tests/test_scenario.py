import dataclasses
import functools
import json
import math
import operator
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar.geometry import ObstacleSet, Pose, vehicle_collides
from mhhastar.scenario import (
    Scenario,
    ScenarioError,
    SpotSpec,
    WALL_POINT_SPACING,
    _parking_walls,
    backward_parking_scenario,
    build_parallel_parking,
    forward_parking_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from mhhastar.search import SearchConfig
from mhhastar.vehicle import MotionPrimitiveSet, PenaltyConfig


class TestBuild:
    def test_benchmark_layout(self, forward_scenario):
        ws = forward_scenario.workspace
        assert (ws.x_min, ws.x_max, ws.y_min, ws.y_max) == (-21.0, 21.0, -1.0, 11.0)
        assert forward_scenario.spot == SpotSpec(3.0, 7.2, 0.0)
        assert forward_scenario.goal == Pose(-1.35, 1.5, 0.0)
        assert forward_scenario.start == Pose(-9.0, 8.0, 0.0)
        assert backward_parking_scenario().start == Pose(12.0, 8.0, 0.0)

    def test_goal_is_collision_free(self, forward_scenario):
        assert not vehicle_collides(
            forward_scenario.goal, forward_scenario.vehicle, forward_scenario.obstacles
        )

    def test_no_violations(self, forward_scenario, backward_scenario):
        assert validate(forward_scenario) == []
        assert validate(backward_scenario) == []

    def test_deterministic(self):
        a = forward_parking_scenario()
        b = forward_parking_scenario()
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
            build_parallel_parking(
                workspace=forward_scenario.workspace,
                vehicle=forward_scenario.vehicle,
                limits=forward_scenario.limits,
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
        prim = dataclasses.replace(
            forward_scenario.search.primitives, steering_angles=(-0.9, 0.0, 0.9)
        )
        cfg = dataclasses.replace(forward_scenario.search, primitives=prim)
        bad = dataclasses.replace(forward_scenario, search=cfg)
        assert any("exceeds phi_max" in v for v in validate(bad))

    def test_out_of_workspace_obstacles_flagged(self, forward_scenario):
        bad = dataclasses.replace(
            forward_scenario, start=Pose(-25.0, 8.0, 0.0)
        )
        assert any("start outside workspace" in v for v in validate(bad))


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
        data = scenario_to_dict(forward_parking_scenario())
        data["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown key.*surprise"):
            scenario_from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = scenario_to_dict(forward_parking_scenario())
        data["search"]["penalties"]["steer_bonus"] = 1.0
        with pytest.raises(ScenarioError, match="search.penalties.*steer_bonus"):
            scenario_from_dict(data)

    def test_missing_section_diagnostic(self):
        data = scenario_to_dict(forward_parking_scenario())
        del data["vehicle"]
        with pytest.raises(ScenarioError, match="scenario.vehicle"):
            scenario_from_dict(data)

    def test_type_error_diagnostic(self):
        data = scenario_to_dict(forward_parking_scenario())
        data["goal"]["x"] = "left"
        with pytest.raises(ScenarioError, match="goal.x"):
            scenario_from_dict(data)

    def test_constructor_errors_carry_section(self):
        data = scenario_to_dict(forward_parking_scenario())
        data["vehicle"]["width"] = -1.0
        with pytest.raises(ScenarioError, match="vehicle"):
            scenario_from_dict(data)

    def test_list_fields_must_be_numeric_lists(self):
        data = scenario_to_dict(forward_parking_scenario())
        data["search"]["inflation_factors"] = "big"
        with pytest.raises(ScenarioError, match="inflation_factors"):
            scenario_from_dict(data)
        data = scenario_to_dict(forward_parking_scenario())
        data["search"]["steering_angles"] = [0.1, "hard-left"]
        with pytest.raises(ScenarioError, match="steering_angles"):
            scenario_from_dict(data)
        data = scenario_to_dict(forward_parking_scenario())
        data["obstacles"]["extra_points"] = [[1.0]]
        with pytest.raises(ScenarioError, match=r"extra_points\[0\]"):
            scenario_from_dict(data)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"workspace": {,}\n')
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_extra_points_round_trip(self, tmp_path):
        scenario = build_parallel_parking(
            workspace=forward_parking_scenario().workspace,
            vehicle=forward_parking_scenario().vehicle,
            limits=forward_parking_scenario().limits,
            spot=SpotSpec(3.0, 7.2, 0.0),
            start=Pose(-9, 8, 0),
            goal=Pose(-1.35, 1.5, 0),
            extra_points=[(5.0, 5.0), (-3.0, 9.0)],
        )
        path = tmp_path / "extra.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.extra_points == ((5.0, 5.0), (-3.0, 9.0))
        assert len(loaded.obstacles) == len(scenario.obstacles)

    def test_spotless_scenario(self):
        data = scenario_to_dict(forward_parking_scenario())
        del data["spot"]
        data["obstacles"]["extra_points"] = [[0.0, 3.0]]
        loaded = scenario_from_dict(data)
        assert loaded.spot is None
        assert len(loaded.obstacles) == 1

    @pytest.mark.parametrize("name", ["forward_parking.json", "backward_parking.json"])
    def test_bundled_scenarios_are_valid(self, name):
        bundled = pathlib.Path(__file__).parent.parent / "scenarios" / name
        scenario = load_scenario(bundled)
        assert validate(scenario) == []
        assert scenario_to_dict(scenario) == json.loads(bundled.read_text())


BUNDLED = pathlib.Path(__file__).parent.parent / "scenarios"

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


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
        primitives=MotionPrimitiveSet(
            arc_length=draw(st.floats(min_value=1e-6, max_value=1e6)),
            steering_angles=tuple(draw(st.lists(finite, max_size=5))),
        ),
        inflation_factors=tuple(draw(st.lists(finite, max_size=4))),
    )


class TestSchema:
    @settings(max_examples=200, deadline=None)
    @given(config=search_configs())
    def test_round_trip_keeps_every_search_field(self, config):
        scenario = dataclasses.replace(forward_parking_scenario(), search=config)
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
        data = json.loads((BUNDLED / "forward_parking.json").read_text())
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
        data = json.loads((BUNDLED / "forward_parking.json").read_text())
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
        data = json.loads((BUNDLED / "forward_parking.json").read_text())
        data["spot"].update(spot)
        scenario = scenario_from_dict(data)
        assert not [line for line in validate(scenario) if "outside workspace" in line]

    def test_integral_floats_accepted_for_integer_keys(self):
        data = json.loads((BUNDLED / "forward_parking.json").read_text())
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
    data = json.loads((BUNDLED / "forward_parking.json").read_text())
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
