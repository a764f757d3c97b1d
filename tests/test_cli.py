import dataclasses
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

from mhhastar.cli import _fmt, main, path_lines
from mhhastar.render import SCALE, render_svg
from mhhastar.scenario import save_scenario
from mhhastar.search import Termination
from mhhastar.vehicle import Gear

from conftest import SCENARIOS, make_open_scenario
from mhhastar.geometry import Pose


@pytest.fixture(scope="module")
def forward_file():
    return SCENARIOS / "forward_parking.json"


@pytest.fixture(scope="module")
def trapped_file(tmp_path_factory):
    # vehicle boxed in, goal unreachable
    pts = []

    def wall(x0, y0, x1, y1, sp=0.05):
        n = max(1, math.ceil(math.hypot(x1 - x0, y1 - y0) / sp))
        pts.extend((x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n) for k in range(n + 1))

    cx = 1.35
    wall(cx - 2.6, -1.2, cx + 2.6, -1.2)
    wall(cx - 2.6, 1.2, cx + 0.5, 1.2)
    wall(cx + 0.9, 1.2, cx + 2.6, 1.2)
    wall(cx - 2.6, -1.2, cx - 2.6, 1.2)
    wall(cx + 2.6, -1.2, cx + 2.6, 1.2)
    scenario = make_open_scenario(Pose(0, 0, 0), Pose(5, 5, 0), pts, size=8.0)
    path = tmp_path_factory.mktemp("scenarios") / "trapped.json"
    save_scenario(scenario, path)
    return path


class TestPlan:
    def test_plan_success_contract(self, forward_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        report = tmp_path / "report.json"
        pathfile = tmp_path / "path.txt"
        code = main([
            "plan", "--scenario", str(forward_file), "--planner", "mhha",
            "--svg", str(svg), "--path-out", str(pathfile), "--json", str(report),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "path_length=" in captured.out
        assert "nodes_expanded=" in captured.out
        assert "heuristic_evaluations=" in captured.out
        data = json.loads(report.read_text())
        assert data["planner"] == "mhha"
        assert data["metrics"]["found"] is True
        assert data["metrics"]["heuristic_evaluations"] > 0
        lines = pathfile.read_text().splitlines()
        assert len(lines) > 10
        x, y, theta, gear = lines[0].split()
        assert gear in {"F", "R"}
        float(x), float(y), float(theta)
        assert svg.exists()

    def test_plan_path_to_stdout(self, forward_file, capsys):
        code = main(["plan", "--scenario", str(forward_file), "--planner", "hybrid"])
        out = capsys.readouterr().out
        assert code == 0
        assert any(line.endswith((" F", " R")) for line in out.splitlines())

    def test_no_solution_exit_2(self, trapped_file, capsys):
        code = main(["plan", "--scenario", str(trapped_file), "--planner", "mhha"])
        assert code == 2
        assert "no solution" in capsys.readouterr().out

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["plan", "--scenario", str(bad), "--planner", "mhha"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_exit_1(self, tmp_path, forward_file, capsys):
        data = json.loads(forward_file.read_text())
        data["search"]["omega_factor"] = 0.25
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        code = main(["plan", "--scenario", str(bad), "--planner", "mhha"])
        assert code == 1
        assert "omega_factor" in capsys.readouterr().err

    def test_usage_error_exit_1(self, forward_file, capsys):
        # 2 is reserved for "no solution"
        assert main(["plan", "--scenario", str(forward_file)]) == 1
        assert "--planner" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["plan", "--help"]) == 0
        assert "--path-out" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--json", "--path-out", "--svg", "--out"])
    def test_unwritable_output_exit_1(self, option, forward_file, tmp_path, capsys):
        if option == "--out":
            # compare writes into an existing directory where a directory
            # stands in the way of the MHHA* figure
            (tmp_path / "mhha.svg").mkdir()
            args = ["compare", "--scenario", str(forward_file), "--out", str(tmp_path)]
        else:
            target = tmp_path / "missing" / "out"
            args = ["plan", "--scenario", str(forward_file), "--planner", "mhha"]
            args += [option, str(target)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["validate"], ["plan", "--planner", "mhha"]], ids=["validate", "plan"]
    )
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{\x00}\x00", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-100000-deep"],
    )
    def test_undecodable_file_exit_1(self, command, content, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command[0], "--scenario", str(bad), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["validate"], ["plan", "--planner", "mhha"]], ids=["validate", "plan"]
    )
    @pytest.mark.parametrize(
        "workspace, keep_spot, message",
        [
            ({"x_max": 1e308}, True, "workspace: workspace must span a finite number of cells"),
            ({"x_max": 1e308}, False, "workspace: workspace must span a finite number of cells"),
            (
                {"x_max": 1e308, "cell_size": 1.0},
                True,
                "workspace: workspace must span fewer cells than an array can index",
            ),
            (
                {"x_max": 1e308, "cell_size": 1e306},
                True,
                "spot: workspace too large to sample its walls",
            ),
            (
                {"x_max": 1e30},
                False,
                "workspace: workspace must span fewer cells than an array can index",
            ),
            (
                {"x_max": 1e30, "cell_size": 1e28},
                True,
                "spot: workspace too large to sample its walls",
            ),
        ],
        ids=[
            "x_max-1e308",
            "x_max-1e308-no-spot",
            "x_max-1e308-cell-1",
            "x_max-1e308-cell-1e306",
            "x_max-1e30-no-spot",
            "x_max-1e30-cell-1e28",
        ],
    )
    def test_huge_finite_workspace_exit_1(
        self, command, workspace, keep_spot, message, tmp_path, forward_file, capsys
    ):
        # every bound is finite, but the cell count (x span / cell_size) or
        # the top wall's sample count (x span / 0.1 m) overflows a float, or
        # is finite but more than a numpy array can index; the grid is
        # checked before the walls are sampled
        data = json.loads(forward_file.read_text())
        data["workspace"].update(workspace)
        if not keep_spot:
            del data["spot"]
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))
        assert main([command[0], "--scenario", str(bad), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestValidateCommand:
    def test_valid_scenario(self, forward_file, capsys):
        assert main(["validate", "--scenario", str(forward_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations_listed(self, tmp_path, forward_file, capsys):
        data = json.loads(forward_file.read_text())
        data["search"]["omega_factor"] = 0.25
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "omega_factor < 1" in err
        # one report for an invalid scenario, from validate as from plan
        assert err == f"error: {bad}: invalid scenario:\n  omega_factor < 1\n"
        assert main(["plan", "--scenario", str(bad), "--planner", "mhha"]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("arc_length", [0.0, -1.0])
    def test_non_positive_arc_length_loads_and_is_refused(
        self, arc_length, tmp_path, forward_file, capsys
    ):
        # the loader takes any finite number; the arc length's rule is
        # `validate`'s, as every search config rule is
        data = json.loads(forward_file.read_text())
        data["search"]["arc_length"] = arc_length
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--scenario", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"arc_length {arc_length} does not exceed the cell diagonal 0.4243" in err


def _table(printed: str) -> dict[str, tuple[str, str]]:
    """The compare table's rows: label -> (MHHA* cell, Hybrid A* cell)."""
    return {
        line[:28].strip(): (line[28:44].strip(), line[44:].strip())
        for line in printed.splitlines()
    }


class TestCompare:
    def test_compare_outputs(self, forward_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(forward_file), "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        for row in (
            "Number of Extended Nodes",
            "Number of Iterations",
            "Extension Time (s)",
            "Path lengths (m)",
        ):
            assert row in printed
        report = json.loads((out / "report.json").read_text())
        assert set(report["planners"]) == {"mhha", "hybrid"}
        for name in ("mhha", "hybrid"):
            metrics = report["planners"][name]
            path_text = (out / f"{name}_path.txt").read_text()
            assert metrics["found"] is True
            assert len(path_text.splitlines()) > 10
            ET.fromstring((out / f"{name}.svg").read_text())

    def test_compare_no_solution_column(self, trapped_file, tmp_path, capsys):
        out = tmp_path / "cmp_trapped"
        code = main(["compare", "--scenario", str(trapped_file), "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 2
        assert "no solution" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["planners"]["mhha"]["found"] is False
        assert report["planners"]["mhha"]["path_length"] is None

    def test_table_cells_are_the_results(self, forward_file, tmp_path, capsys, benchmark_results):
        main(["compare", "--scenario", str(forward_file), "--out", str(tmp_path / "cmp")])
        table = _table(capsys.readouterr().out)
        results = [benchmark_results[("forward", name)] for name in ("mhha", "hybrid")]
        for label, attr in (
            ("Number of Extended Nodes", "nodes_expanded"),
            ("Number of Iterations", "iterations"),
            ("Path lengths (m)", "path_length"),
        ):
            assert table[label] == tuple(_fmt(getattr(r, attr)) for r in results)

    def test_table_path_row_without_solutions(self, trapped_file, tmp_path, capsys):
        main(["compare", "--scenario", str(trapped_file), "--out", str(tmp_path / "cmp")])
        assert _table(capsys.readouterr().out)["Path lengths (m)"] == ("no solution",) * 2

    def test_metrics_copied_verbatim(self, forward_file, tmp_path, benchmark_results):
        out = tmp_path / "cmp"
        main(["compare", "--scenario", str(forward_file), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        fresh = benchmark_results[("forward", "mhha")]
        # deterministic planner: independently computed metrics match exactly
        assert report["planners"]["mhha"]["nodes_expanded"] == fresh.nodes_expanded
        assert report["planners"]["mhha"]["iterations"] == fresh.iterations
        assert report["planners"]["mhha"]["path_length"] == fresh.path_length
        assert (
            report["planners"]["mhha"]["heuristic_evaluations"] == fresh.heuristic_evaluations
        )


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, forward_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "mhhastar", "validate", "--scenario", str(forward_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout


class TestRender:
    def test_svg_without_results(self, forward_scenario):
        doc = render_svg(forward_scenario)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")

    def test_svg_deterministic(self, forward_scenario, benchmark_results):
        result = benchmark_results[("forward", "mhha")]
        assert render_svg(forward_scenario, result) == render_svg(forward_scenario, result)

    def test_svg_has_path_and_tail(self, forward_scenario, benchmark_results):
        result = benchmark_results[("forward", "mhha")]
        doc = render_svg(forward_scenario, result)
        assert doc.count("<polyline") >= 2  # driven part plus analytic tail

    @pytest.mark.parametrize("drop_tail", [False, True], ids=["with-tail", "no-tail"])
    @pytest.mark.parametrize("case", [(s, p) for s in ("forward", "backward") for p in ("mhha", "hybrid")])
    def test_svg_polylines_are_the_path_samples(
        self, forward_scenario, backward_scenario, benchmark_results, case, drop_tail
    ):
        # the drive's polyline, then the tail's after the pose they share,
        # are exactly `result.path`, scaled and printed to 0.01 px
        scenario = {"forward": forward_scenario, "backward": backward_scenario}[case[0]]
        result = benchmark_results[case]
        if drop_tail:
            result = dataclasses.replace(result, tail=None)
        ws = scenario.workspace
        lines = [
            e.get("points").split()
            for e in ET.fromstring(render_svg(scenario, result)).iter()
            if e.tag.endswith("polyline")
        ]
        assert len(lines) == (1 if result.tail is None else 2)
        drawn = lines[0] + [p for line in lines[1:] for p in line[1:]]
        assert drawn == [
            f"{(p.x - ws.x_min) * SCALE:.2f},{(ws.y_max - p.y) * SCALE:.2f}" for p, _ in result.path
        ]

    def test_svg_size_follows_scale(self, forward_scenario):
        root = ET.fromstring(render_svg(forward_scenario))
        ws = forward_scenario.workspace
        assert float(root.get("width")) == round((ws.x_max - ws.x_min) * SCALE)
        assert float(root.get("height")) == round((ws.y_max - ws.y_min) * SCALE)

    def test_svg_draws_tree_from_result_trace(self, forward_scenario, benchmark_results):
        result = benchmark_results[("forward", "mhha")]
        traced = render_svg(forward_scenario, result)
        untraced = render_svg(forward_scenario, dataclasses.replace(result, trace=None))
        # one tree edge per expansion except the root's
        assert traced.count("<line ") == len(result.trace) - 1
        assert untraced.count("<line ") == 0

    def test_path_lines_format(self, benchmark_results):
        result = benchmark_results[("forward", "mhha")]
        lines = path_lines(result).splitlines()
        assert len(lines) == len(result.path)
        for line in lines:
            x, y, theta, gear = line.split()
            float(x), float(y), float(theta)
            assert gear in {"F", "R"}
        assert result.termination is Termination.RS_SHORTCUT
        gears = {g for _, g in result.path}
        assert gears <= {Gear.FORWARD, Gear.REVERSE}


# sha256 of the `compare` outputs for the four benchmark runs: the path text
# and the SVG, which draws the whole expansion tree in expansion order.
# Refactors that must keep every search decision keep these bytes.
PINNED_OUTPUT_SHA256 = {
    ("forward", "mhha"): (
        "a199e7aa5d4458d41a1a1d2e2bfd79c622186c3139cebc4dcbe9777ce3a5e1f8",
        "d413636ac37620a00e82b9f8692544159ac17dbd62134818b29012f1d7ad561b",
    ),
    ("forward", "hybrid"): (
        "ad2361e80ffda0a00ccab531406176d9cd78eeb653cb8ddae2b6c0c0baccb5f0",
        "82ece78a523814742051dbe78061113305c6f9677d92fd0bc65f03a01a629ecd",
    ),
    ("backward", "mhha"): (
        "8af4cbc2557f6ef84f4068d533b5d95b0e52cd5fabd205f5e98e74741f716d51",
        "58ab316ee916ec2076e258e14d4fe16af7ed1d9a6f85498add1b63c963d2e2ba",
    ),
    ("backward", "hybrid"): (
        "319965393ad8f7cc98c7700d903422430644ce953d3c45c1ca3aa9c58770a147",
        "399363a00b4365c1b2be09cd2512c4c5fcc941b8f7f0a89bdac7a47922420bf2",
    ),
}


def test_benchmark_outputs_byte_identical(forward_scenario, backward_scenario, benchmark_results):
    scenarios = {"forward": forward_scenario, "backward": backward_scenario}
    for case, (path_sha, svg_sha) in PINNED_OUTPUT_SHA256.items():
        result = benchmark_results[case]
        svg = render_svg(scenarios[case[0]], result)
        assert hashlib.sha256(path_lines(result).encode()).hexdigest() == path_sha, case
        assert hashlib.sha256(svg.encode()).hexdigest() == svg_sha, case


def test_readme_library_example_runs(monkeypatch, capsys):
    # the fenced python block under "## Library", run from the repo root
    root = SCENARIOS.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(root)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Termination.")
