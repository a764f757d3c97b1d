"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They check the harness, not the planner's speed: generators repeat per
seed, the independent checker catches a colliding path and passes the
shipped scenarios' paths, the tracer refuses to run without a layer, and a
run prints every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mhhastar import hybrid_a_star, mhha_star  # noqa: E402
from mhhastar.scenario import scenario_from_dict  # noqa: E402


def _first(workload: str, seed: int, n: int = 3):
    return list(itertools.islice(workloads.WORKLOADS[workload](ROOT, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_repeats_for_same_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)


@pytest.mark.parametrize("workload", ["cluttered-parking", "large-lot-short-hop"])
def test_generator_depends_on_seed(workload):
    assert _first(workload, 7) != _first(workload, 8)


def _poses(result) -> np.ndarray:
    return np.array([(p.x, p.y, p.theta) for p, _ in result.path])


def test_checker_flags_pose_inside_wall():
    data = workloads.load_shipped(ROOT)["forward"]
    scenario = scenario_from_dict(data)
    goal = data["goal"]
    sunk = np.array([[goal["x"], goal["y"] - 1.0, goal["theta"]]])  # through the spot floor
    assert checker.colliding_samples(sunk, scenario.obstacles.points, data["vehicle"]).tolist() == [0]


def test_checker_rejects_colliding_path():
    data = workloads.load_shipped(ROOT)["forward"]
    scenario = scenario_from_dict(data)
    start, goal = data["start"], data["goal"]
    # straight 0.1 m steps from start to goal, cutting through the wall
    n = math.ceil(math.hypot(goal["x"] - start["x"], goal["y"] - start["y"]) / 0.1)
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    poses = np.hstack(
        [
            start["x"] + t * (goal["x"] - start["x"]),
            start["y"] + t * (goal["y"] - start["y"]),
            np.zeros_like(t),
        ]
    )
    reason = checker.check_path(data, scenario.obstacles.points, poses, True, 12.0)
    assert reason == "collision"


@pytest.mark.parametrize("name", ["forward", "backward"])
@pytest.mark.parametrize("planner", ["mhha", "hybrid"])
def test_checker_accepts_shipped_paths(name, planner):
    data = workloads.load_shipped(ROOT)[name]
    scenario = scenario_from_dict(data)
    plan = mhha_star if planner == "mhha" else hybrid_a_star
    result = plan(scenario.start, scenario.goal, scenario)
    reason = checker.check_path(
        data,
        scenario.obstacles.points,
        _poses(result),
        result.termination.value == "rs_shortcut",
        result.path_length,
        workloads.PUBLISHED_LENGTH_M[(name, planner)],
    )
    assert reason is None
    nodes, iterations, length = workloads.REFERENCE_COUNTS[(name, planner)]
    assert (result.nodes_expanded, result.iterations) == (nodes, iterations)
    assert result.path_length == pytest.approx(length, abs=5e-4)


def test_tracer_refuses_missing_layer(monkeypatch):
    import mhhastar.search

    monkeypatch.delattr(mhhastar.search, "step_cost")
    with pytest.raises(tracer.LayerMissing, match="step_cost"):
        tracer.Tracer()


def test_tracer_restores_originals():
    import mhhastar.search

    original = mhhastar.search.vehicle_collides
    t = tracer.Tracer()
    data = workloads.load_shipped(ROOT)["backward"]
    scenario = scenario_from_dict(data)
    t.plan(mhha_star, scenario.start, scenario.goal, scenario)
    assert mhhastar.search.vehicle_collides is original
    assert t.calls["plan"] == 1 and t.calls["geometry.ObstacleSet.query"] > 0
    assert sum(t.self_s.values()) > 0.0


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("large-lot-short-hop", 0), ("large-lot-short-hop", 1), ("paper-parking", 1)],
)
def test_output_names_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    report = "\n".join(lines[:-1])
    for m in wanted:
        assert f"\n{m['name']} " in report
    assert "missing" not in report


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("paper-parking", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_keeps_ten_samples_beyond():
    import run

    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50, 10)
    value, pct, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
