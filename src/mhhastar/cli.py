"""Benchmark command line: plan a single scenario, compare both planners, or
validate a scenario file.

Exit codes are the machine contract: 0 = path found / valid, 2 = no solution,
1 = any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .render import render_svg
from .scenario import ScenarioError, Scenario, load_scenario, scenario_to_dict, validate
from .search import PlanResult, SearchLimitError, hybrid_a_star, mhha_star

_PLANNERS = {"mhha": mhha_star, "hybrid": hybrid_a_star}

_TABLE_ROWS = (
    ("Number of Extended Nodes", "nodes_expanded"),
    ("Number of Iterations", "iterations"),
    ("Extension Time (s)", "extension_time"),
    ("Path lengths (m)", "path_length"),
)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def path_lines(result: PlanResult) -> str:
    return "".join(
        f"{pose.x:.6f} {pose.y:.6f} {pose.theta:.6f} {gear.label}\n"
        for pose, gear in result.path
    )


def _metrics_dict(result: PlanResult) -> dict:
    return {
        "found": result.found,
        "termination": result.termination.value,
        "nodes_expanded": result.nodes_expanded,
        "iterations": result.iterations,
        "heuristic_evaluations": result.heuristic_evaluations,
        "extension_time": result.extension_time,
        "setup_time": result.setup_time,
        "path_length": None if math.isinf(result.path_length) else result.path_length,
        "cost": None if math.isinf(result.cost) else result.cost,
    }


def _print_metrics(result: PlanResult) -> None:
    for key, value in _metrics_dict(result).items():
        print(f"{key}={_fmt(value) if value is not None else 'no solution'}")


def _load_checked(path: str) -> Scenario:
    scenario = load_scenario(path)
    violations = validate(scenario)
    if violations:
        raise ScenarioError(
            f"{path}: invalid scenario:\n  " + "\n  ".join(violations)
        )
    return scenario


def cmd_plan(args: argparse.Namespace) -> int:
    scenario = _load_checked(args.scenario)
    planner = _PLANNERS[args.planner]
    result = planner(scenario.start, scenario.goal, scenario, trace=bool(args.svg))
    if args.json:
        report = {
            "scenario": args.scenario,
            "planner": args.planner,
            "config": scenario_to_dict(scenario)["search"],
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "metrics": _metrics_dict(result),
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if result.found and args.path_out:
        Path(args.path_out).write_text(path_lines(result), encoding="utf-8")
    if result.found and args.svg:
        Path(args.svg).write_text(render_svg(scenario, result), encoding="utf-8")
    if not result.found:
        print("no solution")
        return 2
    if not args.path_out:
        sys.stdout.write(path_lines(result))
    _print_metrics(result)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
    scenario = _load_checked(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, PlanResult] = {}
    for name, planner in _PLANNERS.items():
        results[name] = planner(scenario.start, scenario.goal, scenario, trace=args.trace)

    for name, result in results.items():
        if result.found:
            (out_dir / f"{name}_path.txt").write_text(path_lines(result), encoding="utf-8")
        (out_dir / f"{name}.svg").write_text(render_svg(scenario, result), encoding="utf-8")

    # Metrics are copied verbatim from the planner results, never recomputed.
    report = {
        "scenario": args.scenario,
        "config": scenario_to_dict(scenario)["search"],
        "started_at": started_at,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "planners": {name: _metrics_dict(result) for name, result in results.items()},
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    header = f"{'Performance':<28}{'MHHA*':<16}{'Hybrid A*':<16}"
    print(header)
    for label, attr in _TABLE_ROWS:
        cells = []
        for name in ("mhha", "hybrid"):
            result = results[name]
            if not result.found and attr == "path_length":
                cells.append("no solution")
            else:
                cells.append(_fmt(getattr(result, attr)))
        print(f"{label:<28}{cells[0]:<16}{cells[1]:<16}")
    return 0 if all(r.found for r in results.values()) else 2


def cmd_validate(args: argparse.Namespace) -> int:
    violations = validate(load_scenario(args.scenario))
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhhastar",
        description="Multi-heuristic hybrid A* parking planner benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run one planner on a scenario file")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--planner", required=True, choices=sorted(_PLANNERS))
    plan.add_argument("--svg", help="write an SVG figure to this path")
    plan.add_argument("--path-out", help="write the path text here instead of stdout")
    plan.add_argument("--json", help="write a JSON metrics report to this path")
    plan.set_defaults(func=cmd_plan)

    compare = sub.add_parser("compare", help="run both planners and tabulate metrics")
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--out", required=True, help="output directory")
    compare.add_argument("--trace", action="store_true")
    compare.set_defaults(func=cmd_compare)

    check = sub.add_parser("validate", help="check a scenario file")
    check.add_argument("--scenario", required=True)
    check.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help exits 0, a usage error 2; 2 means "no solution" here
        return 1 if e.code else 0
    try:
        return args.func(args)
    except (ScenarioError, SearchLimitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
