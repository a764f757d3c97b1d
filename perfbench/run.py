"""Closed-loop benchmark of the parking planner, driven through its public API.

    python3 perfbench/run.py --workload paper-parking --seed 1 --seconds 50 --trace 0

One process and one caller: each query (build the scenario, validate it,
plan, check the returned path) starts when the previous one has returned.
With --trace 0 the run prints the end-to-end metrics. With --trace 1 every
query runs twice, untraced and then traced, and the run prints the
per-layer metrics; end-to-end figures never come from a traced plan.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Run it from a checkout that holds `src/mhhastar` and `scenarios/`; without
them it exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # one BLAS thread; must precede the first numpy import

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
from checker import check_path
from workloads import REFERENCE_COUNTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

# (name, unit). --trace 0 reports END_TO_END, --trace 1 reports PER_LAYER.
END_TO_END = (
    ("plan_s.p50", "s"),
    ("plan_s.tail", "s"),
    ("extension_s.p50", "s"),
    ("setup_s", "s"),
    ("plans_per_s", "1/s"),
    ("path_length_m", "m"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Timed spans per layer, as named in tracer.TARGETS, with the extra
# per-call figure each one reports.
SPAN_METRICS = (
    ("reeds_shepp.heuristic", ("us_per_call",)),
    ("reeds_shepp.analytic", ()),
    ("reeds_shepp.rs_collision_free", ("success_ratio",)),
    ("geometry.vehicle_collides.search", ("hit_ratio",)),
    ("geometry.vehicle_collides.analytic", ("hit_ratio",)),
    ("geometry.ObstacleSet.query", ("points_per_query",)),
    ("heuristics.anchor", ()),
    ("heuristics.h_holonomic", ()),
    ("vehicle.successors", ()),
    ("vehicle.step_cost", ()),
    ("vehicle.advance_arc", ()),
)
LAYERS = ("reeds_shepp", "geometry", "heuristics", "grid", "vehicle", "search")
EXTRA_UNITS = {
    "us_per_call": "us",
    "success_ratio": "ratio",
    "hit_ratio": "ratio",
    "points_per_query": "points",
}

PER_LAYER = (
    *(
        metric
        for span, extras in SPAN_METRICS
        for metric in (
            (f"{span}.calls", "calls/plan"),
            (f"{span}.self_s", "s/plan"),
            *((f"{span}.{extra}", EXTRA_UNITS[extra]) for extra in extras),
        )
    ),
    ("grid.build_occupancy.self_s", "s/plan"),
    ("grid.dijkstra_field.self_s", "s/plan"),
    ("grid.cells", "cells"),
    ("grid.reachable_cells", "cells"),
    ("search.nodes_expanded", "count/plan"),
    ("search.iterations", "count/plan"),
    ("search.us_per_expansion", "us"),
    ("search.heap_pushes", "calls/plan"),
    ("search.stale_pops", "calls/plan"),
    ("search.self_s", "s/plan"),
    ("search.rs_shortcut_ratio", "ratio"),
    ("scenario.build_s", "s"),
    ("scenario.validate_s", "s"),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    ("trace.overhead", "ratio"),
)


@dataclasses.dataclass
class Outcome:
    """One query as the caller saw it."""

    label: str
    rejected: bool = False
    build_s: float = 0.0
    validate_s: float = 0.0
    plan_s: float = 0.0
    result: object = None  # PlanResult, when the planner returned
    reason: str | None = None  # failure reason, None on success
    obstacle_points: int = 0
    cells: int = 0

    @property
    def setup_s(self) -> float:
        return self.build_s + self.validate_s + self.result.setup_time


class Runner:
    """Builds, validates, plans and checks one query at a time."""

    def __init__(self, tracer=None):
        from mhhastar import SearchLimitError, Termination, hybrid_a_star, mhha_star
        from mhhastar.scenario import scenario_from_dict, validate

        self._planners = {"mhha": mhha_star, "hybrid": hybrid_a_star}
        self._limit_error = SearchLimitError
        self._shortcut = Termination.RS_SHORTCUT
        self._build = scenario_from_dict
        self._validate = validate
        self.tracer = tracer
        self.errors_shown = 0

    def __call__(self, query, traced: bool = False) -> Outcome:
        out = Outcome(query.label)
        t0 = time.perf_counter()
        scenario = self._build(query.scenario)
        t1 = time.perf_counter()
        problems = self._validate(scenario)
        t2 = time.perf_counter()
        out.build_s, out.validate_s = t1 - t0, t2 - t1
        out.obstacle_points = len(scenario.obstacles)
        out.cells = scenario.workspace.nx * scenario.workspace.ny
        if problems:
            out.rejected = True
            return out
        plan = self._planners[query.planner]
        config = None
        if query.max_iterations is not None:
            config = dataclasses.replace(scenario.search, max_iterations=query.max_iterations)
        args = (scenario.start, scenario.goal, scenario, config)
        t3 = time.perf_counter()
        try:
            out.result = self.tracer.plan(plan, *args) if traced else plan(*args)
        except self._limit_error:
            out.reason = "limit"
        except Exception:  # any planner crash is a counted failure, not a stop
            out.reason = "error"
            if self.errors_shown < 3:
                self.errors_shown += 1
                traceback.print_exc(file=sys.stderr)
        out.plan_s = time.perf_counter() - t3
        if out.result is not None:
            if not out.result.found:
                out.reason = "no_solution"
            else:
                poses = np.array([(p.x, p.y, p.theta) for p, _ in out.result.path])
                out.reason = check_path(
                    query.scenario,
                    scenario.obstacles.points,
                    poses,
                    out.result.termination is self._shortcut,
                    out.result.path_length,
                    query.published_length_m,
                )
        return out


def run_loop(stream, seconds: float, step) -> list:
    """Closed loop: whole batches (a paper round, or one generated query)
    until `seconds` have passed; step(query) returns that query's record."""
    records = []
    t_start = time.perf_counter()
    for batch in stream:
        records += [step(query) for query in batch]
        if time.perf_counter() - t_start >= seconds:
            return records
    return records


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile of
    the samples with at least ten samples above it (all there are when n <= 10)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], math.floor(100 * (idx + 1) / n), n - 1 - idx


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_0(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """Metric values and their annotations (sample counts, bases)."""
    attempted = [o for o in outcomes if not o.rejected]
    returned = [o for o in attempted if o.result is not None]
    ok = [o for o in attempted if o.reason is None]
    plan = [o.plan_s for o in attempted]
    tail_value, tail_pct, beyond = tail(plan)
    query_s = sum(o.build_s + o.validate_s + o.plan_s for o in attempted)
    values = {
        "plan_s.p50": statistics.median(plan),
        "plan_s.tail": tail_value,
        "extension_s.p50": median_or_0(o.result.extension_time for o in returned),
        "setup_s": median_or_0(o.setup_s for o in returned),
        "plans_per_s": ratio(len(ok), query_s),
        "path_length_m": ratio(sum(o.result.path_length for o in ok), len(ok)),
        "success_rate": ratio(len(ok), len(attempted)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "plan_s.p50": f"n={len(plan)}",
        "plan_s.tail": f"p{tail_pct} n={len(plan)} beyond={beyond}",
        "extension_s.p50": f"n={len(returned)}",
        "setup_s": f"n={len(returned)} (build + validate + PlanResult.setup_time)",
        "plans_per_s": f"{len(ok)} ok / {query_s:.3f} s of build+validate+plan",
        "path_length_m": f"mean of n={len(ok)}",
        "success_rate": f"{len(ok)}/{len(attempted)}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def per_layer(pairs: list[tuple[Outcome, Outcome]], tracer) -> tuple[dict, dict]:
    """Per-layer figures per traced plan, from the tracer's totals."""
    traced = [t for _, t in pairs if not t.rejected]
    n = len(traced)
    calls, self_s, measured = tracer.calls, tracer.self_s, tracer.measured
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for span, extras in SPAN_METRICS:
        values[f"{span}.calls"] = calls[span] / n
        values[f"{span}.self_s"] = self_s[span] / n
        for extra in extras:
            base = calls[span]
            num = self_s[span] * 1e6 if extra == "us_per_call" else measured[span]
            values[f"{span}.{extra}"] = ratio(num, base)
            notes[f"{span}.{extra}"] = f"base={base} calls"
    values["grid.build_occupancy.self_s"] = self_s["grid.build_occupancy"] / n
    values["grid.dijkstra_field.self_s"] = self_s["grid.dijkstra_field"] / n
    values["grid.cells"] = ratio(measured["grid.build_occupancy"], calls["grid.build_occupancy"])
    values["grid.reachable_cells"] = ratio(measured["grid.dijkstra_field"], calls["grid.dijkstra_field"])
    results = [t.result for t in traced if t.result is not None]
    nodes = sum(r.nodes_expanded for r in results)
    untraced_ext = sum(u.result.extension_time for u, t in pairs if u.result is not None)
    untraced_nodes = sum(u.result.nodes_expanded for u, t in pairs if u.result is not None)
    values["search.nodes_expanded"] = nodes / n
    values["search.iterations"] = sum(r.iterations for r in results) / n
    values["search.us_per_expansion"] = ratio(untraced_ext * 1e6, untraced_nodes)
    notes["search.us_per_expansion"] = f"untraced twins, base={untraced_nodes} expansions"
    values["search.heap_pushes"] = calls["search.heap_pushes"] / n
    values["search.stale_pops"] = calls["search.stale_pops"] / n
    values["search.self_s"] = self_s[tracing.ROOT_SPAN] / n
    ok = [t for t in traced if t.reason is None]
    shortcuts = sum(t.result.termination.value == "rs_shortcut" for t in ok)
    values["search.rs_shortcut_ratio"] = ratio(shortcuts, len(ok))
    notes["search.rs_shortcut_ratio"] = f"{shortcuts}/{len(ok)} successful plans"
    values["scenario.build_s"] = statistics.median(t.build_s for t in traced)
    values["scenario.validate_s"] = statistics.median(t.validate_s for t in traced)
    total = sum(self_s.values())  # self times partition the root spans
    for layer in LAYERS:
        layer_s = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
        if layer == "search":
            layer_s += self_s[tracing.ROOT_SPAN]
        values[f"{layer}.share"] = ratio(layer_s, total)
        notes[f"{layer}.share"] = f"of {total:.3f} s traced plan time"
    untraced = statistics.median(u.plan_s for u, t in pairs if not u.rejected)
    values["trace.overhead"] = statistics.median(t.plan_s for t in traced) / untraced - 1.0
    notes["trace.overhead"] = f"traced p50 / untraced p50 - 1 over n={n} twin plans"
    for name in values:
        notes.setdefault(name, f"n={n} traced plans")
    return values, notes


def missing_layers(tracer) -> list[str]:
    """Traced names that saw no call at all."""
    names = [name for name in tracer.names if name != tracing.ROOT_SPAN]
    names += ["search.heap_pushes", "search.stale_pops"]
    return [name for name in names if tracer.calls[name] == 0]


# -- reporting ------------------------------------------------------------------


def run_record(args) -> list[str]:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = ",".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return [
        f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        " loop=closed callers=1 processes=1",
        f"record: commit={commit} src_sha256={digest.hexdigest()[:16]}"
        f" python={platform.python_version()} numpy={np.__version__}"
        f" nproc={len(os.sched_getaffinity(0))} cpu=\"{cpu}\" {blas}",
    ]


def summary_lines(outcomes: list[Outcome]) -> list[str]:
    attempted = [o for o in outcomes if not o.rejected]
    reasons: dict[str, int] = {}
    for o in attempted:
        if o.reason is not None:
            reasons[o.reason] = reasons.get(o.reason, 0) + 1
    failed = sum(reasons.values())
    return [
        f"samples: attempted={len(attempted)} rejected_by_validate={len(outcomes) - len(attempted)}"
        f" succeeded={len(attempted) - failed}",
        f"input: mean {statistics.fmean(o.obstacle_points for o in outcomes):.0f} obstacle points,"
        f" mean {statistics.fmean(o.cells for o in outcomes):.0f} grid cells per query",
        f"fail_rate: {ratio(failed, len(attempted)):.6g} ratio ({failed}/{len(attempted)})"
        + "".join(f" {r}={reasons[r]}" for r in sorted(reasons)),
    ]


def case_table(outcomes: list[Outcome]) -> list[str]:
    """Per-case counts next to the recorded reference (paper-parking)."""
    lines = ["case              nodes  iterations  extension_s.p50  path_length_m  reference"]
    by_label: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(o)
    for label in sorted(by_label):
        got = [o for o in by_label[label] if o.result is not None and o.result.found]
        if not got:
            lines.append(f"{label:<16}  no result")
            continue
        r = got[0].result
        ref = REFERENCE_COUNTS[tuple(label.split("/"))]
        same = (r.nodes_expanded, r.iterations, round(r.path_length, 3)) == ref
        ext = statistics.median(o.result.extension_time for o in got)
        lines.append(
            f"{label:<16} {r.nodes_expanded:>6} {r.iterations:>11} {ext:>16.4f}"
            f" {r.path_length:>14.3f}  {'match' if same else 'DIFFERS from'} {ref}"
        )
    return lines


def metric_lines(values: dict, notes: dict, spec, missing: set[str]) -> list[str]:
    lines = []
    for name, unit in spec:
        shown = "missing" if name in missing else f"{values[name]:.6g}"
        lines.append(f"{name:<44} {shown:>12} {unit:<10} {notes.get(name, '')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mhhastar" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no src/mhhastar and scenarios/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mhhastar

    if Path(mhhastar.__file__).resolve().parent != SRC / "mhhastar":
        print(f"perfbench: imported mhhastar from {mhhastar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    stream = WORKLOADS[args.workload](ROOT, args.seed)
    lines = run_record(args)

    if args.trace:
        try:
            tracer = tracing.Tracer()
        except tracing.LayerMissing as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 3
        runner = Runner(tracer)
        pairs = run_loop(stream, args.seconds, lambda q: (runner(q), runner(q, traced=True)))
        outcomes = [t for _, t in pairs]
    else:
        outcomes = run_loop(stream, args.seconds, Runner())
    attempted = [o for o in outcomes if not o.rejected]
    if not attempted:
        print("perfbench: validate rejected every generated query", file=sys.stderr)
        return 1

    missing: set[str] = set()
    if args.trace:
        values, notes = per_layer(pairs, tracer)
        spec = PER_LAYER
        if args.workload == "paper-parking":
            gone = missing_layers(tracer)
            missing = {
                name
                for name, _ in PER_LAYER
                if any(name == g or name.startswith(g + ".") for g in gone)
            }
            if gone:
                lines.append(f"LAYER MISSING (no calls on paper-parking): {', '.join(gone)}")
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(span_file)
        lines.append(f"spans: {len(tracer.span_name)} written to {span_file.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(outcomes)
        spec = END_TO_END

    lines += summary_lines(outcomes)
    if args.workload == "paper-parking":
        lines += case_table(outcomes)
    lines += metric_lines(values, notes, spec, missing)
    failed = sum(o.reason is not None for o in attempted)
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": len(attempted),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in spec
                    if name not in missing
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
