"""Per-layer tracing from outside the planner.

The tracer swaps public module and class attributes that the planner looks
up at call time for timing wrappers, and restores them afterwards. Each
wrapped call is one span (name, start, end, parent span); spans stay in
memory as packed columns and are written out once, when the run ends. Self
time of a span is its duration minus the time covered by its wrapped
children, accumulated per span name while the run goes.

The wrapped names are listed once, in `TARGETS`; when one of them no longer
exists the tracer refuses to start (LayerMissing), so a refactor cannot
make a layer disappear from the breakdown silently.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "plan"


class LayerMissing(RuntimeError):
    """A traced attribute no longer exists in the planner's modules."""


def _is_true(result) -> int:
    return 1 if result else 0


def _rows(result) -> int:
    return result.shape[0]


def _cells(result) -> int:
    return result.size


def _finite_cells(field) -> int:
    return int(np.isfinite(field.values).sum())


# (module, attribute path, span name, measure). A timed target's measure maps
# its return value to a number summed per span name (hits, rows, cells). A
# target without a span name is only counted, under the measure's name.
TARGETS = (
    ("mhhastar.heuristics", "rs_shortest", "reeds_shepp.heuristic", None),
    ("mhhastar.heuristics", "h_holonomic", "heuristics.h_holonomic", None),
    ("mhhastar.heuristics", "HeuristicSet.anchor", "heuristics.anchor", None),
    ("mhhastar.search", "rs_shortest", "reeds_shepp.analytic", None),
    ("mhhastar.search", "rs_collision_free", "reeds_shepp.rs_collision_free", _is_true),
    ("mhhastar.search", "vehicle_collides", "geometry.vehicle_collides.search", _is_true),
    # rs_collision_free imports this one from the geometry module at call time.
    ("mhhastar.geometry", "vehicle_collides", "geometry.vehicle_collides.analytic", _is_true),
    ("mhhastar.geometry", "ObstacleSet.query", "geometry.ObstacleSet.query", _rows),
    ("mhhastar.search", "successors", "vehicle.successors", None),
    ("mhhastar.search", "step_cost", "vehicle.step_cost", None),
    ("mhhastar.search", "advance_arc", "vehicle.advance_arc", None),
    ("mhhastar.search", "build_occupancy", "grid.build_occupancy", _cells),
    ("mhhastar.search", "dijkstra_field", "grid.dijkstra_field", _finite_cells),
    ("mhhastar.search", "heappush", None, "search.heap_pushes"),
    # OpenList pops an entry only to discard it as stale.
    ("mhhastar.search", "heappop", None, "search.stale_pops"),
)


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise LayerMissing(f"{module_name}.{attr_path} no longer exists; update perfbench/tracer.py")
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.measured: dict[str, float] = defaultdict(float)
        # one row per span: name index, parent span id (-1 at the root), times
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, child time]
        self._patches = []
        for module_name, attr_path, span, measure in TARGETS:
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr)
            if span is None:
                wrapper = self._counter(original, measure)
            else:
                self.names.append(span)
                wrapper = self._timer(original, len(self.names) - 1, measure)
            self._patches.append((owner, attr, original, wrapper))

    # -- wrappers ---------------------------------------------------------------

    def _counter(self, fn, key: str):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timer(self, fn, name_idx: int, measure):
        name = self.names[name_idx]
        calls, self_s, measured, stack = self.calls, self.self_s, self.measured, self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def timed(*args, **kwargs):
            frame = [len(span_name), 0.0]
            span_name.append(name_idx)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[frame[0]] = t0
                span_end[frame[0]] = t1
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if measure is not None:
                measured[name] += measure(result)
            return result

        return timed

    # -- one traced plan ----------------------------------------------------------

    def plan(self, fn, *args, **kwargs):
        """Call fn (a planner) as the root span with every target wrapped."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._timer(fn, 0, None)(*args, **kwargs)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans as columns of one .npz file, name table included."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
