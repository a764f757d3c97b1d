"""Multi-heuristic hybrid A* main loop, the anchor-only Hybrid A* baseline,
periodic analytic expansion, and path reconstruction.

The planner runs one admissible "anchor" queue plus n inflated queues sharing
path costs. Inadmissible queues are serviced round-robin while their minimum
key stays within an omega factor of the anchor's; otherwise the anchor runs.
Every `setvalue` steps the head node is probed for an exact curve to the goal,
which terminates the search early when collision-free.

The anchor heuristic is evaluated lazily (Lazy A*, Tolpin et al. 2013): a new
or reopened node is pushed on a lower bound of its keys, and its anchor is
computed only when one of its live entries reaches the head of a queue. The
heads, and so every search decision, are the ones eager keys would give.

A successor is checked for collision at every pose its primitive adds to a
returned path, SAMPLE_SPACING apart, by coordinate transformation: the
obstacle points near the parent are moved into its frame once, and any within
1e-6 m of the body at a sample rejects the successor (`BodySweep`).
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import Enum
from heapq import heappop, heappush, heapreplace
from operator import attrgetter

from .geometry import ObstacleSet, Pose, VehicleGeometry, body_sweep, vehicle_collides
from .grid import CellKey, GridSpec, build_occupancy, dijkstra_field, discretize
from .heuristics import HeuristicSet
from .reeds_shepp import RSPath, rs_collision_free, rs_shortest
from .vehicle import (
    SAMPLE_SPACING,
    Arc,
    Gear,
    PenaltyConfig,
    Primitive,
    advance_arc,
    arc_poses,
    arc_stations,
    primitive_table,
    step_cost,
    successors,
)


# [m per m of 1 + turning radius] A Reeds-Shepp length may be off its exact
# value by the rounding of a verified word; a bound derived from a parent's
# length stays this far below it.
RS_MARGIN = 1e-6


class SearchLimitError(RuntimeError):
    """Iteration cap hit; signals a configuration problem, not "no solution"."""


class Termination(Enum):
    GOAL_KEY = "goal_key"
    RS_SHORTCUT = "rs_shortcut"
    NO_SOLUTION = "no_solution"


@dataclass(slots=True, eq=False)
class SearchNode:
    """Continuous state plus the per-cell bookkeeping shared by all queues;
    the gear driven into the node is `cell.gear`."""

    pose: Pose
    step: Primitive | None  # the primitive from bp to pose, None at the start
    cell: CellKey
    g: float
    bp: "SearchNode | None"
    h_anchor: float | None = None  # None until evaluated for this pose
    closed: bool = False
    version: int = 0  # bumped on every reinsert/removal; stale heap entries skip


class OpenList:
    """One binary heap per queue with lazy deletion and lazy keys.

    Queue i keys a node on g + factors[i] * anchor; factors[0] is 1.0, the
    anchor queue. Entries are (key, insertion counter, node version, node);
    an entry is live only while its version matches the node's. A node is
    pushed on a lower bound of its anchor. When a live entry reaches the head
    of a queue, the node's anchor is evaluated (once per push), and an entry
    whose key is below the true key goes back into the heap with the true
    key, its counter and its version. Float add and multiply round
    monotonically, so a lower-bound key never exceeds the true one, and the
    first head that holds its true key is the least (true key, counter) of
    the queue: pop order is ascending key, FIFO among ties, as if every key
    had been exact from the start.
    """

    def __init__(self, factors: tuple[float, ...], anchor: Callable[[Pose], float]):
        self._factors = factors
        self._anchor = anchor
        self._heaps: list[list] = [[] for _ in factors]
        self._counter = itertools.count()
        self.evaluations = 0

    def push(self, node: SearchNode, h_lower: float) -> None:
        """(Re)insert node into every queue; h_lower <= its anchor."""
        node.version += 1
        node.h_anchor = None
        for heap, factor in zip(self._heaps, self._factors):
            heappush(heap, (node.g + factor * h_lower, next(self._counter), node.version, node))

    def head(self, i: int) -> tuple[float, SearchNode | None]:
        """(true key, node) of queue i's least live entry; (inf, None) when
        the queue is empty."""
        heap = self._heaps[i]
        factor = self._factors[i]
        while heap:
            key, count, version, node = heap[0]
            if version != node.version:
                heappop(heap)
                continue
            if node.h_anchor is None:
                node.h_anchor = self._anchor(node.pose)
                self.evaluations += 1
            true_key = node.g + factor * node.h_anchor
            if key == true_key:
                return key, node
            assert true_key > key, "a node was pushed above its true key"
            heapreplace(heap, (true_key, count, version, node))
        return math.inf, None


@dataclass(frozen=True)
class SearchConfig:
    """Planner knobs, the motion primitives' arc length and steering angles
    among them. Their rules live in `input_problems` alone, next to the ones
    that need the workspace and the vehicle: the planners raise on every
    problem it lists, and `scenario.validate` returns the list."""

    omega_factor: float = 2.0
    setvalue: int = 5
    max_iterations: int = 200_000
    inflation_factors: tuple[float, ...] = (2.0,)
    penalties: PenaltyConfig = field(default_factory=PenaltyConfig)
    arc_length: float = 0.5
    steering_angles: tuple[float, ...] = (-0.6, 0.0, 0.6)


@dataclass
class PlanResult:
    """Planned path plus the benchmark metrics; heuristic_evaluations counts
    anchor evaluations, one Reeds–Shepp solve each.

    A found path is its start pose, the primitive chain (`drive`) and the
    analytic tail (`tail`, None without one), all as arcs; `parts` samples
    them with `arc_poses`, and `path` joins the two parts.
    path_length is geometric (meters); cost additionally includes the
    configured penalty surcharges accumulated by the search.
    """

    start: Pose
    path_length: float
    cost: float
    nodes_expanded: int
    iterations: int
    extension_time: float
    termination: Termination
    heuristic_evaluations: int = 0
    setup_time: float = 0.0
    drive: tuple[Arc, ...] = ()
    tail: tuple[Arc, ...] | None = None
    trace: list[tuple[Pose | None, Pose, CellKey]] | None = None

    @property
    def found(self) -> bool:
        return self.termination is not Termination.NO_SOLUTION

    @property
    def parts(self) -> tuple[list[tuple[Pose, Gear]], list[tuple[Pose, Gear]]]:
        """Poses SAMPLE_SPACING apart along the drive, and along the tail from
        the drive's last sample ([] without a tail); ([], []) without a solution."""
        if not self.found:
            return [], []
        drive = list(arc_poses(self.start, self.drive, SAMPLE_SPACING))
        tail = [] if self.tail is None else list(arc_poses(drive[-1][0], self.tail, SAMPLE_SPACING))
        return drive, tail

    @property
    def path(self) -> list[tuple[Pose, Gear]]:
        """The drive's samples, then the tail's after the shared pose."""
        drive, tail = self.parts
        return drive + tail[1:]


def input_problems(start: Pose, goal: Pose, scenario, config: SearchConfig) -> list[str]:
    """Every rule the planner input breaks, empty when the planners accept
    it: the endpoints, the obstacle points, the config, and the primitives
    against the grid and the steering limit. Each test is written as "ok"
    so that NaN fails it, but for the +inf tests of the penalties and the
    arc length, which leave NaN to the range tests before them so that NaN
    reads one problem."""
    ws = scenario.workspace
    out = []
    for name, pose in (("start", start), ("goal", goal)):
        if not ws.contains(pose.x, pose.y):
            out.append(f"{name} outside workspace")
        elif not math.isfinite(pose.theta):
            out.append(f"{name} heading not finite")
        elif vehicle_collides(pose, scenario.vehicle, scenario.obstacles):
            out.append(f"{name} in collision")
    inside = ws.contains(*scenario.obstacles.points.T)
    out += [
        f"obstacle point ({px:.3f}, {py:.3f}) outside workspace"
        for px, py in scenario.obstacles.points[~inside].tolist()
    ]
    pen = config.penalties
    arc_length = config.arc_length
    diag = ws.cell_size * math.sqrt(2.0)
    phi_max = scenario.vehicle.phi_max
    checks = [
        (config.omega_factor >= 1.0, "omega_factor < 1"),
        (config.setvalue >= 1, "setvalue < 1"),
        (config.max_iterations >= 1, "max_iterations < 1"),
        *(
            (f >= 1.0, f"inflation factor #{i} < 1")
            for i, f in enumerate(config.inflation_factors, start=1)
        ),
        (pen.reverse_mult >= 1.0, "penalties.reverse_mult < 1 (breaks heuristic admissibility)"),
        *(
            (getattr(pen, name) >= 0.0, f"penalties.{name} < 0")
            for name in ("switchback", "steer_change", "steer_hold")
        ),
        *(
            (getattr(pen, f.name) != math.inf, f"penalties.{f.name} is not finite")
            for f in fields(pen)
        ),
        (arc_length > diag, f"arc_length {arc_length} does not exceed the cell diagonal {diag:.4f}"),
        (arc_length != math.inf, f"arc_length {arc_length} is not finite"),
        *(
            (abs(steer) <= phi_max, f"steering angle {steer} exceeds phi_max {phi_max}")
            for steer in config.steering_angles
        ),
    ]
    return out + [message for ok, message in checks if not ok]


class _Search:
    """State of one planner run over an immutable scenario."""

    def __init__(
        self, start: Pose, goal: Pose, scenario, config: SearchConfig, n: int | None, trace: bool
    ):
        self.start = start
        self.goal = goal
        self.config = config
        # Queue i >= 1 keys on g + factors[i - 1] * anchor; None keeps them all.
        self.factors = config.inflation_factors[:n]
        self.spec: GridSpec = scenario.workspace
        self.obstacles: ObstacleSet = scenario.obstacles
        self.vehicle: VehicleGeometry = scenario.vehicle
        self.wheelbase = scenario.vehicle.wheelbase
        self.turning_radius = scenario.vehicle.turning_radius

        self.primitives = primitive_table(config.arc_length, config.steering_angles, self.wheelbase)
        # Per primitive, the slice of the sweep's bodies that sit at the
        # poses it adds to a path, relative to the primitive's start.
        origin = Pose(0.0, 0.0, 0.0)
        self.samples: list[slice] = []
        sample_poses: list[Pose] = []
        for primitive in self.primitives:
            stations = arc_stations(origin, [primitive.arc], SAMPLE_SPACING)
            self.samples.append(slice(len(sample_poses), len(sample_poses) + len(stations)))
            sample_poses += [advance_arc(*station) for station in stations]
        self.sweep = body_sweep(self.vehicle, tuple(sample_poses))
        self.rs_margin = RS_MARGIN * (1.0 + self.turning_radius)

        t0 = time.perf_counter()
        occupancy = build_occupancy(self.spec, self.obstacles)
        self.field = dijkstra_field(self.spec, occupancy, (goal.x, goal.y), (start.x, start.y))
        self.setup_time = time.perf_counter() - t0

        # The open list holds the bound method, not self, so no cycle keeps
        # the search alive.
        self.heuristics = HeuristicSet(goal, self.field, self.turning_radius)
        self.open = OpenList((1.0, *self.factors), self.heuristics.anchor)
        self.nodes: dict[CellKey, SearchNode] = {}
        self.goals: list[SearchNode] = []  # goal-cell nodes in first-insert order
        self.goal_xyt = discretize(goal, Gear.FORWARD, self.spec)[:3]
        self.expansions = 0
        self.iterations = 0
        self.trace: list | None = [] if trace else None

    # -- node bookkeeping ---------------------------------------------------

    def _insert(self, node: SearchNode, h_lower: float) -> None:
        """(Re)insert an open node into every queue, keyed on h_lower, a
        lower bound of its anchor, until its anchor is evaluated."""
        self.open.push(node, h_lower)
        if node.cell[:3] == self.goal_xyt and node not in self.goals:
            self.goals.append(node)

    @property
    def goal_node(self) -> SearchNode | None:
        """The least-g goal-cell node, the first inserted among equal g."""
        return min(self.goals, key=attrgetter("g"), default=None)

    # -- core operations ----------------------------------------------------

    def expand_node(self, s: SearchNode) -> None:
        """Remove s from every open queue, close it, and relax its successors.

        A successor is relaxed only if it lowers its cell's g and the sweep
        flags no point within 1e-6 m of the body at any sample of its
        primitive. The primitive is a path from s, so a successor's
        Reeds-Shepp length is at least s's minus the arc length: with the
        holonomic value, a lower bound of its anchor to push it on."""
        s.version += 1  # drops every live heap entry for s
        s.closed = True
        self.expansions += 1
        if self.trace is not None:
            self.trace.append((s.bp.pose if s.bp is not None else None, s.pose, s.cell))

        hits = self.sweep.hits(s.pose, self.obstacles)
        rs_floor = -math.inf
        # The anchor is the max of the Reeds-Shepp length and the holonomic
        # value, so it is the Reeds-Shepp length when above the holonomic value.
        if s.h_anchor is not None and s.h_anchor > self.field.at(s.cell.ix, s.cell.iy):
            rs_floor = s.h_anchor - self.rs_margin
        for (primitive, end), samples in zip(successors(s.pose, self.primitives), self.samples):
            if not self.spec.contains(end.x, end.y):
                continue
            gear, _, length = primitive.arc
            cell = discretize(end, gear, self.spec)
            node = self.nodes.get(cell)
            if node is not None and node.closed:
                continue
            h_holonomic = self.field.at(cell.ix, cell.iy)
            if math.isinf(h_holonomic):
                continue  # walled off; the anchor heuristic would be infinite
            g_new = s.g + step_cost(primitive, s.step, self.config.penalties)
            if node is not None and g_new >= node.g:
                continue
            if hits is not None and any(hits[samples]):
                continue
            if node is None:  # a first visit relaxes a node at infinite g
                node = self.nodes[cell] = SearchNode(end, None, cell, math.inf, None)
            node.pose, node.step, node.g, node.bp = end, primitive, g_new, s
            self._insert(node, max(h_holonomic, rs_floor - length))

    # -- result assembly ----------------------------------------------------

    def _backtrack(self, node: SearchNode) -> list[SearchNode]:
        chain = []
        cur: SearchNode | None = node
        while cur is not None:
            chain.append(cur)
            if len(chain) > len(self.nodes) + 1:
                raise RuntimeError("parent chain is cyclic; search state corrupted")
            cur = cur.bp
        chain.reverse()
        return chain

    def _result(
        self,
        termination: Termination,
        elapsed: float,
        node: SearchNode | None = None,
        tail: RSPath | None = None,
    ) -> PlanResult:
        """The result of a run; a found path is the primitive chain from the
        start to node, as arcs, then the analytic tail when present."""
        drive: tuple[Arc, ...] = ()
        length = cost = math.inf
        if node is not None:
            drive = tuple(hop.step.arc for hop in self._backtrack(node)[1:])
            length = 0.0
            for arc in drive:  # len(drive) * arc_length can differ in the last bit
                length += arc.length
            cost = node.g
            if tail is not None:
                length += tail.total_length
                cost += tail.total_length
        return PlanResult(
            start=self.start,
            path_length=length,
            cost=cost,
            nodes_expanded=self.expansions,
            iterations=self.iterations,
            heuristic_evaluations=self.open.evaluations,
            extension_time=elapsed,
            termination=termination,
            setup_time=self.setup_time,
            drive=drive,
            tail=tail.segments if tail is not None else None,
            trace=self.trace,
        )

    # -- main loop ------------------------------------------------------------

    def run(self) -> PlanResult:
        config = self.config
        start = self.start
        t0 = time.perf_counter()
        h_start = self.field.lookup(start.x, start.y)
        if math.isinf(h_start):
            # The goal cell is blocked or unreachable in the 2-D relaxation.
            return self._result(Termination.NO_SOLUTION, time.perf_counter() - t0)

        start_node = SearchNode(
            pose=start, step=None, cell=discretize(start, Gear.FORWARD, self.spec), g=0.0, bp=None
        )
        self.nodes[start_node.cell] = start_node
        self._insert(start_node, h_start)

        n = len(self.factors)
        omega = config.omega_factor
        while True:
            # Every queue holds the same live nodes: all are empty together.
            anchor_key, s = self.open.head(0)
            if s is None:
                return self._result(Termination.NO_SOLUTION, time.perf_counter() - t0)
            if self.iterations >= config.max_iterations:
                raise SearchLimitError(f"no termination within {config.max_iterations} iterations")
            key = anchor_key
            if n:  # round robin over the inflated queues, each within omega of the anchor
                key_i, s_i = self.open.head(1 + self.iterations % n)
                if key_i <= omega * anchor_key:
                    key, s = key_i, s_i
            self.iterations += 1
            goal_node = self.goal_node
            if goal_node is not None and goal_node.g <= key:
                return self._result(Termination.GOAL_KEY, time.perf_counter() - t0, goal_node)
            if self.iterations % config.setvalue == 0:  # analytic expansion
                tail = rs_shortest(s.pose, self.goal, self.turning_radius)
                if rs_collision_free(tail, s.pose, self.vehicle, self.obstacles):
                    return self._result(Termination.RS_SHORTCUT, time.perf_counter() - t0, s, tail)
            self.expand_node(s)


def _plan(
    start: Pose, goal: Pose, scenario, config: SearchConfig | None, n: int | None, trace: bool
) -> PlanResult:
    """Refuse the input on every problem `input_problems` lists, then search;
    a missing config falls back to the scenario's."""
    config = config if config is not None else scenario.search
    problems = input_problems(start, goal, scenario, config)
    if problems:
        raise ValueError("; ".join(problems))
    return _Search(start, goal, scenario, config, n, trace).run()


def mhha_star(
    start: Pose,
    goal: Pose,
    scenario,
    config: SearchConfig | None = None,
    trace: bool = False,
) -> PlanResult:
    """Plan with the anchor plus every configured inflated queue."""
    return _plan(start, goal, scenario, config, None, trace)


def hybrid_a_star(
    start: Pose,
    goal: Pose,
    scenario,
    config: SearchConfig | None = None,
    trace: bool = False,
) -> PlanResult:
    """Anchor-only baseline: identical loop with zero inadmissible queues."""
    return _plan(start, goal, scenario, config, 0, trace)
