"""Multi-heuristic hybrid A* main loop, the anchor-only Hybrid A* baseline,
periodic analytic expansion, and path reconstruction.

The planner runs one admissible "anchor" queue plus n inflated queues sharing
path costs. Inadmissible queues are serviced round-robin while their minimum
key stays within an omega factor of the anchor's; otherwise the anchor runs.
Every `setvalue` steps the head node is probed for an exact curve to the goal,
which terminates the search early when collision-free.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .geometry import ObstacleSet, Pose, VehicleGeometry, vehicle_collides
from .grid import CellKey, DistanceField, GridSpec, build_occupancy, dijkstra_field, discretize
from .heuristics import HeuristicSet
from .reeds_shepp import RSPath, rs_collision_free, rs_sample, rs_shortest
from .vehicle import (
    Gear,
    MotionPrimitiveSet,
    PenaltyConfig,
    advance_arc,
    step_cost,
    successors,
)

PATH_RESAMPLE = 0.1  # [m] spacing of reconstructed path poses


class SearchLimitError(RuntimeError):
    """Iteration cap hit; signals a configuration problem, not "no solution"."""


class Termination(Enum):
    GOAL_KEY = "goal_key"
    RS_SHORTCUT = "rs_shortcut"
    NO_SOLUTION = "no_solution"


@dataclass(slots=True, eq=False)
class SearchNode:
    """Continuous state plus the per-cell bookkeeping shared by all queues."""

    pose: Pose
    gear: Gear
    steering: float
    cell: CellKey
    g: float
    bp: "SearchNode | None"
    step_length: float = 0.0
    h_anchor: float = 0.0
    closed: bool = False
    version: int = 0  # bumped on every reinsert/removal; stale heap entries skip


class OpenList:
    """One binary heap per heuristic index with lazy deletion.

    Entries are (key, insertion counter, node version, node); an entry is live
    only while its version matches the node's. Pop order is ascending key,
    FIFO among ties.
    """

    def __init__(self, n_queues: int):
        self._heaps: list[list] = [[] for _ in range(n_queues)]
        self._counter = itertools.count()

    def push(self, i: int, key_value: float, node: SearchNode) -> None:
        heappush(self._heaps[i], (key_value, next(self._counter), node.version, node))

    def _head(self, i: int):
        heap = self._heaps[i]
        while heap:
            entry = heap[0]
            if entry[2] == entry[3].version:
                return entry
            heappop(heap)
        return None

    def minkey(self, i: int) -> float:
        entry = self._head(i)
        return entry[0] if entry is not None else math.inf

    def top(self, i: int) -> SearchNode | None:
        entry = self._head(i)
        return entry[3] if entry is not None else None


@dataclass(frozen=True)
class SearchConfig:
    """Planner knobs. Their rules live in `config_problems` alone: the
    planner raises on any problem it lists, and `scenario.validate` reports
    them next to the checks that need the workspace and the vehicle."""

    omega_factor: float = 2.0
    setvalue: int = 5
    max_iterations: int = 200_000
    penalties: PenaltyConfig = field(default_factory=PenaltyConfig)
    primitives: MotionPrimitiveSet = field(default_factory=MotionPrimitiveSet)
    inflation_factors: tuple[float, ...] = (2.0,)


@dataclass
class PlanResult:
    """Planned path plus the benchmark metrics.

    path_length is geometric (meters); cost additionally includes the
    configured penalty surcharges accumulated by the search.
    """

    path: list[tuple[Pose, Gear]]
    path_length: float
    cost: float
    nodes_expanded: int
    iterations: int
    extension_time: float
    termination: Termination
    setup_time: float = 0.0
    rs_tail_start: int | None = None
    trace: list[tuple[Pose | None, Pose, CellKey]] | None = None

    @property
    def found(self) -> bool:
        return self.termination is not Termination.NO_SOLUTION


def config_problems(config: SearchConfig) -> list[str]:
    """Every rule `config` breaks, empty when the planner accepts it. Each
    test is written as "ok" so that NaN fails it."""
    pen = config.penalties
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
    ]
    return [message for ok, message in checks if not ok]


class _Search:
    """State of one planner run over an immutable scenario."""

    def __init__(self, goal: Pose, scenario, config: SearchConfig, n: int, trace: bool):
        self.goal = goal
        self.config = config
        self.n = n
        self.spec: GridSpec = scenario.workspace
        self.obstacles: ObstacleSet = scenario.obstacles
        self.vehicle: VehicleGeometry = scenario.vehicle
        self.wheelbase = scenario.vehicle.wheelbase
        self.turning_radius = scenario.limits.turning_radius(self.wheelbase)

        t0 = time.perf_counter()
        occupancy = build_occupancy(self.spec, self.obstacles)
        goal_cell_free = not occupancy[self.spec.cell_of(goal.x, goal.y)]
        self.field: DistanceField | None = (
            dijkstra_field(self.spec, occupancy, (goal.x, goal.y))
            if goal_cell_free
            else None
        )
        self.setup_time = time.perf_counter() - t0

        if self.field is not None:
            self.heuristics = HeuristicSet(
                goal, self.field, self.turning_radius, config.inflation_factors[:n]
            )
        self.open = OpenList(n + 1)
        self.nodes: dict[CellKey, SearchNode] = {}
        self.goal_nodes: list[SearchNode] = []
        gx, gy = self.spec.cell_of(goal.x, goal.y)
        self.goal_xyt = (gx, gy, self.spec.heading_bin(goal.theta))
        self.expansions = 0
        self.iterations = 0
        self.trace: list | None = [] if trace else None

    # -- node bookkeeping ---------------------------------------------------

    def _insert(self, node: SearchNode) -> None:
        """(Re)insert an open node into every queue."""
        node.version += 1
        self.open.push(0, node.g + node.h_anchor, node)
        for i in range(1, self.n + 1):
            self.open.push(i, node.g + self.heuristics.scaled(i, node.h_anchor), node)
        if node.cell[:3] == self.goal_xyt and node not in self.goal_nodes:
            self.goal_nodes.append(node)

    def _goal_g(self) -> tuple[float, SearchNode | None]:
        best: SearchNode | None = None
        for node in self.goal_nodes:
            if best is None or node.g < best.g:
                best = node
        return (best.g, best) if best is not None else (math.inf, None)

    def _collides(self, pose: Pose) -> bool:
        return vehicle_collides(pose, self.vehicle, self.obstacles)

    # -- core operations ----------------------------------------------------

    def expand_node(self, s: SearchNode) -> None:
        """Remove s from every open queue, close it, and relax its successors."""
        s.version += 1  # drops every live heap entry for s
        s.closed = True
        self.expansions += 1
        if self.trace is not None:
            self.trace.append((s.bp.pose if s.bp is not None else None, s.pose, s.cell))

        previous = s if s.bp is not None else None
        for step in successors(s, self.config.primitives, self.wheelbase):
            end = step.end_pose
            if not self.spec.contains(end.x, end.y):
                continue
            cell = discretize(end, step.gear, self.spec)
            existing = self.nodes.get(cell)
            if existing is not None and existing.closed:
                continue
            if math.isinf(self.field.values[cell.ix, cell.iy]):
                continue  # walled off; the anchor heuristic would be infinite
            mid = advance_arc(
                s.pose,
                step.gear,
                math.tan(step.steering) / self.wheelbase,
                step.length / 2.0,
            )
            if self._collides(end) or self._collides(mid):
                continue
            g_new = s.g + step_cost(step, previous, self.config.penalties)
            if existing is None:
                node = SearchNode(
                    pose=end,
                    gear=step.gear,
                    steering=step.steering,
                    cell=cell,
                    g=g_new,
                    bp=s,
                    step_length=step.length,
                    h_anchor=self.heuristics.anchor(end),
                )
                self.nodes[cell] = node
                self._insert(node)
            elif g_new < existing.g:
                existing.pose = end
                existing.steering = step.steering
                existing.g = g_new
                existing.bp = s
                existing.step_length = step.length
                existing.h_anchor = self.heuristics.anchor(end)
                self._insert(existing)

    def analytic_expansion(self, s: SearchNode) -> RSPath | None:
        """Exact curve from s to the goal, or None when it collides."""
        path = rs_shortest(s.pose, self.goal, self.turning_radius)
        if rs_collision_free(path, s.pose, self.turning_radius, self.vehicle, self.obstacles):
            return path
        return None

    # -- path reconstruction -------------------------------------------------

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

    def reconstruct_path(
        self, node: SearchNode, tail: RSPath | None
    ) -> tuple[list[tuple[Pose, Gear]], float, int | None]:
        """Replay the primitive chain at <= 0.1 m spacing, then append the
        analytic tail samples when present."""
        chain = self._backtrack(node)
        first_gear = chain[1].gear if len(chain) > 1 else chain[0].gear
        path: list[tuple[Pose, Gear]] = [(chain[0].pose, first_gear)]
        length = 0.0
        pose = chain[0].pose
        for hop in chain[1:]:
            kappa = math.tan(hop.steering) / self.wheelbase
            n_sub = max(1, math.ceil(hop.step_length / PATH_RESAMPLE))
            sub = hop.step_length / n_sub
            for j in range(1, n_sub):
                path.append((advance_arc(pose, hop.gear, kappa, j * sub), hop.gear))
            pose = advance_arc(pose, hop.gear, kappa, hop.step_length)
            path.append((pose, hop.gear))
            length += hop.step_length
        tail_start = None
        if tail is not None:
            tail_start = len(path)
            samples = rs_sample(tail, pose, self.turning_radius, PATH_RESAMPLE)
            path.extend(samples[1:])
            length += tail.total_length
        return path, length, tail_start

    # -- result assembly ----------------------------------------------------

    def _result(
        self,
        termination: Termination,
        elapsed: float,
        node: SearchNode | None = None,
        tail: RSPath | None = None,
    ) -> PlanResult:
        if termination is Termination.NO_SOLUTION:
            path: list[tuple[Pose, Gear]] = []
            length = math.inf
            cost = math.inf
            tail_start = None
        else:
            path, length, tail_start = self.reconstruct_path(node, tail)
            cost = node.g + (tail.total_length if tail is not None else 0.0)
        return PlanResult(
            path=path,
            path_length=length,
            cost=cost,
            nodes_expanded=self.expansions,
            iterations=self.iterations,
            extension_time=elapsed,
            termination=termination,
            setup_time=self.setup_time,
            rs_tail_start=tail_start,
            trace=self.trace,
        )

    # -- main loop ------------------------------------------------------------

    def run(self, start: Pose) -> PlanResult:
        config = self.config
        t0 = time.perf_counter()
        if self.field is None or math.isinf(self.field.lookup(start.x, start.y)):
            # The goal cell is blocked or unreachable in the 2-D relaxation.
            return self._result(Termination.NO_SOLUTION, time.perf_counter() - t0)

        start_node = SearchNode(
            pose=start,
            gear=Gear.FORWARD,
            steering=0.0,
            cell=discretize(start, Gear.FORWARD, self.spec),
            g=0.0,
            bp=None,
            h_anchor=self.heuristics.anchor(start),
        )
        self.nodes[start_node.cell] = start_node
        self._insert(start_node)

        indices = tuple(range(1, self.n + 1)) if self.n >= 1 else (0,)
        omega = config.omega_factor
        while self.open.minkey(0) < math.inf:
            for i in indices:
                if self.iterations >= config.max_iterations:
                    raise SearchLimitError(
                        f"no termination within {config.max_iterations} iterations"
                    )
                use_i = i if i != 0 and self.open.minkey(i) <= omega * self.open.minkey(0) else 0
                self.iterations += 1
                g_goal, goal_node = self._goal_g()
                if g_goal <= self.open.minkey(use_i):
                    if use_i != 0:
                        bound = omega * self.open.minkey(0)
                        assert g_goal <= bound + 1e-6 * max(1.0, bound), (
                            "suboptimality bound violated at termination"
                        )
                    return self._result(
                        Termination.GOAL_KEY, time.perf_counter() - t0, goal_node
                    )
                s = self.open.top(use_i)
                if s is None:
                    break
                if self.iterations % config.setvalue == 0:
                    tail = self.analytic_expansion(s)
                    if tail is not None:
                        return self._result(
                            Termination.RS_SHORTCUT, time.perf_counter() - t0, s, tail
                        )
                self.expand_node(s)
        return self._result(Termination.NO_SOLUTION, time.perf_counter() - t0)


def _plan(start: Pose, goal: Pose, scenario, config: SearchConfig, n: int, trace: bool) -> PlanResult:
    problems = config_problems(config)
    if problems:
        raise ValueError("invalid search config: " + "; ".join(problems))
    if vehicle_collides(start, scenario.vehicle, scenario.obstacles):
        raise ValueError("start pose is in collision")
    if vehicle_collides(goal, scenario.vehicle, scenario.obstacles):
        raise ValueError("goal pose is in collision")
    if not scenario.workspace.contains(start.x, start.y):
        raise ValueError("start pose outside workspace")
    if not scenario.workspace.contains(goal.x, goal.y):
        raise ValueError("goal pose outside workspace")
    return _Search(goal, scenario, config, n, trace).run(start)


def mhha_star(
    start: Pose,
    goal: Pose,
    scenario,
    config: SearchConfig | None = None,
    trace: bool = False,
) -> PlanResult:
    """Plan with the anchor plus every configured inflated queue."""
    config = config if config is not None else getattr(scenario, "search", None) or SearchConfig()
    return _plan(start, goal, scenario, config, len(config.inflation_factors), trace)


def hybrid_a_star(
    start: Pose,
    goal: Pose,
    scenario,
    config: SearchConfig | None = None,
    trace: bool = False,
) -> PlanResult:
    """Anchor-only baseline: identical loop with zero inadmissible queues."""
    config = config if config is not None else getattr(scenario, "search", None) or SearchConfig()
    return _plan(start, goal, scenario, config, 0, trace)
