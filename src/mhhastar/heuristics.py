"""Heuristic evaluators: an admissible anchor (max of the curvature-aware and
obstacle-aware components) and its inflated, inadmissible variants."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Pose
from .grid import DistanceField
from .reeds_shepp import rs_shortest


def h_nonholonomic(state: Pose, goal: Pose, turning_radius: float) -> float:
    """Shortest bounded-curvature path length, obstacles ignored."""
    return rs_shortest(state, goal, turning_radius).total_length


def h_holonomic(state: Pose, field: DistanceField) -> float:
    """Obstacle-aware 2-D shortest-path distance, curvature ignored."""
    return field.lookup(state.x, state.y)


def h_anchor(state: Pose, goal: Pose, field: DistanceField, turning_radius: float) -> float:
    """Max of two admissible lower bounds, hence itself admissible."""
    return max(h_nonholonomic(state, goal, turning_radius), h_holonomic(state, field))


@dataclass(frozen=True)
class HeuristicSet:
    """Evaluator family: index 0 is the anchor, index i >= 1 multiplies the
    anchor by inflation_factors[i - 1]."""

    goal: Pose
    field: DistanceField
    turning_radius: float
    inflation_factors: tuple[float, ...] = (2.0,)

    @property
    def n(self) -> int:
        return len(self.inflation_factors)

    def anchor(self, state: Pose) -> float:
        return h_anchor(state, self.goal, self.field, self.turning_radius)

    def scaled(self, i: int, anchor_value: float) -> float:
        """Apply index i to an already-computed anchor value."""
        if i == 0:
            return anchor_value
        if not 1 <= i <= self.n:
            raise IndexError(f"heuristic index {i} out of range 0..{self.n}")
        return self.inflation_factors[i - 1] * anchor_value

