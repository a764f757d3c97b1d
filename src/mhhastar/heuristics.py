"""The admissible anchor heuristic: the max of the curvature-aware and
obstacle-aware lower bounds. The search inflates it once per extra queue,
and evaluates it only for nodes that reach the head of a queue; until then
the obstacle-aware bound alone keys them."""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Pose
from .grid import DistanceField
from .reeds_shepp import rs_shortest


def h_holonomic(state: Pose, field: DistanceField) -> float:
    """Obstacle-aware 2-D shortest-path distance, curvature ignored."""
    return field.lookup(state.x, state.y)


@dataclass(frozen=True)
class HeuristicSet:
    """Anchor evaluator toward one goal."""

    goal: Pose
    field: DistanceField
    turning_radius: float

    def anchor(self, state: Pose) -> float:
        """Max of the shortest bounded-curvature path length (obstacles
        ignored) and h_holonomic: two admissible lower bounds, hence itself
        admissible."""
        return max(
            rs_shortest(state, self.goal, self.turning_radius).total_length,
            h_holonomic(state, self.field),
        )
