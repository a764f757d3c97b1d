"""Workload inputs for the planner benchmark.

Each workload is an endless, seed-determined stream of queries. A query is
the planner to call plus the plain data a caller hands to the public
scenario builder; the benchmark builds, validates and plans it inside the
timed loop. The i-th query of a stream depends only on (workload, seed, i),
so the same seed always yields the same inputs however long a run lasts.

The generation rules below are fixed; no case is re-drawn or dropped
because of how the planner behaves on it. Only `validate` may reject one.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# Published path lengths [m] of the source paper's parking table, keyed by
# (scenario, planner). The checker holds paper-parking paths to +-30% of these.
PUBLISHED_LENGTH_M = {
    ("forward", "mhha"): 21.097,
    ("forward", "hybrid"): 18.659,
    ("backward", "mhha"): 18.163,
    ("backward", "hybrid"): 16.691,
}

# Counts and lengths the current planner produces on the shipped scenarios:
# (nodes expanded, iterations, path length [m]). Printed next to each run's
# own figures so a change in search behaviour is visible; not a pass/fail gate.
REFERENCE_COUNTS = {
    ("forward", "mhha"): (704, 705, 17.813),
    ("forward", "hybrid"): (1559, 1560, 18.318),
    ("backward", "mhha"): (299, 300, 16.138),
    ("backward", "hybrid"): (1204, 1205, 16.264),
}

PAPER_CASES = tuple(PUBLISHED_LENGTH_M)

# Planner iteration budget for generated cluttered scenarios, so that one
# hard case ends as a `limit` failure instead of outlasting the run.
CLUTTERED_MAX_ITERATIONS = 15_000


@dataclass(frozen=True)
class Query:
    label: str  # stable identifier of the case within its workload
    planner: str  # "mhha" or "hybrid"
    scenario: dict  # input of mhhastar.scenario.scenario_from_dict
    max_iterations: int | None = None  # search budget override, if any
    published_length_m: float | None = None


def load_shipped(root: Path) -> dict[str, dict]:
    """The two shipped scenario files as plain dictionaries."""
    out = {}
    for name in ("forward", "backward"):
        path = root / "scenarios" / f"{name}_parking.json"
        with open(path, "r", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def paper_parking(root: Path, seed: int) -> Iterator[list[Query]]:
    """Rounds of the paper's four plans (2 scenarios x 2 planners); the seed
    only fixes the order of the plans inside each round."""
    shipped = load_shipped(root)
    rng = random.Random(f"paper-parking:{seed}")
    while True:
        cases = list(PAPER_CASES)
        rng.shuffle(cases)
        yield [
            Query(
                label=f"{name}/{planner}",
                planner=planner,
                scenario=shipped[name],
                published_length_m=PUBLISHED_LENGTH_M[(name, planner)],
            )
            for name, planner in cases
        ]


def _box(cx: float, cy: float, w: float, h: float, spacing: float) -> list[list[float]]:
    """Outline points of an axis-aligned w-by-h box, corners included."""
    corners = [
        (cx - w / 2, cy - h / 2),
        (cx + w / 2, cy - h / 2),
        (cx + w / 2, cy + h / 2),
        (cx - w / 2, cy + h / 2),
    ]
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        n = max(1, math.ceil(math.hypot(x1 - x0, y1 - y0) / spacing - 1e-12))
        pts += [[x0 + (x1 - x0) * k / n, y0 + (y1 - y0) * k / n] for k in range(n)]
    return pts


def _pole(cx: float, cy: float, radius: float = 0.15, n: int = 8) -> list[list[float]]:
    return [
        [cx + radius * math.cos(2 * math.pi * k / n), cy + radius * math.sin(2 * math.pi * k / n)]
        for k in range(n)
    ]


def cluttered_parking(root: Path, seed: int) -> Iterator[list[Query]]:
    """The shipped parking lot with seeded poles and boxes in the lane and a
    seeded lane start facing either way; MHHA* only.

    Rule: 2-4 poles (8 points on a 0.15 m circle) and 1-2 boxes (0.4-1.0 m
    sides, outline every 0.1 m), centred uniformly in the lane
    x in [-19, 19], y in [3.5, 10.5], except the approach in front of the
    spot (|x - spot centre| < 4 m and y < 6 m). Start x in [-17, 17],
    y in [5.5, 9.0], heading 0 or pi.
    """
    base = load_shipped(root)["forward"]
    spot_x = base["spot"]["center_x"]
    i = 0
    while True:
        rng = random.Random(f"cluttered-parking:{seed}:{i}")
        extra: list[list[float]] = []
        shapes = ["pole"] * rng.randint(2, 4) + ["box"] * rng.randint(1, 2)
        for shape in shapes:
            while True:
                cx, cy = rng.uniform(-19.0, 19.0), rng.uniform(3.5, 10.5)
                if not (abs(cx - spot_x) < 4.0 and cy < 6.0):
                    break
            if shape == "pole":
                extra += _pole(cx, cy)
            else:
                extra += _box(cx, cy, rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0), 0.1)
        data = copy.deepcopy(base)
        data["start"] = {
            "x": rng.uniform(-17.0, 17.0),
            "y": rng.uniform(5.5, 9.0),
            "theta": rng.choice((0.0, math.pi)),
        }
        data["obstacles"] = {"extra_points": extra}
        yield [
            Query(
                label=f"cluttered-{i}",
                planner="mhha",
                scenario=data,
                max_iterations=CLUTTERED_MAX_ITERATIONS,
            )
        ]
        i += 1


# Large lot: 120 m x 40 m at 0.3 m cells (400 x 134 = 53,600 cells) holding
# four rows of perpendicular stalls separated by three aisles.
LOT_X, LOT_Y = 120.0, 40.0
CAR_W, CAR_L = 2.0, 4.7
STALL_W = 2.6
ROW_MARGIN = 0.3
AISLE_W = (LOT_Y - 2 * ROW_MARGIN - 4 * CAR_L) / 3


def _row_y(k: int) -> float:
    """Lower edge of stall row k (0..3)."""
    return ROW_MARGIN + k * (CAR_L + AISLE_W)


def _aisle_center(k: int) -> float:
    """Centre line of aisle k (0..2), between rows k and k + 1."""
    return _row_y(k) + CAR_L + AISLE_W / 2


def large_lot_short_hop(root: Path, seed: int) -> Iterator[list[Query]]:
    """A seeded large lot (each stall occupied with probability 0.85, cars as
    0.25 m outline point clouds) and one 3-8 m hop along an aisle; MHHA* only.

    Rule: aisle uniform of 3, heading 0 or pi, start x in [8, 112] and
    lateral offset within +-0.8 m of the aisle centre, hop length in [3, 8] m
    along the heading, goal lateral offset within +-0.8 m and heading
    within +-0.15 rad of the start's.
    """
    shipped = load_shipped(root)["forward"]
    n_stalls = int((LOT_X - 2.0) // STALL_W)
    i = 0
    while True:
        rng = random.Random(f"large-lot-short-hop:{seed}:{i}")
        extra: list[list[float]] = []
        for row in range(4):
            cy = _row_y(row) + CAR_L / 2
            for j in range(n_stalls):
                if rng.random() < 0.85:
                    cx = 1.0 + STALL_W * (j + 0.5)
                    extra += _box(cx, cy, CAR_W, CAR_L, 0.25)
        aisle = _aisle_center(rng.randrange(3))
        theta = rng.choice((0.0, math.pi))
        x0 = rng.uniform(8.0, 112.0)
        hop = rng.uniform(3.0, 8.0)
        data = {
            "workspace": {
                "x_min": 0.0,
                "x_max": LOT_X,
                "y_min": 0.0,
                "y_max": LOT_Y,
                "cell_size": 0.3,
                "heading_bins": 72,
            },
            "vehicle": copy.deepcopy(shipped["vehicle"]),
            "search": copy.deepcopy(shipped["search"]),
            "start": {"x": x0, "y": aisle + rng.uniform(-0.8, 0.8), "theta": theta},
            "goal": {
                "x": x0 + hop * math.cos(theta),
                "y": aisle + rng.uniform(-0.8, 0.8),
                "theta": theta + rng.uniform(-0.15, 0.15),
            },
            "obstacles": {"extra_points": extra},
        }
        yield [Query(label=f"hop-{i}", planner="mhha", scenario=data)]
        i += 1


WORKLOADS = {
    "paper-parking": paper_parking,
    "cluttered-parking": cluttered_parking,
    "large-lot-short-hop": large_lot_short_hop,
}
