import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhhastar.geometry import ObstacleSet, Pose
from mhhastar.grid import (
    CellKey,
    GridSpec,
    build_occupancy,
    dijkstra_field,
    discretize,
)
from mhhastar.vehicle import Gear

from oracles import bellman_ford_field, cell_center, octile

SPEC = GridSpec(-21.0, 21.0, -1.0, 11.0, cell_size=0.3, heading_bins=72)


class TestGridSpec:
    def test_benchmark_cell_counts(self):
        assert SPEC.nx == 140
        assert SPEC.ny == 40

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0, 1)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, cell_size=0.0)

    def test_max_boundary_folds_into_last_cell(self):
        assert SPEC.cell_of(21.0, 11.0) == (139, 39)


class TestDiscretize:
    def test_min_corner(self):
        key = discretize(Pose(-21.0, -1.0, 0.0), Gear.FORWARD, SPEC)
        assert key == CellKey(0, 0, 0, Gear.FORWARD)

    def test_nearby_poses_share_cell(self):
        a = discretize(Pose(0.10, 0.10, 0.3), Gear.FORWARD, SPEC)
        b = discretize(Pose(0.11, 0.11, 0.3), Gear.FORWARD, SPEC)
        assert a == b

    def test_heading_wraparound(self):
        a = discretize(Pose(0, 0, -math.pi + 1e-9), Gear.FORWARD, SPEC)
        b = discretize(Pose(0, 0, math.pi), Gear.FORWARD, SPEC)
        assert a.itheta == b.itheta

    def test_gear_distinguishes_keys(self):
        a = discretize(Pose(0, 0, 0), Gear.FORWARD, SPEC)
        b = discretize(Pose(0, 0, 0), Gear.REVERSE, SPEC)
        assert a != b and a[:3] == b[:3]

    def test_out_of_workspace_raises(self):
        with pytest.raises(ValueError, match="outside workspace"):
            discretize(Pose(-30.0, 0.0, 0.0), Gear.FORWARD, SPEC)


class TestOccupancy:
    SMALL = GridSpec(0.0, 3.0, 0.0, 3.0, cell_size=0.5, heading_bins=8)

    def test_empty(self):
        mask = build_occupancy(self.SMALL, ObstacleSet([]))
        assert not mask.any()

    def test_point_at_cell_center_blocks_exactly_that_cell(self):
        center = cell_center(self.SMALL, 2, 1)
        mask = build_occupancy(self.SMALL, ObstacleSet([center]))
        assert mask[2, 1]
        assert mask.sum() == 1

    def test_matches_cell_of_loop(self):
        # the max bounds fold into the last cell; points outside the
        # workspace and NaN points block nothing
        spec = GridSpec(-1.0, 2.9, 0.5, 3.2, cell_size=0.3, heading_bins=8)
        rng = random.Random(31)
        edges = [
            (spec.x_max, 1.0), (0.0, spec.y_max), (spec.x_max, spec.y_max),
            (spec.x_min, spec.y_min), (spec.x_max + 1e-12, 1.0), (0.0, spec.y_min - 1e-12),
            (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-0.7, 1.1), (0.2, 1.4),
        ]
        clouds = [[p] for p in edges] + [
            [(rng.uniform(-1.5, 3.4), rng.uniform(0.0, 3.7)) for _ in range(30)]
            for _ in range(20)
        ]
        for pts in clouds:
            expected = np.zeros((spec.nx, spec.ny), dtype=bool)
            for px, py in pts:
                if spec.contains(px, py):
                    expected[spec.cell_of(px, py)] = True
            assert (build_occupancy(spec, ObstacleSet(pts)) == expected).all(), pts


def random_mask(rng, nx, ny, fill):
    mask = np.zeros((nx, ny), dtype=bool)
    for ix in range(nx):
        for iy in range(ny):
            if rng.random() < fill:
                mask[ix, iy] = True
    return mask


class TestDijkstraField:
    def test_goal_cell_zero(self):
        spec = GridSpec(0, 5, 0, 5, cell_size=0.5, heading_bins=8)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (2.3, 2.3), (2.3, 2.3))
        assert field.lookup(2.3, 2.3) == 0.0

    def test_blocked_goal_reads_inf_everywhere(self):
        spec = GridSpec(0, 5, 0, 5, cell_size=0.5, heading_bins=8)
        mask = np.zeros((spec.nx, spec.ny), bool)
        mask[spec.cell_of(2.3, 2.3)] = True
        field = dijkstra_field(spec, mask, (2.3, 2.3), (0.1, 0.1))
        assert all(
            math.isinf(field.at(ix, iy)) for ix in range(spec.nx) for iy in range(spec.ny)
        )
        assert np.isinf(field.values).all()

    def test_empty_map_equals_octile(self):
        spec = GridSpec(0, 8, 0, 6, cell_size=0.5, heading_bins=8)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (1.2, 3.1), (1.2, 3.1))
        gx, gy = spec.cell_of(1.2, 3.1)
        for ix in range(spec.nx):
            for iy in range(spec.ny):
                expected = octile(ix - gx, iy - gy, spec.cell_size)
                assert field.at(ix, iy) == pytest.approx(expected, abs=1e-9)

    def test_enclosed_region_unreachable(self):
        spec = GridSpec(0, 5, 0, 5, cell_size=0.5, heading_bins=8)
        mask = np.zeros((spec.nx, spec.ny), bool)
        gx, gy = spec.cell_of(2.3, 2.3)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    mask[gx + dx, gy + dy] = True
        field = dijkstra_field(spec, mask, (2.3, 2.3), (2.3, 2.3))
        assert math.isinf(field.at(0, 0))
        assert field.at(gx, gy) == 0.0

    def test_matches_bellman_ford_oracle_exactly(self):
        rng = random.Random(2024)
        for trial in range(20):
            nx, ny = rng.randint(4, 20), rng.randint(4, 20)
            spec = GridSpec(0, nx * 0.3, 0, ny * 0.3, cell_size=0.3, heading_bins=8)
            assert (spec.nx, spec.ny) == (nx, ny)
            mask = random_mask(rng, nx, ny, fill=0.25)
            free = [(ix, iy) for ix in range(nx) for iy in range(ny) if not mask[ix, iy]]
            gx, gy = rng.choice(free)
            goal_xy = cell_center(spec, gx, gy)
            field = dijkstra_field(spec, mask, goal_xy, goal_xy)
            expected = bellman_ford_field(nx, ny, mask.tolist(), (gx, gy), spec.cell_size)
            for ix in range(nx):
                for iy in range(ny):
                    assert field.at(ix, iy) == expected[ix][iy], (trial, ix, iy)

    def test_monotone_under_extra_blocks(self):
        rng = random.Random(9)
        spec = GridSpec(0, 4.5, 0, 4.5, cell_size=0.3, heading_bins=8)
        mask = random_mask(rng, spec.nx, spec.ny, fill=0.1)
        gx, gy = 7, 7
        mask[gx, gy] = False
        goal_xy = cell_center(spec, gx, gy)
        before = dijkstra_field(spec, mask, goal_xy, goal_xy)
        more = mask.copy()
        free = [(ix, iy) for ix in range(spec.nx) for iy in range(spec.ny)
                if not mask[ix, iy] and (ix, iy) != (gx, gy)]
        for ix, iy in rng.sample(free, 10):
            more[ix, iy] = True
        after = dijkstra_field(spec, more, goal_xy, goal_xy)
        for ix in range(spec.nx):
            for iy in range(spec.ny):
                assert after.at(ix, iy) >= before.at(ix, iy) - 1e-12, (ix, iy)

    def test_neighbor_consistency_with_obstacles(self):
        # adjacent free cells differ by at most the edge cost; this is the
        # relaxation property that keeps the field usable as a heuristic
        rng = random.Random(10)
        spec = GridSpec(0, 6, 0, 6, cell_size=0.5, heading_bins=8)
        mask = random_mask(rng, spec.nx, spec.ny, fill=0.2)
        mask[4, 4] = False
        goal_xy = cell_center(spec, 4, 4)
        field = dijkstra_field(spec, mask, goal_xy, goal_xy)
        diag = spec.cell_size * math.sqrt(2.0)
        for ix in range(spec.nx):
            for iy in range(spec.ny):
                if mask[ix, iy]:
                    continue
                for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
                    jx, jy = ix + dx, iy + dy
                    if not (0 <= jx < spec.nx and 0 <= jy < spec.ny) or mask[jx, jy]:
                        continue
                    a, b = field.at(ix, iy), field.at(jx, jy)
                    assert math.isinf(a) == math.isinf(b)
                    if not math.isinf(a):
                        cost = spec.cell_size if dx * dy == 0 else diag
                        assert abs(a - b) <= cost + 1e-9

    def test_octile_triangle_inequality_on_empty_map(self):
        # for arbitrary cell pairs the bound only holds without obstacles
        # (octile is a free-space distance); with walls between a and b the
        # field may legitimately exceed field(b) + octile(a, b)
        spec = GridSpec(0, 6, 0, 6, cell_size=0.5, heading_bins=8)
        goal_xy = cell_center(spec, 4, 4)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), goal_xy, goal_xy)
        cells = [(ix, iy) for ix in range(spec.nx) for iy in range(spec.ny)]
        for a in cells:
            for b in cells:
                lhs = field.at(*a)
                rhs = field.at(*b) + octile(a[0] - b[0], a[1] - b[1], spec.cell_size)
                assert lhs <= rhs + 1e-9


class TestLazyField:
    def test_reads_in_any_order_equal_bellman_ford(self):
        rng = random.Random(77)
        for trial in range(10):
            nx, ny = rng.randint(4, 18), rng.randint(4, 18)
            spec = GridSpec(0, nx * 0.3, 0, ny * 0.3, cell_size=0.3, heading_bins=8)
            mask = random_mask(rng, nx, ny, fill=0.3)
            free = [(ix, iy) for ix in range(nx) for iy in range(ny) if not mask[ix, iy]]
            gx, gy = rng.choice(free)
            goal_xy = cell_center(spec, gx, gy)
            field = dijkstra_field(spec, mask, goal_xy, goal_xy)
            expected = bellman_ford_field(nx, ny, mask.tolist(), (gx, gy), spec.cell_size)
            cells = [(ix, iy) for ix in range(nx) for iy in range(ny)] * 2
            rng.shuffle(cells)
            for ix, iy in cells:
                assert field.at(ix, iy) == expected[ix][iy], (trial, ix, iy)

    def test_values_hold_only_settled_labels(self):
        spec = GridSpec(0, 6, 0, 6, cell_size=0.3, heading_bins=8)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (3.1, 3.1), (4.0, 3.1))
        settled = np.isfinite(field.values)
        assert settled[spec.cell_of(4.0, 3.1)]
        assert 1 < settled.sum() < spec.nx * spec.ny
        for ix, iy in zip(*np.nonzero(settled)):
            assert field.values[ix, iy] == field.at(ix, iy)

    def test_read_near_goal_settles_few_cells(self):
        spec = GridSpec(0, 120, 0, 40.2, cell_size=0.3, heading_bins=8)
        assert (spec.nx, spec.ny) == (400, 134)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (60.1, 20.1), (60.1, 20.1))
        assert field.lookup(63.1, 20.1) == pytest.approx(3.0)
        assert np.isfinite(field.values).sum() < 0.02 * spec.nx * spec.ny


@st.composite
def field_cases(draw):
    """(spec, mask, goal cell, start cell, reads): a random mask or a
    serpentine corridor, cells from 0.01 m up, a free goal, and a start that
    may be the goal, blocked, or walled off."""
    cell = draw(st.sampled_from((0.01, 0.05, 0.3, 1.0)) | st.floats(0.01, 3.0))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        fill = draw(st.sampled_from((0.0, 0.2, 0.4)))
        bits = draw(st.lists(st.floats(0.0, 1.0), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(bits).reshape(nx, ny) < fill
    else:
        # every odd column a wall with one gap, at the top and the bottom in
        # turn: a single corridor of about nx * ny / 2 cells
        nx, ny = draw(st.integers(3, 25)), draw(st.integers(2, 25))
        mask = np.zeros((nx, ny), dtype=bool)
        for ix in range(1, nx, 2):
            mask[ix, :] = True
            mask[ix, ny - 1 if ix % 4 == 1 else 0] = False
    cells = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    goal = draw(cells)
    mask[goal] = False
    start = draw(cells)
    if start != goal and draw(st.booleans()):
        mask[start] = True
    elif draw(st.booleans()):
        sx, sy = start
        for ix in range(max(0, sx - 1), min(nx, sx + 2)):
            for iy in range(max(0, sy - 1), min(ny, sy + 2)):
                if (ix, iy) not in (start, goal):
                    mask[ix, iy] = True
    spec = GridSpec(0.0, nx * cell, 0.0, ny * cell, cell_size=cell, heading_bins=8)
    reads = draw(st.lists(cells, max_size=3 * nx * ny))
    return spec, mask, goal, start, reads


class TestGoalDirectedField:
    @settings(max_examples=300, deadline=None)
    @given(field_cases())
    def test_every_read_equals_bellman_ford(self, case):
        spec, mask, goal, start, reads = case
        assert (spec.nx, spec.ny) == mask.shape
        field = dijkstra_field(spec, mask, cell_center(spec, *goal), cell_center(spec, *start))
        expected = bellman_ford_field(spec.nx, spec.ny, mask.tolist(), goal, spec.cell_size)
        for ix, iy in reads:
            assert field.at(ix, iy) == expected[ix][iy], (ix, iy)
        values = field.values
        assert not values.flags.writeable
        for ix, iy in zip(*np.nonzero(np.isfinite(values))):
            assert values[ix, iy] == field.at(ix, iy) == expected[ix][iy]
        for ix, iy in [start, *reads]:
            if not math.isinf(expected[ix][iy]):
                assert values[ix, iy] == expected[ix][iy]

    def test_sweep_heads_for_the_start(self):
        # On an empty grid only the cells on the straight line from the goal
        # to the start have label + octile distance to the start equal to the
        # goal-start distance; every other cell pops later, after the start.
        spec = GridSpec(0, 120, 0, 40.2, cell_size=0.3, heading_bins=8)
        field = dijkstra_field(spec, np.zeros((spec.nx, spec.ny), bool), (60.1, 20.1), (70.0, 20.1))
        assert field.lookup(70.0, 20.1) == pytest.approx(33 * 0.3)
        assert np.isfinite(field.values).sum() <= 34


class TestFieldLookup:
    SPEC = GridSpec(0, 5, 0, 5, cell_size=0.5, heading_bins=8)

    def _field(self, mask=None):
        if mask is None:
            mask = np.zeros((self.SPEC.nx, self.SPEC.ny), bool)
        return dijkstra_field(self.SPEC, mask, (2.3, 2.3), (2.3, 2.3))

    def test_goal_zero(self):
        assert self._field().lookup(2.3, 2.3) == 0.0

    def test_same_cell_same_value(self):
        field = self._field()
        assert field.lookup(1.01, 1.01) == field.lookup(1.24, 1.24)

    def test_blocked_cell_is_inf(self):
        mask = np.zeros((self.SPEC.nx, self.SPEC.ny), bool)
        mask[0, 0] = True
        assert math.isinf(self._field(mask).lookup(0.1, 0.1))

    def test_outside_raises(self):
        with pytest.raises(ValueError, match="outside workspace"):
            self._field().lookup(9.0, 0.0)

    @pytest.mark.parametrize("cell", [(0, 9), (-2, 0), (6, 0), (0, 6), (0, -1), (99, 99)])
    def test_cell_index_outside_the_grid_raises(self, cell):
        # A flat index past the last column would land on the next row's
        # cells, (0, 9) on (1, 1), and a negative one on the padding.
        spec = GridSpec(0, 1.8, 0, 1.8, cell_size=0.3, heading_bins=8)
        assert (spec.nx, spec.ny) == (6, 6)
        field = dijkstra_field(spec, np.zeros((6, 6), bool), (0.1, 0.1), (1.7, 1.7))
        with pytest.raises(IndexError, match=re.escape(f"cell {cell}")):
            field.at(*cell)
