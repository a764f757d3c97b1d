import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhhastar.geometry import Pose, VehicleGeometry, normalize_angle
from mhhastar.vehicle import (
    Arc,
    Gear,
    PenaltyConfig,
    Primitive,
    advance_arc,
    arc_poses,
    arc_steps,
    bisection_order,
    primitive_table,
    step_cost,
    successors,
)

from oracles import rk4_arc

WHEELBASE = 2.7
PHI_MAX = 0.6
TABLE = primitive_table(0.5, (-0.6, 0.0, 0.6), WHEELBASE)


def arc_step(start, gear, steering, ds):
    """One primitive's endpoint, as `successors` computes it."""
    return advance_arc(start, gear, math.tan(steering) / WHEELBASE, ds)


class TestGear:
    def test_labels(self):
        assert [gear.label for gear in Gear] == ["F", "R"]


class TestLimits:
    def test_turning_radius(self):
        vehicle = VehicleGeometry(4.7, 2.0, 2.7, 1.0, phi_max=0.6)
        assert vehicle.turning_radius == pytest.approx(2.7 / math.tan(0.6))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="phi_max"):
            VehicleGeometry(4.7, 2.0, 2.7, 1.0, phi_max=0.0)


class TestArcStep:
    def test_straight_forward(self):
        end = arc_step(Pose(0, 0, 0), Gear.FORWARD, 0.0, 1.0)
        assert (end.x, end.y, end.theta) == (1.0, 0.0, 0.0)

    def test_straight_reverse(self):
        end = arc_step(Pose(0, 0, 0), Gear.REVERSE, 0.0, 1.0)
        assert (end.x, end.y, end.theta) == (-1.0, 0.0, 0.0)

    def test_quarter_turn_closed_form(self):
        radius = WHEELBASE / math.tan(PHI_MAX)
        end = arc_step(Pose(0, 0, 0), Gear.FORWARD, PHI_MAX, radius * math.pi / 2)
        assert end.x == pytest.approx(radius, abs=1e-12)
        assert end.y == pytest.approx(radius, abs=1e-12)
        assert end.theta == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("steering", [-0.6, -0.25, 0.1, 0.6])
    @pytest.mark.parametrize("gear", [Gear.FORWARD, Gear.REVERSE])
    def test_matches_numerical_integration(self, steering, gear):
        start = Pose(0.4, -1.2, 0.8)
        ds = 2.5
        end = arc_step(start, gear, steering, ds)
        x, y, theta = rk4_arc(start, gear, steering, ds, WHEELBASE)
        assert end.x == pytest.approx(x, abs=1e-6)
        assert end.y == pytest.approx(y, abs=1e-6)
        assert abs(normalize_angle(end.theta - theta)) < 1e-6

    @given(
        st.floats(-0.6, 0.6),
        st.floats(0.1, 3.0),
        st.sampled_from([Gear.FORWARD, Gear.REVERSE]),
        st.floats(-3.0, 3.0),
    )
    def test_composition(self, steering, ds, gear, theta0):
        start = Pose(0.0, 0.0, theta0)
        two_steps = arc_step(arc_step(start, gear, steering, ds), gear, steering, ds)
        one_step = arc_step(start, gear, steering, 2 * ds)
        assert two_steps.x == pytest.approx(one_step.x, abs=1e-9)
        assert two_steps.y == pytest.approx(one_step.y, abs=1e-9)
        assert abs(normalize_angle(two_steps.theta - one_step.theta)) < 1e-9

    @given(
        st.floats(-0.6, 0.6),
        st.floats(0.1, 3.0),
        st.sampled_from([Gear.FORWARD, Gear.REVERSE]),
    )
    def test_forward_then_reverse_returns(self, steering, ds, gear):
        start = Pose(0.7, -0.3, 1.1)
        out = arc_step(start, gear, steering, ds)
        back = arc_step(out, Gear(-int(gear)), steering, ds)
        assert back.x == pytest.approx(start.x, abs=1e-9)
        assert back.y == pytest.approx(start.y, abs=1e-9)
        assert abs(normalize_angle(back.theta - start.theta)) < 1e-9


class TestArcPoses:
    START = Pose(1.0, -2.0, 0.3)

    @pytest.mark.parametrize("length, count", [(0.6, 7), (0.50000000005, 6)])
    @pytest.mark.parametrize("gear", list(Gear))
    def test_arc_ends_exactly_at_its_length(self, length, count, gear):
        # 0.6 / 0.1 rounds below 6 and 6 * 0.1 overshoots 0.6; 0.50000000005
        # lies within the 1e-9 slack of 0.5. Neither may shift the end.
        arc = Arc(gear, math.tan(PHI_MAX) / WHEELBASE, length)
        poses = list(arc_poses(self.START, [arc], 0.1))
        assert len(poses) == count
        assert poses[-1] == (advance_arc(self.START, gear, arc.curvature, length), gear)
        for k, (pose, _) in enumerate(poses[1:-1], start=1):
            assert pose == advance_arc(self.START, gear, arc.curvature, k * 0.1)

    def test_next_arc_starts_at_exact_end(self):
        first = Arc(Gear.FORWARD, 0.2, 0.6)
        second = Arc(Gear.REVERSE, -0.3, 0.25)
        poses = list(arc_poses(self.START, [first, second], 0.1))
        joint = advance_arc(self.START, first.gear, first.curvature, first.length)
        assert poses[6] == (joint, Gear.FORWARD)
        assert poses[7:] == [
            (advance_arc(joint, second.gear, second.curvature, ds), Gear.REVERSE)
            for ds in (0.1, 0.2, 0.25)
        ]

    def test_no_arcs_yields_the_start(self):
        assert list(arc_poses(self.START, [], 0.1)) == [(self.START, Gear.FORWARD)]

    @pytest.mark.parametrize("length", [0.0, 0.05, 0.1, 0.25, 0.50000000005, 0.6, 1.2])
    def test_arc_steps_counts_the_poses_after_the_start(self, length):
        poses = list(arc_poses(self.START, [Arc(Gear.REVERSE, 0.2, length)], 0.1))
        assert len(poses) == 1 + arc_steps(length, 0.1)


class TestBisectionOrder:
    def test_is_a_permutation_starting_at_zero(self):
        assert list(bisection_order(0)) == []
        for n in range(1, 301):
            order = list(bisection_order(n))
            assert order[0] == 0
            assert sorted(order) == list(range(n)), n

    def test_halves_before_quarters(self):
        assert list(bisection_order(8)) == [0, 4, 2, 6, 1, 3, 5, 7]
        assert list(bisection_order(5)) == [0, 2, 1, 3, 4]


class TestPrimitiveTable:
    def test_forward_before_reverse_in_listed_order(self):
        table = primitive_table(0.5, (0.3, -0.6, 0.0), WHEELBASE)
        assert [(p.arc.gear, p.steering) for p in table] == [
            (gear, steer) for gear in (Gear.FORWARD, Gear.REVERSE) for steer in (0.3, -0.6, 0.0)
        ]

    def test_every_arc_has_the_set_length(self):
        assert {p.arc.length for p in TABLE} == {0.5}

    def test_curvature_is_tan_steering_over_wheelbase_bit_for_bit(self):
        for wheelbase in (WHEELBASE, 0.2, 3.1):
            steering = (-0.6, -0.17, 0.0, 1e-9, 0.41, 0.6)
            table = primitive_table(0.5, steering, wheelbase)
            assert [p.arc.curvature for p in table] == [
                math.tan(s) / wheelbase for _ in Gear for s in steering
            ]


class TestSuccessors:
    def test_one_end_pose_per_primitive_in_table_order(self):
        start = Pose(1, 2, 0.4)
        steps = successors(start, TABLE)
        assert [primitive for primitive, _ in steps] == list(TABLE)
        assert [end for _, end in steps] == [advance_arc(start, *p.arc) for p in TABLE]

    def test_chord_no_longer_than_arc(self):
        for _, end in successors(Pose(1, 2, 0.4), TABLE):
            assert math.dist((1, 2), (end.x, end.y)) <= 0.5 + 1e-12

    def test_straight_forward_step_present(self):
        straight, end = successors(Pose(0, 0, 0), TABLE)[1]
        assert straight.steering == 0.0
        assert (end.x, end.y, end.theta) == (0.5, 0.0, 0.0)


class TestStepCost:
    PEN = PenaltyConfig(reverse_mult=2.0, switchback=5.0, steer_change=1.0, steer_hold=0.0)

    @staticmethod
    def step(gear, steering, length=1.0):
        """A primitive as `primitive_table` builds it."""
        return Primitive(steering, Arc(gear, math.tan(steering) / WHEELBASE, length))

    def test_plain_forward(self):
        pen = PenaltyConfig(reverse_mult=2.0, switchback=5.0, steer_change=1.0)
        assert step_cost(self.step(Gear.FORWARD, 0.0), None, pen) == 1.0

    def test_reverse_multiplier(self):
        assert step_cost(self.step(Gear.REVERSE, 0.0), None, self.PEN) == 2.0

    def test_switchback_penalty(self):
        prev = self.step(Gear.REVERSE, 0.0)
        cost = step_cost(self.step(Gear.FORWARD, 0.0), prev, self.PEN)
        assert cost == 1.0 + 5.0

    def test_steer_change_penalty(self):
        prev = self.step(Gear.FORWARD, 0.6)
        cost = step_cost(self.step(Gear.FORWARD, -0.6), prev, self.PEN)
        assert cost == pytest.approx(1.0 + 1.2)

    def test_steer_hold_penalty(self):
        pen = PenaltyConfig(reverse_mult=1.0, switchback=0.0, steer_change=0.0, steer_hold=2.0)
        assert step_cost(self.step(Gear.FORWARD, 0.5), None, pen) == pytest.approx(2.0)

    def test_table_primitives(self):
        forward_left, _, _, reverse_left, reverse_straight, _ = TABLE
        assert step_cost(reverse_straight, None, self.PEN) == 1.0
        assert step_cost(reverse_left, forward_left, self.PEN) == 1.0 + 5.0
        assert step_cost(reverse_straight, reverse_left, self.PEN) == pytest.approx(1.0 + 0.6)

    def test_cost_at_least_length(self):
        rng = random.Random(5)
        for _ in range(500):
            pen = PenaltyConfig(
                reverse_mult=rng.uniform(1.0, 4.0),
                switchback=rng.uniform(0.0, 10.0),
                steer_change=rng.uniform(0.0, 5.0),
                steer_hold=rng.uniform(0.0, 3.0),
            )
            gear = rng.choice([Gear.FORWARD, Gear.REVERSE])
            prev = self.step(rng.choice([Gear.FORWARD, Gear.REVERSE]), rng.uniform(-0.6, 0.6))
            step = self.step(gear, rng.uniform(-0.6, 0.6), rng.uniform(0.1, 2.0))
            assert step_cost(step, prev, pen) >= step.arc.length
