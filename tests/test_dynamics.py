import math

import numpy as np
import pytest

from reachavoid import (Control, DomainError, InfeasibleTargetError,
                        PlayerParams, PlayerState, Vec2, isochron, propagate,
                        steer_to)
from reachavoid.dynamics import steer_controls


def rest(x=0.0, y=0.0):
    return PlayerState(Vec2(x, y), Vec2(0.0, 0.0))


class TestPropagate:
    def test_zero_input_rest_stays_put(self, params):
        st = propagate(rest(), params, Control(0.0, 1.3), 5.0)
        assert st.pos == Vec2(0.0, 0.0)
        assert st.vel == Vec2(0.0, 0.0)

    def test_unit_thrust_one_second(self, params):
        # closed form: vel = 1 - 1/e, pos = 1/e at t = 1
        st = propagate(rest(), params, Control(1.0, 0.0), 1.0)
        assert st.vel.x == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert st.vel.y == 0.0
        assert st.pos.x == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_damped_coast_limit(self, params):
        st = propagate(PlayerState(Vec2(0, 0), Vec2(1, 0)), params,
                       Control(0.0, 0.0), 60.0)
        assert st.pos.x == pytest.approx(1.0, abs=1e-12)
        assert st.vel.norm() < 1e-20

    def test_negative_time_rejected(self, params):
        with pytest.raises(DomainError):
            propagate(rest(), params, Control(0.5, 0.0), -0.1)

    def test_control_above_bound_rejected(self, params):
        with pytest.raises(DomainError):
            propagate(rest(), params, Control(1.5, 0.0), 1.0)

    def test_semigroup(self, params):
        rng = np.random.default_rng(7)
        for _ in range(60):
            st = PlayerState(Vec2(*rng.uniform(-2, 2, 2)),
                             Vec2(*rng.uniform(-0.9, 0.9, 2)))
            ctrl = Control(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            t1, t2 = rng.uniform(0, 5, 2)
            a = propagate(propagate(st, params, ctrl, t1), params, ctrl, t2)
            b = propagate(st, params, ctrl, t1 + t2)
            assert abs(a.pos.x - b.pos.x) < 1e-12
            assert abs(a.pos.y - b.pos.y) < 1e-12
            assert abs(a.vel.x - b.vel.x) < 1e-12
            assert abs(a.vel.y - b.vel.y) < 1e-12

    def test_speed_bound(self, params):
        rng = np.random.default_rng(8)
        for _ in range(40):
            st = PlayerState(Vec2(0, 0), Vec2(*rng.uniform(-0.7, 0.7, 2)))
            ctrl = Control(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 6)
            v = propagate(st, params, ctrl, t).vel.norm()
            # envelope: initial speed decays while thrust fills in the cap
            decay = math.exp(-params.mu * t)
            bound = st.vel.norm() * decay + params.speed_cap * (1.0 - decay)
            assert v <= bound + 1e-12


class TestIsochron:
    def test_rest_zero_time(self, params):
        iso = isochron(rest(0.3, -0.4), params, 0.0)
        assert iso.center == Vec2(0.3, -0.4)
        assert iso.radius == 0.0

    def test_moving_player_one_second(self, params):
        iso = isochron(PlayerState(Vec2(0, 0), Vec2(1, 0)), params, 1.0)
        assert iso.center.x == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert iso.radius == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_radius_ratio_matches_accel_ratio(self):
        pa = PlayerParams(u_max=0.7, mu=1.3)
        pd = PlayerParams(u_max=2.1, mu=1.3)
        st = rest()
        for t in (0.1, 0.7, 2.5, 9.0):
            ra = isochron(st, pa, t).radius
            rd = isochron(st, pd, t).radius
            assert ra / rd == pytest.approx(0.7 / 2.1, abs=1e-12)

    def test_boundary_attainment(self, params):
        # saturated constant-heading motion lands exactly on the circle
        rng = np.random.default_rng(9)
        for _ in range(50):
            st = PlayerState(Vec2(*rng.uniform(-2, 2, 2)),
                             Vec2(*rng.uniform(-0.9, 0.9, 2)))
            theta = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0.01, 5)
            iso = isochron(st, params, t)
            pos = propagate(st, params, Control(1.0, theta), t).pos
            assert abs((pos - iso.center).norm() - iso.radius) < 1e-12


def piecewise_positions(state, params, segments, ts):
    """Exact positions at absolute times `ts` under a piecewise-constant control.

    Independent containment oracle: splits each query time into completed
    segments plus a partial one and chains the closed form.
    """
    out = []
    for t in ts:
        st = state
        elapsed = 0.0
        for dur, ctrl in segments:
            step = min(dur, t - elapsed)
            if step <= 0:
                break
            st = propagate(st, params, ctrl, step)
            elapsed += step
        out.append(st.pos)
    return out


class TestContainment:
    def test_random_profiles_stay_inside_isochron(self, params):
        # reachable-set containment, checked empirically over bang-bang inputs
        rng = np.random.default_rng(10)
        for _ in range(20):
            st = PlayerState(Vec2(*rng.uniform(-1, 1, 2)),
                             Vec2(*rng.uniform(-0.9, 0.9, 2)))
            for _ in range(100):
                n_seg = rng.integers(1, 6)
                segs = [(rng.uniform(0.05, 1.0),
                         Control(rng.uniform(0, 1.0),
                                 rng.uniform(0, 2 * math.pi)))
                        for _ in range(n_seg)]
                total = sum(d for d, _ in segs)
                ts = np.linspace(total / 7, total, 7)
                for t, pos in zip(ts, piecewise_positions(st, params, segs, ts)):
                    iso = isochron(st, params, float(t))
                    assert (pos - iso.center).norm() <= iso.radius + 1e-9


class TestSteerTo:
    def test_drift_point_needs_no_thrust(self, params):
        st = PlayerState(Vec2(0.2, -0.1), Vec2(0.5, 0.3))
        iso = isochron(st, params, 2.0)
        ctrl = steer_to(st, params, iso.center, 2.0)
        assert ctrl.u == pytest.approx(0.0, abs=1e-15)

    def test_inverse_of_radius_formula(self, params):
        ctrl = steer_to(rest(), params, Vec2(math.exp(-1.0), 0.0), 1.0)
        assert ctrl.u == pytest.approx(1.0, abs=1e-12)
        assert ctrl.theta == pytest.approx(0.0, abs=1e-12)

    def test_boundary_target_saturates_and_round_trips(self, params):
        rng = np.random.default_rng(11)
        for _ in range(40):
            st = PlayerState(Vec2(*rng.uniform(-2, 2, 2)),
                             Vec2(*rng.uniform(-0.9, 0.9, 2)))
            t = rng.uniform(0.05, 4)
            iso = isochron(st, params, t)
            ang = rng.uniform(0, 2 * math.pi)
            target = iso.center + Vec2.from_polar(iso.radius, ang)
            ctrl = steer_to(st, params, target, t)
            assert ctrl.u == pytest.approx(1.0, abs=1e-9)
            landed = propagate(st, params, ctrl, t).pos
            assert (landed - target).norm() < 1e-9

    def test_outside_disc_rejected(self, params):
        st = rest()
        iso = isochron(st, params, 1.0)
        with pytest.raises(InfeasibleTargetError):
            steer_to(st, params, Vec2(iso.radius * 1.01, 0.0), 1.0)

    def test_tiny_time_with_distant_target_rejected(self, params):
        with pytest.raises(InfeasibleTargetError):
            steer_to(rest(), params, Vec2(1.0, 0.0), 1e-12)

    def test_slightly_outside_clamps_to_boundary(self, params):
        st = rest()
        iso = isochron(st, params, 1.0)
        ctrl = steer_to(st, params, Vec2(iso.radius + 5e-10, 0.0), 1.0)
        assert ctrl.u == 1.0

    def test_array_formula_equals_float_calls(self, params):
        # targets inside, on and beyond the disc, at the drift point, and at
        # times and thrusts that leave a zero radius
        rng = np.random.default_rng(12)
        st = PlayerState(Vec2(0.2, -0.1), Vec2(0.5, 0.3))
        for par in (params, PlayerParams(0.7, 0.005), PlayerParams(0.0, 1.0)):
            t = np.concatenate([rng.uniform(0.01, 4.0, 400), [1e-300, 1e-12]])
            x, y = np.empty_like(t), np.empty_like(t)
            for i, ti in enumerate(t.tolist()):
                iso = isochron(st, par, ti)
                k = (0.0, 1.0, 2.0, rng.uniform())[i % 4]
                p = iso.center + Vec2.from_polar(k * iso.radius + (i % 3) * 6e-10,
                                                 rng.uniform(-4.0, 4.0))
                x[i], y[i] = p.x, p.y
            rows = zip(*(a.tolist() for a in steer_controls(st, par, x, y, t)))
            accepted = 0
            for xi, yi, ti, row in zip(x.tolist(), y.tolist(), t.tolist(), rows):
                assert row == steer_controls(st, par, xi, yi, ti)
                try:
                    ctrl = steer_to(st, par, Vec2(xi, yi), ti)
                except InfeasibleTargetError:
                    continue
                accepted += 1
                assert ctrl == Control(row[0], row[1])
            assert 0 < accepted < len(t)


class TestControlNormalization:
    def test_theta_wraps(self):
        assert Control(0.1, -math.pi).theta == pytest.approx(math.pi)
        assert Control(0.1, 2 * math.pi + 0.25).theta == pytest.approx(0.25)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            Control(-0.1, 0.0)
