import math

import numpy as np
import pytest

import reachavoid.engine
from golden import record
from golden.record import GAMES
from reachavoid import (AttackerWinsError, Control, InfeasibleTargetError,
                        PlayerParams, PlayerState, Vec2, apollonius_circle,
                        apollonius_plan, best_r3_point, boundary_minima,
                        can_reach_target, choose_plan, find_zero,
                        hamiltonian_check, plan_for_point, propagate,
                        pure_pursuit, r3_certificates, reach_times, run,
                        steer_to, strategy_one)
from reachavoid.dominance import CROSSING_SAMPLES, clearance_at
from reachavoid.strategies import first_unsafe_crossing

from conftest import make_cfg, random_player


class TestStrategyOne:
    def test_case3_matches_closed_form(self, case3):
        plan = strategy_one(case3)
        assert plan.point.x == pytest.approx(-0.3082678093, abs=1e-6)
        assert plan.point.y == pytest.approx(0.1156004285, abs=1e-6)
        assert plan.payoff == pytest.approx(0.3292301647, abs=1e-8)
        assert plan.h_zero is True

    def test_simultaneous_arrival(self, case2):
        plan = strategy_one(case2)
        a = propagate(case2.attacker, case2.attacker_params,
                      plan.attacker_ctrl, plan.t_f)
        d = propagate(case2.defender, case2.defender_params,
                      plan.defender_ctrl, plan.t_f)
        assert (a.pos - plan.point).norm() < 1e-6
        assert (d.pos - plan.point).norm() < 1e-6
        assert plan.defender_ctrl.u == pytest.approx(2.0, abs=1e-6)
        assert plan.attacker_ctrl.u == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_instance_minimizes_on_axis(self):
        cfg = make_cfg((0.0, -1.0), (0.0, 0.0), (0.0, -2.0), (0.0, 0.0))
        plan = strategy_one(cfg)
        assert abs(plan.point.x) < 1e-9

    def test_minimizer_stable_under_sampling_refinement(self, case1):
        coarse = boundary_minima(case1, samples=512)[0]
        fine = boundary_minima(case1, samples=1024)[0]
        assert abs(coarse.payoff - fine.payoff) < 1e-4

    def test_attacker_winning_target_raises(self):
        cfg = make_cfg((-0.05, 0.0), (0.0, 0.0), (-3.0, 0.0), (0.0, 0.0))
        with pytest.raises(AttackerWinsError):
            strategy_one(cfg)


class TestHamiltonianCheck:
    def test_true_at_rest_minimum(self, case3):
        plan = apollonius_plan(case3)
        assert hamiltonian_check(case3, plan.point) is True

    def test_false_on_middle_time_match(self, special1):
        # the best boundary dip here matches the defender's middle reach time
        plan = strategy_one(special1)
        assert plan.h_zero is False

    def test_mirror_symmetry_preserves_verdict(self):
        cfg = make_cfg((0.9, 0.3), (0.0, 0.4), (1.3, -0.2), (-0.6, 0.5))
        mir = make_cfg((0.9, -0.3), (0.0, -0.4), (1.3, 0.2), (-0.6, -0.5))
        p = strategy_one(cfg)
        q = strategy_one(mir)
        assert (p.point - Vec2(q.point.x, -q.point.y)).norm() < 1e-6
        assert p.h_zero == q.h_zero

    def test_rejects_points_off_the_boundary(self, case3):
        with pytest.raises(ValueError):
            hamiltonian_check(case3, Vec2(5.0, 5.0))

    def test_true_across_random_at_rest_instances(self):
        rng = np.random.default_rng(51)
        done = 0
        while done < 12:
            xa = rng.uniform(-1.5, 1.5, 2)
            xd = rng.uniform(-1.5, 1.5, 2)
            if np.hypot(*(xa - xd)) < 0.3:
                continue
            cfg = make_cfg(tuple(xa), (0, 0), tuple(xd), (0, 0))
            try:
                plan = strategy_one(cfg)
            except AttackerWinsError:
                continue
            assert plan.h_zero is True
            done += 1


class TestMrrStrategy:
    def test_boundary_point_saturates(self, special1):
        picked = best_r3_point(special1)
        assert picked is not None
        point, t_arr, ctrl = picked
        # reduced thrust, strictly below the bound
        assert 0.0 < ctrl.u < special1.attacker_params.u_max
        landed = propagate(special1.attacker, special1.attacker_params,
                           ctrl, t_arr).pos
        assert (landed - point).norm() < 1e-9

    def test_matches_defender_middle_time(self, special1):
        point, t_arr, ctrl = best_r3_point(special1)
        td = reach_times(point, special1.defender,
                         special1.defender_params).expanded()
        assert t_arr == pytest.approx(td[1], abs=1e-9)

    def test_simultaneous_arrival_with_matching_defender(self, special1):
        point, t_arr, ctrl = best_r3_point(special1)
        d_ctrl = steer_to(special1.defender, special1.defender_params,
                          point, t_arr)
        a = propagate(special1.attacker, special1.attacker_params, ctrl, t_arr)
        d = propagate(special1.defender, special1.defender_params, d_ctrl, t_arr)
        assert (a.pos - d.pos).norm() < 1e-3

    def test_point_on_attacker_isochron_saturates(self, special1):
        # a pocket point exactly on the attacker's matched-time circle
        point, t_arr, _ = best_r3_point(special1)
        from reachavoid import isochron
        circ = isochron(special1.attacker, special1.attacker_params, t_arr)
        edge = circ.center + Vec2.from_polar(
            circ.radius, (point - circ.center).angle())
        ctrl = steer_to(special1.attacker, special1.attacker_params, edge, t_arr)
        assert ctrl.u == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("game, picked", [
        ("special1", (-0.22388347546658338, 0.01342464189396416, 0.6001814403602471,
                      0.6628433677129427, 5.709921028785019)),
        ("seed37", (0.3232045330908009, 0.17072796303108767, 0.5625215677718471,
                    1.0, 0.2758136836353387)),
        ("seed77", (0.20090890437937925, 0.09726511213925339, 0.3421624176618482,
                    1.0, 3.368983028002623)),
        ("seed140", (0.18511484835183775, 0.5373726824399934, 0.5656253384236716,
                     0.9999999998547828, 1.8061699547775756)),
        ("seed181", (0.2596268528279363, 0.07227815967756891, 0.07385012490163724,
                     0.9999999995631126, 2.594234092951092)),
    ])
    def test_pinned_picks(self, special1, game, picked):
        # (x, y, arrival time, u, theta) under best_r3_point's own timing rule
        # (t_A <= t_D2 + 1e-9); sharing `_r3_timing` moves the four seeds
        cfg = special1 if game == "special1" else record._seeded_game(int(game[4:]))[0]
        point, t_arr, ctrl = best_r3_point(cfg)
        assert (point.x, point.y, t_arr, ctrl.u, ctrl.theta) == picked


class TestPurePursuit:
    def test_attacker_heads_for_target(self):
        cfg = make_cfg((1.0, 0.0), (0, 0), (2.0, 2.0), (0, 0))
        ctrl = pure_pursuit(cfg, "attacker")
        assert ctrl.theta == pytest.approx(math.pi, abs=1e-12)
        assert ctrl.u == 1.0

    def test_defender_heads_for_attacker(self):
        cfg = make_cfg((1.0, 1.0), (0, 0), (0.0, 0.0), (0, 0))
        ctrl = pure_pursuit(cfg, "defender")
        assert ctrl.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert ctrl.u == 2.0

    def test_unknown_player_rejected(self, case3):
        with pytest.raises(ValueError):
            pure_pursuit(case3, "bystander")


class TestApolloniusPlan:
    def test_case3_circle_and_point(self, case3):
        center, radius = apollonius_circle(case3)
        assert center.x == pytest.approx(-0.5333333333, abs=1e-9)
        assert center.y == pytest.approx(0.2, abs=1e-12)
        assert radius == pytest.approx(0.2403700850, abs=1e-9)
        plan = apollonius_plan(case3)
        assert plan.point.x == pytest.approx(-0.3082678093, abs=1e-9)
        assert plan.point.y == pytest.approx(0.1156004285, abs=1e-9)

    def test_vanishing_ratio_limit(self):
        cfg = make_cfg((-0.6, 0.1), (0, 0), (-0.8, -0.2), (0, 0),
                       u_a=1e-4, u_d=2.0)
        center, radius = apollonius_circle(cfg)
        assert (center - cfg.attacker.pos).norm() < 1e-7
        assert radius < 1e-4

    def test_agreement_with_swept_minimum(self):
        rng = np.random.default_rng(52)
        done = 0
        while done < 20:
            xa = rng.uniform(-1.5, 1.5, 2)
            xd = rng.uniform(-1.5, 1.5, 2)
            if np.hypot(*(xa - xd)) < 0.3:
                continue
            cfg = make_cfg(tuple(xa), (0, 0), tuple(xd), (0, 0))
            try:
                closed = apollonius_plan(cfg)
                swept = strategy_one(cfg)
            except AttackerWinsError:
                continue
            assert (closed.point - swept.point).norm() < 1e-6
            done += 1

    def test_moving_player_rejected(self, case2):
        with pytest.raises(ValueError):
            apollonius_plan(case2)

    def test_target_inside_circle_raises(self):
        cfg = make_cfg((0.05, 0.0), (0, 0), (-1.5, 0.0), (0, 0))
        with pytest.raises(AttackerWinsError):
            apollonius_plan(cfg)


class TestCanReachTarget:
    def test_far_defender_yes(self):
        cfg = make_cfg((0.5, 0.0), (0, 0), (40.0, 40.0), (0, 0))
        ctrl = can_reach_target(cfg)
        assert ctrl is not None
        landed_t = reach_times(cfg.target, cfg.attacker,
                               cfg.attacker_params).first
        landed = propagate(cfg.attacker, cfg.attacker_params, ctrl, landed_t)
        assert (landed.pos - cfg.target).norm() < 1e-9

    def test_defender_in_the_way_no(self, case2):
        assert can_reach_target(case2) is None

    def test_r3_target_not_claimed(self, special1):
        # the straight saturated run cannot serve a pocket point: the check
        # only certifies first-region targets
        point, _, _ = best_r3_point(special1)
        cfg = make_cfg((-0.3457, 0.0517), (0.0862, 0.0338),
                       (-0.6728, -0.0455), (1.6534, 0.0907),
                       target=(point.x, point.y))
        assert can_reach_target(cfg) is None


class TestCostateRecord:
    def test_terminal_invariants(self, case3):
        from reachavoid import costate_record
        plan = strategy_one(case3)
        rec = costate_record(case3, plan)
        # velocity co-states vanish at the terminal time
        assert rec.lam[2] == rec.lam[3] == 0.0
        assert rec.gam[2] == rec.gam[3] == 0.0
        # the two position co-states sum to the unit target direction
        tx = plan.point.x / plan.payoff
        ty = plan.point.y / plan.payoff
        assert rec.lam[0] + rec.gam[0] == pytest.approx(tx, abs=1e-9)
        assert rec.lam[1] + rec.gam[1] == pytest.approx(ty, abs=1e-9)
        # equilibrium arrival sweeps outward, so the multiplier is positive
        assert rec.sigma > 0.0

    def test_position_costates_constant_in_time(self, case2):
        from reachavoid import costate_record
        plan = strategy_one(case2)
        recs = [costate_record(case2, plan, t=f * plan.t_f)
                for f in (0.0, 0.3, 0.8, 1.0)]
        for rec in recs[1:]:
            assert rec.lam[:2] == recs[0].lam[:2]
            assert rec.gam[:2] == recs[0].gam[:2]
        # velocity co-states decay monotonically to zero
        mags = [math.hypot(r.lam[2], r.lam[3]) for r in recs]
        assert mags[0] > mags[1] > mags[2] > mags[3] == 0.0


class TestChoosePlan:
    def test_tracks_previous_point_within_margin(self, special1):
        first = choose_plan(special1, None)
        mins = boundary_minima(special1)
        other = mins[1]
        tracked = choose_plan(special1, other.point, switch_margin=5e-3)
        assert (tracked.point - other.point).norm() < 1e-6
        jumped = choose_plan(special1, other.point, switch_margin=0.0)
        assert (jumped.point - first.point).norm() < 1e-6

    def test_stationary_under_equilibrium_play(self, case2):
        # with the terminal condition satisfied the replanned point stays put
        cfg = case2
        plan = choose_plan(cfg, None)
        assert plan_for_point(cfg, plan.point, plan.t_f).h_zero is True
        point0 = plan.point
        from dataclasses import replace
        drift = 0.0
        dt = 0.025
        for _ in range(8):
            a = propagate(cfg.attacker, cfg.attacker_params,
                          plan.attacker_ctrl, dt)
            d = propagate(cfg.defender, cfg.defender_params,
                          plan.defender_ctrl, dt)
            cfg = replace(cfg, attacker=a, defender=d)
            plan = choose_plan(cfg, plan.point)
            drift = max(drift, (plan.point - point0).norm())
        assert drift < 1e-3 * 8


def float_scan(cfg, ctrl, t_end):
    """first_unsafe_crossing with math.exp and math.hypot at every sample."""
    mu = cfg.mu
    amp = ctrl.u / mu
    hx, hy = math.cos(ctrl.theta), math.sin(ctrl.theta)
    a, d = cfg.attacker, cfg.defender
    rate = cfg.defender_params.u_max / mu

    def clearance(t):
        s = (1.0 - math.exp(-mu * t)) / mu
        return math.hypot(a.pos.x + a.vel.x * s + amp * (t - s) * hx
                          - (d.pos.x + d.vel.x * s),
                          a.pos.y + a.vel.y * s + amp * (t - s) * hy
                          - (d.pos.y + d.vel.y * s)) - rate * (t - s)

    taus = np.linspace(t_end / CROSSING_SAMPLES, t_end, CROSSING_SAMPLES).tolist()
    vals = [clearance(t) for t in taus]
    for i in range(len(taus) - 1):
        if vals[i] > 0.0 >= vals[i + 1]:
            tau = find_zero(clearance, taus[i], taus[i + 1], tol=1e-10) or taus[i + 1]
            return propagate(a, cfg.attacker_params, ctrl, tau).pos, tau
    return None


class TestFirstUnsafeCrossing:
    """The array scan with its guard band against a float scan (==)."""

    def test_intercept_game_scans(self, monkeypatch):
        # every scan of the special1 intercept game: each runs to the plan's
        # terminal point, where the clearance is zero up to rounding
        calls = []

        def recorded(*args):
            calls.append(args)
            return first_unsafe_crossing(*args)

        monkeypatch.setattr(reachavoid.engine, "first_unsafe_crossing", recorded)
        run(GAMES["special1_intercept"]())
        assert len(calls) > 20
        for cfg, ctrl, t_end in calls:
            assert first_unsafe_crossing(cfg, ctrl, t_end) == float_scan(cfg, ctrl, t_end)

    def test_seeded_plans_and_runs(self):
        rng = np.random.default_rng(81)
        found = 0
        for _ in range(30):
            mu, u_d = rng.uniform(0.5, 2.0), rng.uniform(1.2, 3.0)
            a, d = random_player(rng, mu, 1.0), random_player(rng, mu, u_d)
            cfg = make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                           (d.pos.x, d.pos.y), (d.vel.x, d.vel.y), u_d=u_d, mu=mu)
            runs = [(Control(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)),
                     rng.uniform(0.1, 4.0))]
            try:
                plan = strategy_one(cfg)
            except (AttackerWinsError, InfeasibleTargetError):
                pass
            else:
                runs += [(plan.attacker_ctrl, plan.t_f),
                         (plan.attacker_ctrl, 2.0 * plan.t_f)]
            for ctrl, t_end in runs:
                want = float_scan(cfg, ctrl, t_end)
                assert first_unsafe_crossing(cfg, ctrl, t_end) == want
                found += want is not None
        assert found > 10

    def test_band_gives_the_float_sign_at_the_end(self):
        # a step of the special1 intercept game whose last sample numpy rounds
        # to a positive clearance and math to a negative one
        cfg = make_cfg((-0.3157025406677041, 0.04634958442057005),
                       (0.22212222467825254, -0.06447135820507724),
                       (-0.38252559390818275, 0.006154539575533736),
                       (1.2236382226516973, 0.3417695162000465))
        ctrl = Control(0.9999999999999992, 6.002739832617997)
        t_end = 0.6108263440491535
        taus = np.linspace(t_end / CROSSING_SAMPLES, t_end, CROSSING_SAMPLES)
        vals = clearance_at(cfg, ctrl, taus)
        assert vals[-1] > 0.0 >= clearance_at(cfg, ctrl, t_end)
        assert not ((vals[:-1] > 0.0) & (vals[1:] <= 0.0)).any()
        want = float_scan(cfg, ctrl, t_end)
        assert want is not None and want[1] > taus[-2]
        assert first_unsafe_crossing(cfg, ctrl, t_end) == want


class TestCrossingScanDefect:
    """The scan's 800 samples step over a dip in special2's step at
    t = 0.225 (ROADMAP item 12).  Scanning with first_zero would move
    special2's outcome by 2.6e-3 s, beyond the bench reference, so the scan
    stays until the reference is recorded again."""

    cfg = make_cfg((-0.011251344566503256, -4.979386480356243),
                   (-0.08963756528886854, 0.18002900335807753),
                   (-0.09629977090411246, -4.9469693544743),
                   (1.6168484143658073, -0.40187718492397745))
    ctrl = Control(1.0, 1.9274024760477366)
    t_end = 2.1109536475925643

    def dense_crossing(self) -> float:
        """First sample <= 0 of a 200,001-point scan, after a dip below -3e-4."""
        taus = np.linspace(0.0, self.t_end, 200_001)
        vals = clearance_at(self.cfg, self.ctrl, taus)
        assert vals.min() < -3e-4
        return float(taus[np.argmax(vals <= 0.0)])

    def test_dense_scan_shows_the_dip(self):
        assert self.dense_crossing() == pytest.approx(0.05065, abs=1e-5)
        taus = np.linspace(self.t_end / CROSSING_SAMPLES, self.t_end, CROSSING_SAMPLES)
        assert (clearance_at(self.cfg, self.ctrl, taus[:20]) > 0.0).all()

    @pytest.mark.xfail(strict=True, reason="800 samples miss the dip")
    def test_scan_finds_the_dip(self):
        crossing = first_unsafe_crossing(self.cfg, self.ctrl, self.t_end)
        assert crossing is not None
        assert crossing[1] == pytest.approx(self.dense_crossing(), abs=1e-4)
