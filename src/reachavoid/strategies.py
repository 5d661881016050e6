"""Control synthesis for both players.

The workhorse is the saturated equal-time plan: both players drive at full
thrust with constant heading toward the point of the simultaneous-reach
boundary closest to the target.  When the matched reach times at that point
come from compatible branches of the time-to-point field, the game Hamiltonian
vanishes there and the plan is closed-loop stationary: replanning from later
states returns the same point.

Where the plan point borders the defender's multiple reachable region the
stationarity breaks down, and the attacker does better by reducing thrust so
its arrival slides to the defender's middle reach time (the region strategy),
or the defender does better by cutting the attacker's path at the last
interceptable point.  Both variants live here, together with the pure-pursuit
baseline and the closed-form plan for players starting at rest, whose
dominance boundary is an Apollonius circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (Control, InfeasibleTargetError, damped_time, propagate,
                       steer_to)
from .dominance import (CROSSING_BAND, CROSSING_SAMPLES, GameConfig,
                        _reach_rows, arrival_alignment, boundary_minima,
                        clearance_at, matched_index, r3_certificates, race,
                        straight_run)
from .geometry import Vec2
from .scribe import find_zero, reach_times

# payoff improvement required before a tracked plan jumps to a different dip
PLAN_SWITCH_MARGIN = 5e-3
# residual bound for the terminal Hamiltonian condition
H_RESIDUAL_TOL = 1e-6


class AttackerWinsError(RuntimeError):
    """The target itself is inside the attacker's dominance region."""


@dataclass(frozen=True)
class TerminalPlan:
    point: Vec2
    t_f: float
    attacker_ctrl: Control
    defender_ctrl: Control
    h_zero: Optional[bool]
    payoff: float


@dataclass(frozen=True)
class CostateRecord:
    """Adjoint variables of both players along an equal-time plan.

    Position co-states are constant; velocity co-states decay to zero at the
    terminal time.  The capture multiplier nu scales the relative-position
    direction and is a free normalization (only its sign structure matters),
    so callers pick it; sigma is the induced time-field multiplier.
    """

    lam: tuple[float, float, float, float]
    gam: tuple[float, float, float, float]
    nu: float
    sigma: float


def costate_record(cfg: GameConfig, plan: TerminalPlan, t: Optional[float] = None,
                   nu: float = 1.0) -> CostateRecord:
    """Evaluate both players' co-states at time t (default: the terminal time).

    The capture direction is taken from the relative position just short of
    coincidence; the velocity co-states are the damped integrals of the
    constant position co-states and vanish at the terminal time.
    """
    t_f = plan.t_f
    t_eval = t_f if t is None else t
    if not 0.0 <= t_eval <= t_f:
        raise ValueError("co-states are defined on [0, t_f]")
    mu = cfg.mu
    back = max(1e-6 * t_f, 1e-9)
    a = propagate(cfg.attacker, cfg.attacker_params, plan.attacker_ctrl,
                  t_f - back)
    d = propagate(cfg.defender, cfg.defender_params, plan.defender_ctrl,
                  t_f - back)
    rel = d.pos - a.pos
    rel_hat = rel.unit() if rel.norm() > 0.0 else Vec2(1.0, 0.0)
    to_target = plan.point - cfg.target
    target_hat = to_target.unit() if to_target.norm() > 0.0 else Vec2(0.0, 0.0)
    lam12 = nu * rel_hat
    gam12 = target_hat - nu * rel_hat
    ramp = damped_time(mu, t_f - t_eval)
    s_d = arrival_alignment(cfg.defender, cfg.defender_params, plan.point, t_f)
    return CostateRecord(
        lam=(lam12.x, lam12.y, lam12.x * ramp, lam12.y * ramp),
        gam=(gam12.x, gam12.y, gam12.x * ramp, gam12.y * ramp),
        nu=nu,
        sigma=abs(nu) * s_d,
    )


def plan_for_point(cfg: GameConfig, point: Vec2, t_f: float,
                   check_h: bool = True) -> TerminalPlan:
    """Saturated equal-time plan for a given boundary point at sweep time t_f."""
    atk = steer_to(cfg.attacker, cfg.attacker_params, point, t_f)
    dfd = steer_to(cfg.defender, cfg.defender_params, point, t_f)
    h = None
    if check_h:
        try:
            h = hamiltonian_check(cfg, point)
        except ValueError:
            h = None
    payoff = (point - cfg.target).norm()
    return TerminalPlan(point=point, t_f=t_f, attacker_ctrl=atk,
                        defender_ctrl=dfd, h_zero=h, payoff=payoff)


def strategy_one(cfg: GameConfig) -> TerminalPlan:
    """Drive both players to the boundary point closest to the target.

    Raises AttackerWinsError when the target itself is in the attacker's
    dominance region (the game of kind is already decided), and
    InfeasibleTargetError when no boundary dip exists at all.
    """
    plan = choose_plan(cfg, None)
    return plan_for_point(cfg, plan.point, plan.t_f)


def hamiltonian_check(cfg: GameConfig, point: Vec2) -> Optional[bool]:
    """Terminal necessary condition at a simultaneous-reach point.

    The matched reach times must come from the same branch category of the
    time field ({first/last/only} together, or both the middle time), and the
    two arrival alignments (terminal speed along heading, whose sign encodes
    the branch) must agree.  Returns None when either alignment degenerates,
    i.e. the time-field gradient does not exist at the point.
    """
    rows = _reach_rows(cfg, point)
    ea, ed = ([t for t in row if not math.isnan(t)] for row in rows.tolist())
    gapv, t_a, t_d = min((abs(t_a - t_d), t_a, t_d) for t_a in ea for t_d in ed)
    t_match = 0.5 * (t_a + t_d)
    if gapv > 1e-6 * (1.0 + t_match):
        raise ValueError(f"point is not on the equal-time boundary "
                         f"(closest reach times differ by {gapv:.3e})")
    s_a = arrival_alignment(cfg.attacker, cfg.attacker_params, point, t_a)
    s_d = arrival_alignment(cfg.defender, cfg.defender_params, point, t_d)
    speed_scale = max(cfg.attacker_params.speed_cap,
                      cfg.defender_params.speed_cap)
    if abs(s_a) <= 1e-9 * speed_scale or abs(s_d) <= 1e-9 * speed_scale:
        return None
    j, k = matched_index(rows, np.array([t_a, t_d]), np.array([s_a, s_d])).tolist()
    compatible = (j == 2) == (k == 2)
    residual = abs(math.copysign(1.0, s_a) - math.copysign(1.0, s_d))
    return bool(compatible and residual <= H_RESIDUAL_TOL)


def pure_pursuit(cfg: GameConfig, who: str) -> Control:
    """Saturated thrust straight at the instantaneous goal.

    The attacker aims at the target, the defender at the attacker; heading 0
    when the two coincide, which lies inside a terminal ball of the game.
    """
    if who == "attacker":
        offset = cfg.target - cfg.attacker.pos
        u = cfg.attacker_params.u_max
    elif who == "defender":
        offset = cfg.attacker.pos - cfg.defender.pos
        u = cfg.defender_params.u_max
    else:
        raise ValueError(f"unknown player {who!r}")
    if offset.norm() == 0.0:
        return Control(u, 0.0)
    return Control(u, offset.angle())


def apollonius_circle(cfg: GameConfig) -> tuple[Vec2, float]:
    """Dominance-boundary circle for players starting at rest."""
    alpha = cfg.accel_ratio
    xa, xd = cfg.attacker.pos, cfg.defender.pos
    denom = 1.0 - alpha * alpha
    center = Vec2((xa.x - alpha * alpha * xd.x) / denom,
                  (xa.y - alpha * alpha * xd.y) / denom)
    radius = alpha * (xa - xd).norm() / denom
    return center, radius


def apollonius_plan(cfg: GameConfig) -> TerminalPlan:
    """Closed-form equal-time plan when both players start at rest.

    The boundary is an Apollonius circle; the optimal point is where the
    segment from the target to the circle center crosses the circle.  Agrees
    with the swept-boundary plan to solver tolerance.
    """
    if cfg.attacker.vel.norm() > 0.0 or cfg.defender.vel.norm() > 0.0:
        raise ValueError("closed-form plan requires both players at rest")
    center, radius = apollonius_circle(cfg)
    to_center = center - cfg.target
    dist = to_center.norm()
    if dist <= radius:
        raise AttackerWinsError("target lies inside the dominance circle")
    point = center - radius * to_center.unit()
    reach = (point - cfg.attacker.pos).norm()
    mu, u_a = cfg.mu, cfg.attacker_params.u_max

    def ramp_gap(t: float) -> float:
        return (u_a / mu) * (t - damped_time(mu, t)) - reach

    t_f = find_zero(ramp_gap, 1e-12, None, tol=1e-13,
                    expand_start=1.0 / mu, expand_cap=1e3 / mu)
    if t_f is None:
        raise InfeasibleTargetError("no arrival time solves the radius equation")
    return plan_for_point(cfg, point, t_f)


def can_reach_target(cfg: GameConfig, times=None) -> Optional[Control]:
    """Saturated constant-heading run to the target that is never interceptable.

    Tries each arrival time of the target in increasing order (`times`, the
    attacker's expanded reach times there, solved here if not given) and
    returns the first control whose whole path stays clear of the defender's
    reachable disc (`straight_run`); None when no such run exists yet.
    """
    if times is None:
        times = reach_times(cfg.target, cfg.attacker, cfg.attacker_params).expanded()
    return next((steer_to(cfg.attacker, cfg.attacker_params, cfg.target, t) for t in times
                 if t > 0.0 and straight_run(cfg, cfg.target.x, cfg.target.y, t)), None)


def first_unsafe_crossing(cfg: GameConfig, ctrl: Control,
                          t_end: float) -> Optional[tuple[Vec2, float]]:
    """First point where the attacker's planned run becomes interceptable.

    Scans the clearance (attacker path distance to the defender's disc at
    matching times) and returns the first sign change from safe to
    interceptable, refined by find_zero; None when the run never dips.
    """
    if t_end <= 0.0:
        return None
    taus = np.linspace(t_end / CROSSING_SAMPLES, t_end, CROSSING_SAMPLES)
    vals = clearance_at(cfg, ctrl, taus)
    # a planned run ends on the capture boundary, where the clearance is zero
    # up to rounding; numpy's exp and hypot, a few ulps of the run's lengths
    # off math's, round it to the other sign on some steps.  Samples in the
    # band are evaluated again on floats, so the dips are a float scan's
    caps = cfg.attacker_params.speed_cap + cfg.defender_params.speed_cap
    band = CROSSING_BAND * (cfg.attacker.pos.norm() + cfg.defender.pos.norm()
                            + caps * t_end)
    taus = taus.tolist()
    for i in np.flatnonzero(np.abs(vals) <= band).tolist():
        vals[i] = clearance_at(cfg, ctrl, taus[i])
    dips = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if len(dips) == 0:
        return None
    lo, hi = taus[dips[0]], taus[dips[0] + 1]
    tau = find_zero(lambda t: clearance_at(cfg, ctrl, t), lo, hi, tol=1e-10) or hi
    return propagate(cfg.attacker, cfg.attacker_params, ctrl, tau).pos, tau


def best_r3_point(cfg: GameConfig) -> Optional[tuple[Vec2, float, Control]]:
    """Best certified third-region point: (point, arrival time, reduced control).

    A component's pick is the first of its 40 vertices nearest the target that
    the attacker can serve: the defender has three reach times, the attacker's
    saturated arrival t_A <= t_D2 + 1e-9 (absolute; not `_r3_timing`, ROADMAP
    item 6), and `steer_to` reaches the vertex at t_D2.  Returns the pick
    nearest the target, the earlier component's on a tie; None if none.
    """
    picks = []
    for comp in r3_certificates(cfg):
        poly = comp.polygon
        d = np.hypot(poly[:, 0] - cfg.target.x, poly[:, 1] - cfg.target.y)
        for i in np.argsort(d)[:40]:
            p = Vec2(float(poly[i, 0]), float(poly[i, 1]))
            td = reach_times(p, cfg.defender, cfg.defender_params).expanded()
            if len(td) < 3 or reach_times(p, cfg.attacker,
                                          cfg.attacker_params).first > td[1] + 1e-9:
                continue
            try:
                ctrl = steer_to(cfg.attacker, cfg.attacker_params, p, td[1])
            except InfeasibleTargetError:
                continue
            picks.append((float(d[i]), p, td[1], ctrl))
            break  # vertices are sorted by distance; the first servable one is the pick
    return min(picks, key=lambda pick: pick[0])[1:] if picks else None


def choose_plan(cfg: GameConfig, previous: Optional[Vec2],
                switch_margin: float = PLAN_SWITCH_MARGIN,
                target_times=None) -> TerminalPlan:
    """Replanning rule with hysteresis against dip hopping.

    Near-tied dips of the boundary payoff otherwise alternate as the argmin
    under closed-loop replanning, chattering the heading every step.  The rule
    keeps tracking the dip nearest the previous plan point and jumps to the
    global best only when it improves by `switch_margin`.  `target_times`,
    both players' expanded reach times at the target, skips their solves.
    Raises as `strategy_one` does; the plan skips the Hamiltonian check.
    """
    if race(cfg, cfg.target, target_times):
        raise AttackerWinsError(
            "target is attacker-dominated; steer for the target instead")
    minima = boundary_minima(cfg)
    if not minima:
        raise InfeasibleTargetError("no simultaneous-reach boundary found")
    chosen = minima[0]
    if previous is not None:
        tracked = min(minima, key=lambda m: (m.point - previous).norm())
        if minima[0].payoff >= tracked.payoff - switch_margin:
            chosen = tracked
    return plan_for_point(cfg, chosen.point, chosen.t, check_h=False)
