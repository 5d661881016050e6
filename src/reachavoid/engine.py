"""Closed-loop game simulator.

Each step both policies map the full current state to a control (complete
information), the states advance by the exact closed-form propagation over one
step, and the terminal conditions are checked.  Each step makes its solves
once for both players (`_Step`): the players' reach times at the target and
the equal-time plan, or a failed plan's exception.  Because propagation within
a step is exact, the step size only sets the replanning cadence, not any
integration error.  The first terminal event in a step (capture ball, target
ball) is a zero of one margin with a known slope bound, found by `first_zero`
to ROOT_TOL; so no brief closest approach is stepped over, and event times are
comparable across step sizes.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .dynamics import (Control, InfeasibleTargetError, PlayerState,
                       damped_time, path_xy, propagate, steer_to)
from .dominance import SPEED_SLACK, GameConfig
from .geometry import Vec2
from .scribe import first_zero, reach_times
from .strategies import (AttackerWinsError, PLAN_SWITCH_MARGIN, TerminalPlan,
                         best_r3_point, can_reach_target, choose_plan,
                         first_unsafe_crossing, pure_pursuit)


class AttackerPolicy(enum.Enum):
    STRATEGY_I = "strategy_i"
    PURE_PURSUIT = "pure_pursuit"
    MRR = "mrr"
    CONSTANT = "constant"


class DefenderPolicy(enum.Enum):
    STRATEGY_I = "strategy_i"
    PURE_PURSUIT = "pure_pursuit"
    INTERCEPT_R3 = "intercept_r3"
    MATCH_MRR = "match_mrr"


class OutcomeKind(enum.Enum):
    CAPTURED = "captured"
    TARGET_REACHED = "target_reached"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    t: float
    payoff: float
    point: Optional[Vec2] = None


@dataclass(frozen=True)
class Scenario:
    cfg: GameConfig
    attacker_policy: AttackerPolicy = AttackerPolicy.STRATEGY_I
    defender_policy: DefenderPolicy = DefenderPolicy.STRATEGY_I
    dt: float = 0.025
    t_max: Optional[float] = None
    eps_capture: float = 5e-3
    eps_target: float = 1e-2
    plan_switch_margin: float = PLAN_SWITCH_MARGIN
    constant_ctrl: Optional[Control] = None

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.05):
            raise ValueError("step must be positive and at most 0.05")
        if not (self.eps_capture > 0.0 and self.eps_target > 0.0):
            raise ValueError("event radii must be positive")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if not self.plan_switch_margin >= 0.0:
            raise ValueError("plan_switch_margin must be >= 0")
        if self.attacker_policy is AttackerPolicy.CONSTANT and self.constant_ctrl is None:
            raise ValueError("constant attacker policy needs constant_ctrl")
        if self.defender_policy is DefenderPolicy.MATCH_MRR \
                and self.attacker_policy is not AttackerPolicy.MRR:
            raise ValueError("match_mrr shadows the region strategy; "
                             "pair it with the mrr attacker policy")

    @property
    def horizon(self) -> float:
        return self.t_max if self.t_max is not None else 10.0 / self.cfg.mu


# the per-step floats of a trace, in the column order of trace.csv
TRACE_COLUMNS = ("t", "xA", "yA", "vAx", "vAy", "xD", "yD", "vDx", "vDy",
                 "uA", "thetaA", "uD", "thetaD", "distAD", "distAT")


@dataclass(frozen=True)
class TraceRow:
    t: float
    attacker: PlayerState
    defender: PlayerState
    attacker_ctrl: Control
    defender_ctrl: Control
    dist_ad: float
    dist_at: float


def _stored_control(u: float, theta: float) -> Control:
    """The recorded control as is.  Control() wraps its heading again, which
    would turn a heading that wrapped to exactly 2*pi into 0."""
    ctrl = object.__new__(Control)
    object.__setattr__(ctrl, "u", u)
    object.__setattr__(ctrl, "theta", theta)
    return ctrl


def _trace_row(v: list[float]) -> TraceRow:
    return TraceRow(v[0], PlayerState(Vec2(v[1], v[2]), Vec2(v[3], v[4])),
                    PlayerState(Vec2(v[5], v[6]), Vec2(v[7], v[8])),
                    _stored_control(v[9], v[10]), _stored_control(v[11], v[12]),
                    v[13], v[14])


class TraceRows(Sequence):
    """The rows of a game trace, read-only.

    The floats live in one (N, 15) float64 array in TRACE_COLUMNS order;
    each TraceRow is built on access, with plain float fields.
    """

    __slots__ = ("array",)

    def __init__(self, rows):
        self.array = np.array(rows, dtype=float).reshape(-1, len(TRACE_COLUMNS))
        self.array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceRows(self.array[i])
        return _trace_row(self.array[i].tolist())

    def __iter__(self):
        return map(_trace_row, self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceRows):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(tuple(self.array.ravel().tolist()))

    def __repr__(self) -> str:
        return f"TraceRows({len(self)} rows)"


@dataclass(frozen=True)
class GameTrace:
    scenario: Scenario
    rows: TraceRows
    outcome: Outcome
    notes: tuple[str, ...] = ()
    plan_switches: tuple[tuple[float, Vec2], ...] = ()

    @property
    def payoff(self) -> float:
        return self.outcome.payoff


# a tracked plan point relocating farther than this is a discrete switch
PLAN_JUMP_DIST = 0.02


class _Step:
    """One step's solves, each made at most once, when a policy first needs
    it: both players' expanded reach times at the target, and the equal-time
    plan or the exception of a failed plan, which both players share."""

    def __init__(self, cfg: GameConfig):
        self.cfg, self.plan, self.failure = cfg, None, None

    @cached_property
    def attacker_times(self) -> list[float]:
        cfg = self.cfg
        return reach_times(cfg.target, cfg.attacker, cfg.attacker_params).expanded()

    @cached_property
    def defender_times(self) -> list[float]:
        cfg = self.cfg
        return reach_times(cfg.target, cfg.defender, cfg.defender_params).expanded()


@dataclass
class _PlanTracker:
    """Per-run state shared by the policies of both players."""

    point: Optional[Vec2] = None
    step: Optional[_Step] = None
    mrr_target: Optional[tuple[Vec2, float]] = None
    mrr_failed: bool = False
    target_mode: bool = False
    switches: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _plan(cfg: GameConfig, sc: Scenario, t: float,
          tracker: _PlanTracker) -> TerminalPlan:
    """This step's equal-time plan, computed once and shared by both players;
    a failed plan raises its exception again for the second player."""
    step = tracker.step
    if step.plan is None and step.failure is None:
        try:
            plan = choose_plan(cfg, tracker.point, sc.plan_switch_margin,
                               (step.attacker_times, step.defender_times))
        except (AttackerWinsError, InfeasibleTargetError) as exc:
            step.failure = exc
            raise
        if tracker.point is not None \
                and (plan.point - tracker.point).norm() > PLAN_JUMP_DIST:
            tracker.switches.append((t, plan.point))
        tracker.point, step.plan = plan.point, plan
    if step.failure is not None:
        raise step.failure
    return step.plan


# Policies map (cfg, scenario, t, tracker[, attacker control]) to a control,
# or to None for pure pursuit this step.  A failed equal-time plan raises
# AttackerWinsError or InfeasibleTargetError, which `_act` turns into a note
# and pure pursuit.

def _pursue(*_) -> None:
    return None


def _attacker_plan(cfg, sc, t, tracker) -> Control:
    return _plan(cfg, sc, t, tracker).attacker_ctrl


def _attacker_region(cfg, sc, t, tracker) -> Optional[Control]:
    if tracker.mrr_target is None and not tracker.mrr_failed:
        picked = best_r3_point(cfg)
        if picked is None:
            tracker.mrr_failed = True
            tracker.notes.append("no certified third-region component; "
                                 "attacker falls back to the equal-time plan")
        else:
            point, t_d2, _ = picked
            tracker.mrr_target = (point, t + t_d2)
            tracker.notes.append(f"t={t:.6f} region strategy locks point "
                                 f"({point.x:.6f}, {point.y:.6f}) "
                                 f"for arrival at {t + t_d2:.6f}")
    if tracker.mrr_target is None:
        return _attacker_plan(cfg, sc, t, tracker)
    point, t_arr = tracker.mrr_target
    if t_arr - t <= 1e-9:
        return None
    try:
        return steer_to(cfg.attacker, cfg.attacker_params, point, t_arr - t)
    except InfeasibleTargetError:
        tracker.notes.append(f"t={t:.6f} region point infeasible; "
                             "pure pursuit for this step")
        return None


def _target_run_first(policy):
    """Grab the target outright once a safe straight run exists (state feedback)."""
    def target_or_policy(cfg, sc, t, tracker) -> Optional[Control]:
        direct = can_reach_target(cfg, tracker.step.attacker_times)
        if direct is None:
            tracker.target_mode = False
            return policy(cfg, sc, t, tracker)
        if not tracker.target_mode:
            tracker.notes.append(f"t={t:.6f} attacker switches to target run")
            tracker.target_mode = True
        return direct
    return target_or_policy


def _defender_plan(cfg, sc, t, tracker, attacker_ctrl) -> Control:
    return _plan(cfg, sc, t, tracker).defender_ctrl


def _defender_match(cfg, sc, t, tracker, attacker_ctrl) -> Optional[Control]:
    if tracker.mrr_target is None:
        return None
    point, t_arr = tracker.mrr_target
    if t_arr - t <= 1e-9:
        return None
    try:
        return steer_to(cfg.defender, cfg.defender_params, point, t_arr - t)
    except InfeasibleTargetError:
        return None


def _defender_intercept(cfg, sc, t, tracker, attacker_ctrl) -> Optional[Control]:
    try:
        horizon = _plan(cfg, sc, t, tracker).t_f
    except (AttackerWinsError, InfeasibleTargetError):
        horizon = sc.horizon - t
    crossing = first_unsafe_crossing(cfg, attacker_ctrl, horizon)
    if crossing is None:
        # no interceptable stretch: behave like the equal-time plan
        return None if tracker.step.plan is None else tracker.step.plan.defender_ctrl
    point, tau = crossing
    try:
        return steer_to(cfg.defender, cfg.defender_params, point, tau)
    except InfeasibleTargetError:
        tracker.notes.append(f"t={t:.6f} intercept point infeasible; "
                             "pure pursuit for this step")
        return None


_ATTACKER_POLICIES = {
    AttackerPolicy.STRATEGY_I: _target_run_first(_attacker_plan),
    AttackerPolicy.PURE_PURSUIT: _target_run_first(_pursue),
    AttackerPolicy.MRR: _target_run_first(_attacker_region),
    AttackerPolicy.CONSTANT: lambda cfg, sc, t, tracker: sc.constant_ctrl,
}
_DEFENDER_POLICIES = {
    DefenderPolicy.STRATEGY_I: _defender_plan,
    DefenderPolicy.PURE_PURSUIT: _pursue,
    DefenderPolicy.INTERCEPT_R3: _defender_intercept,
    DefenderPolicy.MATCH_MRR: _defender_match,
}


def _act(who: str, policy, cfg: GameConfig, sc: Scenario, t: float,
         tracker: _PlanTracker, *args) -> Control:
    """Run one player's policy; pure pursuit when it fails or declines."""
    try:
        ctrl = policy(cfg, sc, t, tracker, *args)
    except (AttackerWinsError, InfeasibleTargetError) as exc:
        tracker.notes.append(f"t={t:.6f} {who} plan failed ({exc}); pure pursuit")
        ctrl = None
    return pure_pursuit(cfg, who) if ctrl is None else ctrl


def _dists(cfg: GameConfig, a: PlayerState, d: PlayerState, ca: Control,
           cd: Control, h: float) -> tuple[float, float]:
    """Attacker-defender and attacker-target distances after time h: those of
    propagate's states, without the states or its control-bound check."""
    s = damped_time(cfg.mu, h)
    ax, ay = path_xy(a, cfg.attacker_params, ca.u, math.cos(ca.theta), math.sin(ca.theta), h, s)
    dx, dy = path_xy(d, cfg.defender_params, cd.u, math.cos(cd.theta), math.sin(cd.theta), h, s)
    tx, ty = cfg.target.x, cfg.target.y
    return math.hypot(ax - dx, ay - dy), math.hypot(ax - tx, ay - ty)


def _event_time(cfg: GameConfig, ca: Control, cd: Control, dt: float,
                sc: Scenario) -> Optional[float]:
    """First time in the step at which a terminal ball is reached, or None.
    Speeds stay below the caps u_max/mu, so the capture margin over
    cap_A + cap_D and the target margin over cap_A have slopes of at most 1."""
    cap_a, cap_d = cfg.attacker_params.speed_cap, cfg.defender_params.speed_cap

    def margin(h: float) -> float:
        dist_ad, dist_at = _dists(cfg, cfg.attacker, cfg.defender, ca, cd, h)
        return min((dist_ad - sc.eps_capture) / (cap_a + cap_d),
                   (dist_at - sc.eps_target) / cap_a if cap_a > 0.0 else math.inf)
    return first_zero(margin, 0.0, dt, 1.0 + SPEED_SLACK)


def run(sc: Scenario) -> GameTrace:
    """Simulate one scenario to its terminal event or the horizon."""
    cfg = sc.cfg
    a, d = cfg.attacker, cfg.defender
    t = 0.0
    tracker = _PlanTracker()
    # one tuple of TRACE_COLUMNS floats per row
    rows: list[tuple[float, ...]] = []

    def record(ctrl_a: Control, ctrl_d: Control) -> None:
        rows.append((t, a.pos.x, a.pos.y, a.vel.x, a.vel.y,
                     d.pos.x, d.pos.y, d.vel.x, d.vel.y,
                     ctrl_a.u, ctrl_a.theta, ctrl_d.u, ctrl_d.theta,
                     dist_ad, dist_at))

    dist_ad, dist_at = (a.pos - d.pos).norm(), (a.pos - cfg.target).norm()
    for kind, hit in ((OutcomeKind.CAPTURED, dist_ad <= sc.eps_capture),
                      (OutcomeKind.TARGET_REACHED, dist_at <= sc.eps_target)):
        if hit:
            return GameTrace(sc, TraceRows(rows), Outcome(kind, 0.0, dist_at, a.pos))

    # a step without a terminal event leaves the outcome at TIMEOUT
    kind = OutcomeKind.TIMEOUT
    while kind is OutcomeKind.TIMEOUT and t < sc.horizon - 1e-12:
        step_cfg = replace(cfg, attacker=a, defender=d)
        tracker.step = _Step(step_cfg)
        ctrl_a = _act("attacker", _ATTACKER_POLICIES[sc.attacker_policy],
                      step_cfg, sc, t, tracker)
        ctrl_d = _act("defender", _DEFENDER_POLICIES[sc.defender_policy],
                      step_cfg, sc, t, tracker, ctrl_a)
        if not rows:
            record(ctrl_a, ctrl_d)
        dt = min(sc.dt, sc.horizon - t)
        event = _event_time(step_cfg, ctrl_a, ctrl_d, dt, sc)
        h = dt if event is None else event
        a = propagate(a, cfg.attacker_params, ctrl_a, h)
        d = propagate(d, cfg.defender_params, ctrl_d, h)
        dist_ad, dist_at = (a.pos - d.pos).norm(), (a.pos - cfg.target).norm()
        if event is not None:
            # the event's kind from its margins: _dists' distances, bit for bit
            kind = (OutcomeKind.CAPTURED if dist_ad <= sc.eps_capture
                    else OutcomeKind.TARGET_REACHED)
        t += h
        record(ctrl_a, ctrl_d)
    return GameTrace(sc, TraceRows(rows), Outcome(kind, t, dist_at, a.pos),
                     tuple(tracker.notes), tuple(tracker.switches))

