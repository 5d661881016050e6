"""Closed-form motion of a damped double-integrator player.

A player accelerates with bounded magnitude u <= u_max along a heading theta
while linear drag -mu*v caps its speed at u_max/mu.  Under a constant control
the equations of motion integrate in closed form, so state propagation here is
exact: the simulator never runs Euler or Runge-Kutta steps and therefore has
no step-size error in the dynamics.

The set of positions reachable at exactly time t under saturated constant
thrust is a circle (the isochron).  Its center is the zero-input drift point
and its radius grows like (u_max/mu) * (t - (1 - exp(-mu t))/mu); every
admissible control, constant or not, keeps the player inside that disc.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Vec2, mapped, wrap_angle

# slack used when clamping targets that sit a rounding error outside a disc
BOUNDARY_SLACK = 1e-9


class DomainError(ValueError):
    """An argument is outside the operation's mathematical domain."""


class InfeasibleTargetError(ValueError):
    """The requested target cannot be reached at the requested time."""


@dataclass(frozen=True)
class PlayerParams:
    """Acceleration bound and damping factor of one player."""

    u_max: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"damping factor must be positive, got {self.mu}")
        if not 0.0 <= self.u_max < math.inf:
            raise ValueError("acceleration bound must be finite and >= 0, "
                             f"got {self.u_max}")

    @property
    def speed_cap(self) -> float:
        return self.u_max / self.mu


@dataclass(frozen=True)
class PlayerState:
    pos: Vec2
    vel: Vec2


@dataclass(frozen=True)
class Control:
    """Acceleration magnitude and fixed heading; theta stored in [0, 2*pi)."""

    u: float
    theta: float

    def __post_init__(self):
        if self.u < 0.0:
            raise ValueError(f"acceleration magnitude must be >= 0, got {self.u}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def heading(self) -> Vec2:
        return Vec2(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class Isochron:
    """Circle of positions reachable at exactly time t under saturated thrust."""

    t: float
    center: Vec2
    radius: float


def damped_time(mu: float, t):
    """The damped clock s(t) = (1 - exp(-mu t)) / mu; saturates at 1/mu.

    Floats use math.exp and numpy arrays np.exp, which differ in the last bit
    on a few percent of inputs; results are reproducible for either, not
    across them.
    """
    exp = np.exp if isinstance(t, np.ndarray) else math.exp
    return (1.0 - exp(-mu * t)) / mu


def isochron_xyr(state: PlayerState, params: PlayerParams, t, s):
    """Isochron center x, y and radius at time t (a float or an array), given
    its damped clock s = damped_time(params.mu, t), which callers share."""
    return (state.pos.x + state.vel.x * s, state.pos.y + state.vel.y * s,
            (params.u_max / params.mu) * (t - s))


def path_xy(state: PlayerState, params: PlayerParams, u, hx, hy, t, s):
    """Position x, y at time t under constant thrust u along the unit heading
    (hx, hy); t and s as above, and u, hx, hy floats or arrays alike."""
    amp, w = u / params.mu, t - s
    return (state.pos.x + state.vel.x * s + amp * w * hx,
            state.pos.y + state.vel.y * s + amp * w * hy)


def velocity_xy(state: PlayerState, params: PlayerParams, u, hx, hy, decay):
    """Velocity x, y at time t under constant thrust u along the unit heading
    (hx, hy), given decay = exp(-mu t); floats or arrays alike."""
    a = u / params.mu
    return (state.vel.x * decay + a * (1.0 - decay) * hx,
            state.vel.y * decay + a * (1.0 - decay) * hy)


def propagate(state: PlayerState, params: PlayerParams, ctrl: Control,
              t: float) -> PlayerState:
    """Exact state at time t under a constant control.

    Closed form; satisfies the semigroup property for constant controls.
    """
    if t < 0.0:
        raise DomainError(f"propagation time must be >= 0, got {t}")
    if ctrl.u > params.u_max * (1.0 + 1e-12) + 1e-15:
        raise DomainError(
            f"control magnitude {ctrl.u} exceeds bound {params.u_max}")
    decay = math.exp(-params.mu * t)
    s = (1.0 - decay) / params.mu
    hx, hy = math.cos(ctrl.theta), math.sin(ctrl.theta)
    return PlayerState(Vec2(*path_xy(state, params, ctrl.u, hx, hy, t, s)),
                       Vec2(*velocity_xy(state, params, ctrl.u, hx, hy, decay)))


def isochron(state: PlayerState, params: PlayerParams, t: float) -> Isochron:
    """Reachable circle at time t: drift-point center, saturated-thrust radius."""
    if t < 0.0:
        raise DomainError(f"isochron time must be >= 0, got {t}")
    cx, cy, radius = isochron_xyr(state, params, t, damped_time(params.mu, t))
    return Isochron(t=t, center=Vec2(cx, cy), radius=radius)


def steer_controls(state: PlayerState, params: PlayerParams, x, y, t):
    """steer_to's formula for targets (x, y) reached at times t > 0, on floats
    or 1-D arrays alike: (u, theta before wrapping, whether steer_to accepts
    the target); u, theta are 0 at radius <= 0.  A target is accepted within
    BOUNDARY_SLACK of the isochron disc, or of its center at radius <= 0."""
    s = (1.0 - mapped(math.exp, -params.mu * t)) / params.mu
    cx, cy, r = isochron_xyr(state, params, t, s)
    dist = mapped(math.hypot, x - cx, y - cy)
    theta = mapped(math.atan2, y - cy, x - cx)
    if isinstance(t, np.ndarray):
        thrust = r > 0.0
        u = np.minimum(params.u_max * dist / np.where(thrust, r, np.inf), params.u_max)
        ok = np.where(thrust, dist <= r + BOUNDARY_SLACK, dist <= BOUNDARY_SLACK)
        return u, np.where(thrust & (dist > 0.0), theta, 0.0), ok
    if r > 0.0:
        return (min(params.u_max * dist / r, params.u_max), theta if dist > 0.0 else 0.0,
                dist <= r + BOUNDARY_SLACK)
    return 0.0, 0.0, dist <= BOUNDARY_SLACK


def steer_to(state: PlayerState, params: PlayerParams, target: Vec2,
             t_f: float) -> Control:
    """Constant control that lands exactly on `target` at time t_f.

    The heading points from the drift point at t_f to the target, and the
    magnitude scales the isochron radius down to the required distance.
    Targets within BOUNDARY_SLACK outside the disc are clamped onto it.
    """
    if t_f <= 0.0:
        if (target - state.pos).norm() <= BOUNDARY_SLACK:
            return Control(0.0, 0.0)
        raise InfeasibleTargetError(
            f"cannot reach {target} in non-positive time {t_f}")
    u, theta, ok = steer_controls(state, params, target.x, target.y, t_f)
    if not ok:
        raise InfeasibleTargetError(
            f"target {target} outside the reachable disc at t={t_f}")
    return Control(u, theta)
