"""Tangency-time solver for the two players' isochron families.

Two isochrones are externally tangent (circumscribe) when the squared distance
between their centers equals the squared sum of their radii, and internally
tangent (inscribe) when it equals the squared radius difference.  Both
conditions are zeros of the same kind of gap function

    gap(t) = |c_A(t) - c_D(t)|^2 - ((u_A +/- u_D)/mu)^2 * (t - s(t))^2,

which starts positive, eventually goes to -infinity, and has between one and
three positive zeros.  The solver splits the axis by the signs of
|dv|^2 + mu*dx.dv and dx.dv into a monotone case, a rise-then-fall case, and a
wiggle case; in the wiggle case the unique zero of gap'' brackets the two
extrema of gap', which in turn bracket up to three zeros of gap.  Each bracket
holds at most one sign change, so plain bisection is reliable everywhere.

Reach times of a static point reduce to the same solver by treating the point
as a zero-thrust player parked there.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import PlayerParams, PlayerState, damped_time
from .geometry import Vec2

# absolute tolerance on solved times; downstream geometry subtracts nearby times
ROOT_TOL = 1e-10
# |gap| below this (times the problem scale) at an extremum counts as tangency
TANGENCY_EPS = 1e-12
# thresholds for the degenerate inflection tangency (all three roots coincide);
# looser than TANGENCY_EPS because the gap is cubically flat there
CUSP_GAP_EPS = 1e-9
CUSP_SLOPE_EPS = 1e-9
# bracket expansion gives up at this many damping time constants
CAP_FACTOR = 50.0


class ScribeMode(enum.Enum):
    CIRCUMSCRIBE = "circumscribe"
    INSCRIBE = "inscribe"


@dataclass(frozen=True)
class ScribeProblem:
    """Relative initial state and thrust bounds for one tangency family."""

    delta_x: Vec2
    delta_v: Vec2
    mu: float
    u_a: float
    u_d: float
    mode: ScribeMode = ScribeMode.CIRCUMSCRIBE

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("damping factor must be positive")
        if self.delta_x.norm() == 0.0:
            raise ValueError("players must start at distinct positions")

    @property
    def radius_coeff(self) -> float:
        u = self.u_a + self.u_d if self.mode is ScribeMode.CIRCUMSCRIBE \
            else self.u_a - self.u_d
        return (u / self.mu) ** 2


@dataclass(frozen=True)
class RootSet:
    """Sorted positive tangency times with multiplicities (1 simple, 2 tangent)."""

    times: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.times) != len(self.multiplicities):
            raise ValueError("times and multiplicities must pair up")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def first(self) -> float:
        return self.times[0]

    def expanded(self) -> list[float]:
        """Times repeated by multiplicity, sorted ascending."""
        out: list[float] = []
        for t, m in zip(self.times, self.multiplicities):
            out.extend([t] * m)
        return out


def gap(p: ScribeProblem, t) -> float:
    """Squared center distance minus squared tangency radius at time t."""
    s = (1.0 - np.exp(-p.mu * t)) / p.mu
    o = (p.delta_x.norm_sq() + p.delta_v.norm_sq() * s * s
         + 2.0 * p.delta_x.dot(p.delta_v) * s)
    return o - p.radius_coeff * (t - s) ** 2


def gap_d1(p: ScribeProblem, t) -> float:
    """First time derivative of the gap."""
    decay = np.exp(-p.mu * t)
    s = (1.0 - decay) / p.mu
    o1 = 2.0 * decay * (p.delta_v.norm_sq() * s + p.delta_x.dot(p.delta_v))
    p1 = 2.0 * p.radius_coeff * (t - s) * (1.0 - decay)
    return o1 - p1


def gap_d2(p: ScribeProblem, t) -> float:
    """Second time derivative of the gap."""
    decay = np.exp(-p.mu * t)
    s = (1.0 - decay) / p.mu
    o2 = 2.0 * decay * (p.delta_v.norm_sq() * (2.0 * decay - 1.0)
                        - p.mu * p.delta_x.dot(p.delta_v))
    p2 = 2.0 * p.radius_coeff * ((1.0 - decay) ** 2
                                 + p.mu * decay * (t - s))
    return o2 - p2


def find_zero(f: Callable[[float], float], lo: float,
              hi: Optional[float] = None, tol: float = ROOT_TOL,
              expand_start: float = 1.0, expand_cap: float = 1e6) -> Optional[float]:
    """Bisection zero of f on [lo, hi], or on [lo, inf) via bracket expansion.

    Assumes at most one sign change on the interval.  With hi=None the upper
    end starts at max(expand_start, 2*lo) and doubles until the sign flips or
    `expand_cap` is exceeded.  Returns None when no sign change is found.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    if hi is None:
        hi = max(expand_start, 2.0 * lo)
        while True:
            fhi = f(hi)
            if flo * fhi <= 0.0:
                break
            if hi >= expand_cap:
                return None
            hi = min(2.0 * hi, expand_cap * 1.0000001)
    else:
        fhi = f(hi)
        if flo * fhi > 0.0:
            return None
    a, b, fa = lo, hi, flo
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def scribe_times(p: ScribeProblem, tol: float = ROOT_TOL) -> RootSet:
    """All positive tangency times of the two isochron families.

    Guaranteed to return between one and three times.  Exact tangencies of the
    gap at an interior extremum are reported once with multiplicity 2.
    """
    mu = p.mu
    # beyond this time the tangency radius provably exceeds any center
    # distance the drift can produce, so the last sign change lies inside
    cap = CAP_FACTOR / mu
    if p.radius_coeff > 0.0:
        o_max = (p.delta_x.norm() + p.delta_v.norm() / mu) ** 2
        cap = max(cap, 1.0 / mu + math.sqrt((o_max + 1.0) / p.radius_coeff))
    g = lambda t: gap(p, t)
    g1 = lambda t: gap_d1(p, t)
    g2 = lambda t: gap_d2(p, t)
    t0 = 1e-13 / mu
    scale = max(1.0, p.delta_x.norm_sq())

    def one(lo: float = t0) -> RootSet:
        r = find_zero(g, lo, None, tol, expand_start=1.0 / mu, expand_cap=cap)
        if r is None:
            raise RuntimeError("gap function never changed sign; "
                               "bracket cap too small for this problem")
        return RootSet((r,), (1,))

    dxdv = p.delta_x.dot(p.delta_v)
    dv2 = p.delta_v.norm_sq()
    if dv2 + mu * dxdv < 0.0:
        return one()          # drift shrinks the center gap monotonically
    if dxdv > 0.0:
        return one()          # gap rises once then falls: still a single zero

    # wiggle case: locate the single inflection of the gap, then its extrema
    t_infl = find_zero(g2, t0, None, tol, expand_start=1.0 / mu, expand_cap=cap)
    if t_infl is None:
        return one()          # gap'' single-signed: gap monotone decreasing
    slope_scale = max(mu * scale, 1e-300)
    if abs(g1(t_infl)) <= CUSP_SLOPE_EPS * slope_scale \
            and abs(g(t_infl)) <= CUSP_GAP_EPS * scale:
        # the extrema and the zero collapse together: a cubically flat triple
        # crossing.  The inflection is the well-conditioned handle on its
        # location, so report it once as a tangency.
        return RootSet((t_infl,), (2,))
    if g1(t_infl) <= 0.0:
        return one()          # gap' never positive: gap monotone decreasing
    t_lo = find_zero(g1, t0, t_infl, tol) if g1(t0) < 0.0 else t0
    t_hi = find_zero(g1, t_infl, None, tol,
                     expand_start=2.0 * t_infl, expand_cap=cap)
    if t_lo is None or t_hi is None:
        return one()
    g_lo, g_hi = g(t_lo), g(t_hi)
    eps = TANGENCY_EPS * scale

    if abs(g_lo) < eps and abs(g_hi) < eps:
        # extrema collapse onto the axis together: inflection tangency
        return RootSet((0.5 * (t_lo + t_hi),), (2,))
    if abs(g_lo) < eps:
        third = find_zero(g, t_hi, None, tol,
                          expand_start=2.0 * t_hi, expand_cap=cap)
        if g_hi > 0.0 and third is not None:
            return RootSet((t_lo, third), (2, 1))
        return RootSet((t_lo,), (2,))
    if abs(g_hi) < eps:
        if g_lo < 0.0:
            first = find_zero(g, t0, t_lo, tol)
            if first is not None:
                return RootSet((first, t_hi), (1, 2))
        return RootSet((t_hi,), (2,))
    if g_lo > 0.0:
        return one(t_hi)      # dip never reaches zero; single late crossing
    if g_hi < 0.0:
        r = find_zero(g, t0, t_lo, tol)
        return RootSet((r,), (1,))
    r1 = find_zero(g, t0, t_lo, tol)
    r2 = find_zero(g, t_lo, t_hi, tol)
    r3 = find_zero(g, t_hi, None, tol, expand_start=2.0 * t_hi, expand_cap=cap)
    roots = [r for r in (r1, r2, r3) if r is not None]
    return RootSet(tuple(roots), tuple([1] * len(roots)))


def reach_times(point: Vec2, state: PlayerState, params: PlayerParams,
                tol: float = ROOT_TOL) -> RootSet:
    """All times at which the player's isochron passes through `point`.

    Reduction: a zero-thrust phantom player parked at `point` turns passage
    into external tangency of the two families.  Includes t=0 when the point
    is the player's own position.
    """
    offset = point - state.pos
    if offset.norm() <= 1e-14:
        # from its own position the player departs at t=0 and, if moving,
        # can swing back exactly once
        vnorm = state.vel.norm()
        if vnorm == 0.0 or params.u_max == 0.0:
            return RootSet((0.0,), (1,))
        mu = params.mu

        def g_home(t: float) -> float:
            s = damped_time(mu, t)
            return vnorm * s - (params.u_max / mu) * (t - s)

        lo = 1e-9 / mu
        back = find_zero(g_home, lo, None, tol,
                         expand_start=1.0 / mu, expand_cap=CAP_FACTOR / mu)
        if back is None:
            return RootSet((0.0,), (1,))
        return RootSet((0.0, back), (1, 1))
    problem = ScribeProblem(delta_x=offset, delta_v=-state.vel, mu=params.mu,
                            u_a=0.0, u_d=params.u_max,
                            mode=ScribeMode.CIRCUMSCRIBE)
    return scribe_times(problem, tol)

