"""Multiple reachable region of a single moving player.

A player launched with nonzero velocity can reach some points at three
distinct times: early while coasting past, and twice more as the growing
isochron family sweeps back over them.  Those points form the multiple
reachable region (MRR).  Its boundary is traced by the limit of
self-intersections of neighbouring isochrones, equivalently by trajectories
that are tangent to the isochron they end on.  The tangency heading at time t
satisfies

    v0 . heading(theta) = -(u/mu) * (exp(mu t) - 1),

solvable while the right-hand side does not exceed the initial speed, i.e. up
to the barrier time t_s.  The boundary consists of a first-arc pair (equal
first and second reach times) up to two cusps at the cusp time t_u, where all
three reach times coincide, and a second-arc pair (equal second and third
times) that closes at the single deepest point x_s at t_s.  A player at rest
has no MRR at all.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DomainError, PlayerParams, PlayerState, isochron_xyr
from .geometry import Vec2, mapped, wrap_angle
from .scribe import find_zero, reach_times

# reach times closer than this (scaled by 1+t) merge into a boundary label
CLASSIFY_TOL = 1e-8
# samples per boundary branch; extra cluster added near the cusps
BRANCH_SAMPLES = 512


class Branch(enum.Enum):
    PLUS = 1
    MINUS = -1


class ReachKind(enum.Enum):
    SINGLE = "single"
    TRIPLE = "triple"
    BOUNDARY_I = "boundary_i"
    BOUNDARY_II = "boundary_ii"
    CUSP = "cusp"


@dataclass(frozen=True)
class ReachClassification:
    kind: ReachKind
    times: tuple[float, ...]


@dataclass(frozen=True)
class MrrBoundary:
    """Sampled boundary of one player's multiple reachable region.

    branch_i runs cusp(minus) -> start position -> cusp(plus) with the
    two-equal-smallest-times parameter in [0, t_u]; branch_ii runs
    cusp(plus) -> x_s -> cusp(minus) with parameter in [t_u, t_s].  Each is
    an (n, 3) array of rows (parameter, x, y); concatenating the two gives a
    closed polygon.
    """

    t_s: float
    t_u: float
    x_s: Vec2
    cusps: tuple[Vec2, Vec2]
    branch_i: np.ndarray
    branch_ii: np.ndarray

    def polygon(self) -> np.ndarray:
        return np.vstack([self.branch_i[:, 1:], self.branch_ii[:, 1:]])

    @property
    def empty(self) -> bool:
        return self.t_s <= 0.0


def barrier_time(state: PlayerState, params: PlayerParams) -> float:
    """Last time the isochron family self-overlaps; 0 for a player at rest."""
    if params.u_max <= 0.0:
        raise DomainError("barrier time undefined for a thrustless player")
    v = state.vel.norm()
    return math.log((params.mu * v + params.u_max) / params.u_max) / params.mu


def _cusp_residual(v0: float, u: float, mu: float, t: float) -> float:
    decay = math.exp(-mu * t)
    s = (1.0 - decay) / mu
    return (u * u / mu) * (t - s) - (v0 * v0 * decay * decay
                                     - (u * u / (mu * mu)) * (1.0 - decay) ** 2)


def cusp_time(state: PlayerState, params: PlayerParams) -> float:
    """Time of the boundary cusps, where all three reach times coincide.

    Unique root in (0, t_s) of the vanishing-tangent condition; degenerates
    to 0 together with the barrier time when the player starts at rest.
    """
    v0 = state.vel.norm()
    if v0 == 0.0:
        return 0.0
    t_s = barrier_time(state, params)
    f = lambda t: _cusp_residual(v0, params.u_max, params.mu, t)
    lo = 1e-15 / params.mu
    root = find_zero(f, lo, t_s, tol=1e-14)
    if root is None:
        raise RuntimeError("cusp equation had no sign change on (0, t_s)")
    return root


def boundary_xy(state: PlayerState, params: PlayerParams, t: np.ndarray,
                sign: float) -> tuple[np.ndarray, np.ndarray]:
    """x, y of the MRR boundary at the parameters `t` (a 1-D array) on branch
    `sign` (+1 counter-clockwise): where the saturated run tangent to its own
    isochron at time t ends, at the run's heading from the isochron center."""
    live = t > 0.0
    vnorm = state.vel.norm()
    if vnorm == 0.0 and live.any():
        raise DomainError("tangency heading undefined for a player at rest")
    b = (params.u_max / params.mu) * (mapped(math.exp, params.mu * t) - 1.0)
    m_sq = vnorm * vnorm - b * b
    beyond = live & (m_sq < -1e-12 * vnorm * vnorm)
    if beyond.any():
        raise DomainError("no tangency heading beyond the barrier time "
                          f"(t={t[beyond][0]})")
    m = np.sqrt(np.maximum(m_sq, 0.0))
    vnorm = vnorm or 1.0  # at rest every t <= 0: the start point, below
    hx, hy = state.vel.x / vnorm, state.vel.y / vnorm
    # (-b * vhat + sign * m * perp(vhat)) / |v|, perp a quarter turn
    theta = wrap_angle(mapped(math.atan2, (-b * hy + sign * m * hx) / vnorm,
                              (-b * hx + sign * m * -hy) / vnorm))
    cx, cy, r = isochron_xyr(state, params, t,
                             (1.0 - mapped(math.exp, -params.mu * t)) / params.mu)
    return (np.where(live, cx + r * mapped(math.cos, theta), state.pos.x),
            np.where(live, cy + r * mapped(math.sin, theta), state.pos.y))


def boundary_point(state: PlayerState, params: PlayerParams, t: float,
                   branch: Branch) -> Vec2:
    """Point of the MRR boundary with two equal reach times at parameter t."""
    x, y = boundary_xy(state, params, np.array([t]), float(branch.value))
    return Vec2(x[0], y[0])


def _branch_params(t_lo: float, t_hi: float, n: int, refine_at: float) -> np.ndarray:
    """Uniform parameter grid with a geometric cluster near `refine_at`."""
    base = np.linspace(t_lo, t_hi, n)
    span = t_hi - t_lo
    if span <= 0.0:
        return base
    offsets = np.geomspace(1e-6, 0.05, 24) * span
    cluster = np.concatenate([refine_at - offsets, refine_at + offsets])
    cluster = cluster[(cluster > t_lo) & (cluster < t_hi)]
    return np.unique(np.concatenate([base, cluster]))


def mrr_boundary(state: PlayerState, params: PlayerParams,
                 samples: int = BRANCH_SAMPLES) -> MrrBoundary:
    """Sample the full MRR boundary.  Degenerates to the start point at rest."""
    if state.vel.norm() == 0.0:
        p = state.pos
        row = np.array([[0.0, p.x, p.y]])
        return MrrBoundary(t_s=0.0, t_u=0.0, x_s=p, cusps=(p, p),
                           branch_i=row, branch_ii=row.copy())
    t_s = barrier_time(state, params)
    t_u = cusp_time(state, params)
    x_s = boundary_point(state, params, t_s, Branch.PLUS)
    cusp_plus = boundary_point(state, params, t_u, Branch.PLUS)
    cusp_minus = boundary_point(state, params, t_u, Branch.MINUS)

    # curvature concentrates at the cusps where the boundary tangent vanishes
    t_i = _branch_params(0.0, t_u, samples, refine_at=t_u)
    t_ii = _branch_params(t_u, t_s, samples, refine_at=t_u)

    def arc(ts: np.ndarray, sign: float) -> np.ndarray:
        return np.column_stack([ts, *boundary_xy(state, params, ts, sign)])

    branch_i = np.vstack([arc(t_i[::-1], -1.0), arc(t_i, 1.0)])
    branch_ii = np.vstack([arc(t_ii, 1.0), arc(t_ii[::-1], -1.0)])
    return MrrBoundary(t_s=t_s, t_u=t_u, x_s=x_s, cusps=(cusp_plus, cusp_minus),
                       branch_i=branch_i, branch_ii=branch_ii)


def merge_times(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merge rule for reach times, on (N, 3) rows of expanded times padded
    with nan: each column's merged time and the multiplicity of its merged
    root (0 at padding).  In order, a time within CLASSIFY_TOL*(1+t) of the
    last merged time joins it, and the two are replaced by their midpoint."""
    t0, t1, t2 = rows.T
    join1 = t1 - t0 <= CLASSIFY_TOL * (1.0 + t1)
    last = np.where(join1, 0.5 * (t0 + t1), t1)
    join2 = t2 - last <= CLASSIFY_TOL * (1.0 + t2)
    m2 = np.where(join2, 0.5 * (last + t2), t2)
    m1 = np.where(join2, m2, last)
    c2 = np.where(join2, 2 + join1, 1)
    c1 = np.where(join2, c2, 1 + join1)
    times = np.column_stack([np.where(join1, m1, t0), m1, m2])
    mults = np.column_stack([np.where(join1, c1, 1), c1, c2])
    return times, np.where(np.isnan(rows), 0, mults)


# ReachKind by the multiplicities of a point's merged reach times; two simple
# roots occur only at a moving player's start (departure plus one swing back)
_KINDS = {(1,): ReachKind.SINGLE, (2,): ReachKind.CUSP, (3,): ReachKind.CUSP,
          (1, 1): ReachKind.BOUNDARY_I, (2, 1): ReachKind.BOUNDARY_I,
          (1, 2): ReachKind.BOUNDARY_II, (1, 1, 1): ReachKind.TRIPLE}


def classify(point: Vec2, state: PlayerState, params: PlayerParams) -> ReachClassification:
    """Label a point by how many distinct times the player can reach it.

    Reach times merge by `merge_times`, so points within the merge tolerance
    of the MRR boundary resolve to the boundary labels rather than to SINGLE
    or TRIPLE.
    """
    row = np.full((1, 3), np.nan)
    expanded = reach_times(point, state, params).expanded()
    row[0, :len(expanded)] = expanded
    times, mults = (a[0].tolist() for a in merge_times(row))
    # the columns of one merged root repeat its time and multiplicity
    merged = list(dict.fromkeys((t, m) for t, m in zip(times, mults) if m))
    return ReachClassification(_KINDS[tuple(m for _, m in merged)],
                               tuple(t for t, _ in merged))
