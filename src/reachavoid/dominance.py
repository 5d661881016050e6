"""Attacker dominance regions built from isochron geometry.

The locus L of simultaneous-reach points (both players' isochrones intersect
there at equal time) separates the plane into zones where one player or the
other arrives first.  Sweeping the intersection pair over the window from the
first external tangency t_out to the first internal tangency t_in traces L as
one or more closed loops; the loops split whenever the isochrones temporarily
separate again (second and third external tangencies).

Classification of a point:

  R_I   the attacker has a saturated straight-heading arrival that stays clear
        of the defender's reachable disc the whole way;
  R_II  the attacker arrives when the defender cannot be there, but every such
        straight run is interceptable somewhere en route;
  R_III the point lies inside the defender's multiple reachable region with
        the attacker's earliest arrival falling in the defender-reachable gap
        (t_D1, t_D2); reaching it safely requires slowing down so the arrival
        slides into the defender's unreachable window.  Only regions certified
        by one of two sufficient boundary conditions are labelled R_III: a
        closed intersection loop between the first two external tangencies
        with the attacker's drift center staying clear of the defender's disc,
        or a pocket bounded by the defender's second boundary arc together
        with the piece of L matching the defender's middle reach time.

Everything else is defender dominated.  Points within merge tolerance of L or
of either player's region boundary get explicit boundary labels so that maps
render the skeleton.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import (Control, DomainError, PlayerParams, PlayerState,
                       damped_time, isochron_xyr, path_xy, steer_controls, steer_to,
                       velocity_xy)
from .geometry import Vec2, mapped, point_in_polygon, polygon_area, wrap_angle
from .mrr import CLASSIFY_TOL, merge_times, mrr_boundary
from .scribe import (RootSet, ScribeMode, ScribeProblem, find_zero,
                     first_zero, reach_times, reach_times_players, scribe_times,
                     zeros_found)

# default number of sweep samples along the full tangency window
SWEEP_SAMPLES = 2048
# sweep samples of L for the pocket certificate's runs of t_D2
ANNOTATE_SAMPLES = 600
# trajectory samples of the scan for a planned run's first interceptable point
CROSSING_SAMPLES = 800
# |clearance| that the scan evaluates again on floats, per unit of run length
CROSSING_BAND = 1e-9
# relative slack of GameConfig's speed check; the margins' slope bounds carry it
SPEED_SLACK = 1e-9


class RegionLabel(enum.Enum):
    R_I = "R_I"
    R_II = "R_II"
    R_III = "R_III"
    DEFENDER_DOMINATED = "defender"
    BOUNDARY_L = "boundary_L"
    BOUNDARY_MRR = "boundary_mrr"


# the region labeller codes labels by their index here
_LABELS = tuple(RegionLabel)


@dataclass(frozen=True)
class GameConfig:
    """Full description of one game instance; target defaults to the origin."""

    attacker: PlayerState
    attacker_params: PlayerParams
    defender: PlayerState
    defender_params: PlayerParams
    target: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self):
        if self.attacker_params.mu != self.defender_params.mu:
            raise ValueError("both players must share the damping factor")
        if not self.attacker_params.u_max < self.defender_params.u_max:
            raise ValueError("the defender must out-accelerate the attacker")
        for name, st, par in (("attacker", self.attacker, self.attacker_params),
                              ("defender", self.defender, self.defender_params)):
            if st.vel.norm() > par.speed_cap * (1.0 + SPEED_SLACK):
                raise ValueError(f"{name} initial speed exceeds u_max/mu")
        if (self.attacker.pos - self.defender.pos).norm() == 0.0:
            raise ValueError("players must start at distinct positions")

    @property
    def mu(self) -> float:
        return self.attacker_params.mu

    @property
    def accel_ratio(self) -> float:
        return self.attacker_params.u_max / self.defender_params.u_max

    def scribe_problem(self, mode: ScribeMode) -> ScribeProblem:
        return ScribeProblem(delta_x=self.attacker.pos - self.defender.pos,
                             delta_v=self.attacker.vel - self.defender.vel,
                             mu=self.mu,
                             u_a=self.attacker_params.u_max,
                             u_d=self.defender_params.u_max,
                             mode=mode)


@dataclass(frozen=True)
class BoundarySegment:
    """One closed loop of L swept over [t_start, t_end].

    `points` is an (n, 2) array; `params` holds the sweep time of each vertex
    and `sides` the intersection branch (+1 counter-clockwise of the center
    line, -1 the mirror side, 0 at tangencies).
    """

    t_start: float
    t_end: float
    points: np.ndarray
    params: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class CaptureBoundary:
    """The full simultaneous-reach boundary L between t_out and t_in."""

    t_out: float
    t_in: float
    segments: tuple[BoundarySegment, ...]


def intersection_points(cfg: GameConfig, ts: np.ndarray):
    """Vectorized circle-circle intersections of the two isochrones.

    Returns (pair, valid): the intersection pair as one (2, n, 2) array, the
    plus points first and then the minus points, and a boolean mask of sweep
    times where the circles genuinely intersect.
    """
    s = damped_time(cfg.mu, ts)
    ax, ay, ra = isochron_xyr(cfg.attacker, cfg.attacker_params, ts, s)
    dx, dy, rd = isochron_xyr(cfg.defender, cfg.defender_params, ts, s)
    ux, uy = dx - ax, dy - ay
    d = np.hypot(ux, uy)
    apart, ra2 = d > 0.0, ra * ra
    valid = apart & (d <= ra + rd) & (d >= np.abs(ra - rd))
    dd = np.where(apart, d, 1.0)
    a = (dd * dd + ra2 - rd * rd) / (2.0 * dd)
    h = np.sqrt(np.maximum(ra2 - a * a, 0.0))
    ux, uy = ux / dd, uy / dd
    mx, my, hux, huy = ax + a * ux, ay + a * uy, h * ux, h * uy
    return np.array([[mx - huy, my + hux], [mx + huy, my - hux]]).transpose(0, 2, 1), valid


def _l_point(cfg: GameConfig, side: float):
    """A row of `intersection_points` as a function of a float time t, with
    the players' floats bound once: the plus (side >= 0) or minus point's x
    and y, whether the isochrones intersect, and a number with the sign of
    the payoff's slope along L.  The same operations on floats, so the same
    bits: np.exp and np.hypot round a float exactly as they round an array
    element, and the clip is a max.  The slope's sign is that of (q - T).q':
    each player's |q - c| = r gives n.q' = r r' + n.c' (n = q - c,
    c' = v e^(-mu t), r' = rate (1 - e^(-mu t))), and the determinant of the
    rows n_A, n_D is the signed offset h times the centres' distance, so
    side * (q - T).adj(n_A, n_D) b has it, with no pole where h = 0."""
    atk, dfd = cfg.attacker, cfg.defender
    ax0, ay0, avx, avy = atk.pos.x, atk.pos.y, atk.vel.x, atk.vel.y
    dx0, dy0, dvx, dvy = dfd.pos.x, dfd.pos.y, dfd.vel.x, dfd.vel.y
    rate_a, rate_d = cfg.attacker_params.speed_cap, cfg.defender_params.speed_cap
    mu, sign, tx, ty = cfg.mu, 1.0 if side >= 0 else -1.0, cfg.target.x, cfg.target.y

    def point(t: float) -> tuple[float, float, bool, float]:
        e = float(np.exp(-mu * t))
        s = (1.0 - e) / mu
        ax, ay, ra = ax0 + avx * s, ay0 + avy * s, rate_a * (t - s)
        cx, cy, rd = dx0 + dvx * s, dy0 + dvy * s, rate_d * (t - s)
        ux, uy = cx - ax, cy - ay
        d = float(np.hypot(ux, uy))
        valid = d > 0.0 and d <= ra + rd and d >= abs(ra - rd)
        dd = d if d > 0.0 else 1.0
        a = (dd * dd + ra * ra - rd * rd) / (2.0 * dd)
        # the minus point's offset is the exact negation of the plus point's
        h = sign * math.sqrt(max(ra * ra - a * a, 0.0))
        ux, uy = ux / dd, uy / dd
        x, y = ax + a * ux - h * uy, ay + a * uy + h * ux
        nax, nay, ndx, ndy = x - ax, y - ay, x - cx, y - cy
        ba = ra * rate_a * (1.0 - e) + (nax * avx + nay * avy) * e
        bd = rd * rate_d * (1.0 - e) + (ndx * dvx + ndy * dvy) * e
        return x, y, valid, sign * ((x - tx) * (ndy * ba - nay * bd)
                                    + (y - ty) * (nax * bd - ndx * ba))
    return point


@lru_cache(maxsize=256)
def tangency_windows(cfg: GameConfig) -> tuple[RootSet, RootSet]:
    """(circumscribe roots, inscribe roots) of the two isochron families."""
    out = scribe_times(cfg.scribe_problem(ScribeMode.CIRCUMSCRIBE))
    inn = scribe_times(cfg.scribe_problem(ScribeMode.INSCRIBE))
    return out, inn


def _active_intervals(cfg: GameConfig) -> tuple[float, float, list[tuple[float, float]]]:
    out, inn = tangency_windows(cfg)
    t_out, t_in = out.first, inn.first
    events = sorted({t_out, t_in, *[r for r in out.times if t_out < r < t_in],
                     *[r for r in inn.times if t_out < r < t_in]})
    point = _l_point(cfg, 1.0)
    return t_out, t_in, [(a, b) for a, b in zip(events[:-1], events[1:])
                         if point(0.5 * (a + b))[2]]


def capture_boundary(cfg: GameConfig, samples: int = SWEEP_SAMPLES) -> CaptureBoundary:
    """Sweep the simultaneous-reach boundary L into closed loops."""
    if samples < 2:
        raise ValueError("need at least two sweep samples")
    t_out, t_in, intervals = _active_intervals(cfg)
    total = sum(b - a for a, b in intervals)
    segments = []
    n_samples = max(samples, 2 * len(intervals))
    for a, b in intervals:
        n = max(8, int(round(n_samples * (b - a) / total))) if total > 0 else 8
        ts = np.linspace(a, b, n)
        (plus, minus), valid = intersection_points(cfg, ts)
        # the ends are tangency times, where h = 0 in exact arithmetic: an end
        # sample stays only if `valid` at the solved time, so rounding decides
        loop_pts = np.vstack([plus[valid], minus[valid][::-1]])
        loop_t = np.concatenate([ts[valid], ts[valid][::-1]])
        loop_side = np.concatenate([np.ones(valid.sum()), -np.ones(valid.sum())])
        segments.append(BoundarySegment(t_start=a, t_end=b, points=loop_pts,
                                        params=loop_t, sides=loop_side))
    return CaptureBoundary(t_out=t_out, t_in=t_in, segments=tuple(segments))


def arrival_alignment(state: PlayerState, params: PlayerParams, point: Vec2,
                      t: float) -> float:
    """Terminal velocity component along the heading for the arrival at t."""
    if t < 0.0:
        raise DomainError(f"propagation time must be >= 0, got {t}")
    ctrl = steer_to(state, params, point, t)
    return _alignment(state, params, ctrl.u, ctrl.theta, t)


def _alignment(state: PlayerState, params: PlayerParams, u, theta, t):
    """propagate's terminal velocity at t under thrust u along the heading
    theta, dotted with the heading; floats or 1-D arrays alike."""
    heading = wrap_angle(theta)
    hx, hy = mapped(math.cos, heading), mapped(math.sin, heading)
    vx, vy = velocity_xy(state, params, u, hx, hy, mapped(math.exp, -params.mu * t))
    return vx * hx + vy * hy


def _middle_arrivals(cfg: GameConfig, segments) -> list[np.ndarray]:
    """Mask of the vertices of each segment of L that the defender reaches at
    its middle reach time.  A vertex reached at sweep time t is
    p = c(t) + R(t) e on the defender's isochron, so its reach gap
    G(s) = |c(s) - p|^2 - R(s)^2 has G'(t) = -2 R(t) (e . v) with v the
    arrival velocity: p leaves the disc at t, its middle time, exactly where
    the arrival alignment e . v is negative.  One alignment pass over all
    segments; False where steer_to rejects the vertex."""
    state, params = cfg.defender, cfg.defender_params
    pts = np.concatenate([seg.points for seg in segments])
    t = np.concatenate([seg.params for seg in segments])
    u, theta, ok = steer_controls(state, params, *pts.T, t)
    middle = ok & (_alignment(state, params, u, theta, t) < 0.0)
    return np.split(middle, np.cumsum([len(seg) for seg in segments])[:-1])


# ---------------------------------------------------------------------------
# minima of the payoff along L (candidate terminal points)

@dataclass(frozen=True)
class BoundaryMinimum:
    payoff: float
    t: float
    side: float
    point: Vec2


def _dip_candidates(dist: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask of the valid samples along the last axis of `dist` no farther than
    either neighbour (inf beyond the ends), and of valid end samples."""
    keep = np.empty(dist.shape, dtype=bool)
    keep[...] = valid
    inner = dist[..., 1:-1]
    keep[..., 1:-1] &= (inner <= dist[..., :-2]) & (inner <= dist[..., 2:])
    return keep


def boundary_minima(cfg: GameConfig, samples: int = 512) -> list[BoundaryMinimum]:
    """All refined local minima of distance-to-target along L, best first.

    Each sampled dip is refined to a root of the distance's slope along L
    (`find_zero`, to ROOT_TOL) between its neighbouring samples; where the
    slope does not rise through zero there, the nearer of the two is
    taken, except for an interval's end sample, which then adds nothing.
    The tangency times that end each interval are candidates too.
    Ties within 1e-9 in payoff order by smaller sweep time, then by smaller
    polar angle of the point, which keeps the selection deterministic when
    the boundary has symmetric or near-tied dips.
    """
    if samples < 2:
        raise ValueError("need at least two sweep samples")
    tx, ty = cfg.target.x, cfg.target.y
    _, _, intervals = _active_intervals(cfg)
    # candidates as (payoff, t, side, x, y) floats; a sample's point is its
    # row of intersection_points, which _l_point gives bit for bit
    found: list[tuple[float, ...]] = []
    for a, b in intervals:
        ts = np.linspace(a, b, samples)
        pts, valid = intersection_points(cfg, ts)
        dist = np.where(valid, np.hypot(pts[..., 0] - tx, pts[..., 1] - ty), np.inf)
        last = len(ts) - 1
        for side, rows, keep in zip((1.0, -1.0), pts, _dip_candidates(dist, valid)):
            point = _l_point(cfg, side)

            def dip(t: float, x: float, y: float) -> tuple[float, ...]:
                return math.hypot(x - tx, y - ty), t, side, x, y

            def sample(i: int) -> tuple[float, ...]:
                return dip(float(ts[i]), *rows[i].tolist())

            found += [sample(0), sample(last)]
            for i in np.flatnonzero(keep).tolist():
                lo, hi = max(i - 1, 0), min(i + 1, last)
                t_lo, t_hi = float(ts[lo]), float(ts[hi])
                rises = point(t_lo)[3] < 0.0
                t_star = find_zero(lambda t: point(t)[3], t_lo, t_hi) if rises else None
                if t_star is not None:
                    found.append(dip(t_star, *point(t_star)[:2]))
                elif 0 < i < last:
                    found.append(min(sample(lo), sample(hi), key=lambda m: m[0]))
    found.sort(key=lambda m: (round(m[0] / 1e-9), m[1], math.atan2(m[4], m[3])))
    deduped: list[tuple[float, ...]] = []
    for m in found:
        if all(math.hypot(m[3] - d[3], m[4] - d[4]) > 1e-7 for d in deduped):
            deduped.append(m)
    return [BoundaryMinimum(p, t, side, Vec2(x, y)) for p, t, side, x, y in deduped]


# ---------------------------------------------------------------------------
# R_III certificates (the two sufficient boundary conditions)

class R3Condition(enum.Enum):
    LOOP_BETWEEN_TANGENCIES = "cond1"
    POCKET_BEHIND_MRR = "cond2"


@dataclass(frozen=True)
class R3Component:
    condition: R3Condition
    polygon: np.ndarray

    def area(self) -> float:
        return abs(polygon_area(self.polygon))


def _cond1_components(cfg: GameConfig) -> list[R3Component]:
    out, inn = tangency_windows(cfg)
    outs = out.times
    if len(outs) < 2 or outs[1] >= inn.first:
        return []
    t1, t2 = outs[0], outs[1]
    # the thrustless path is the attacker's drift center
    if first_zero(_clearance(cfg, 0.0, 1.0, 0.0), t1, t2, _run_lip(cfg)) is not None:
        return []
    (plus, minus), valid = intersection_points(cfg, np.linspace(t1, t2, 400))
    loop = np.vstack([plus[valid], minus[valid][::-1]])
    if len(loop) < 3:
        return []
    return [R3Component(R3Condition.LOOP_BETWEEN_TANGENCIES, loop)]


def _ring_cut(ring: np.ndarray, i: int, j: int, forward: bool) -> np.ndarray:
    n = len(ring)
    if forward:
        idx = np.arange(i, i + (j - i) % n + 1) % n
    else:
        idx = np.arange(i, i - (i - j) % n - 1, -1) % n
    return ring[idx]


def _defender_time_split(segments, middle_per_segment):
    """Group L vertices into maximal runs matched to t_D2."""
    runs = []
    for seg, middle in zip(segments, middle_per_segment):
        for side in (1.0, -1.0):
            idx = np.flatnonzero((seg.sides == side) & middle)
            runs += [seg.points[chunk] for chunk in
                     np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1) if len(chunk) >= 3]
    return runs


def _probe_ok(cfg: GameConfig, probe: Vec2) -> bool:
    ea, ed = _reach_rows(cfg, probe)
    return bool(_r3_timing(ea, ed, _race(ea, ed)[0]))


def _polygon_probes(poly: np.ndarray) -> list[Vec2]:
    cx, cy = poly[:, 0].mean(), poly[:, 1].mean()
    probes = [Vec2(float(cx), float(cy))]
    for frac in (0.25, 0.5, 0.75):
        k = int(frac * len(poly))
        px = 0.7 * poly[k, 0] + 0.3 * cx
        py = 0.7 * poly[k, 1] + 0.3 * cy
        probes.append(Vec2(float(px), float(py)))
    return probes


def _is_pocket(cfg: GameConfig, loop: np.ndarray) -> bool:
    """A closed loop certifies a pocket: it has an area, some probe lies
    inside it, and every inside probe passes the R_III timing test."""
    if len(loop) < 4 or abs(polygon_area(loop)) < 1e-12:
        return False
    inside = [p for p in _polygon_probes(loop) if point_in_polygon((p.x, p.y), loop)]
    return bool(inside) and all(_probe_ok(cfg, p) for p in inside)


def _cond2_components(cfg: GameConfig) -> list[R3Component]:
    if cfg.defender.vel.norm() == 0.0:
        return []
    segments = capture_boundary(cfg, ANNOTATE_SAMPLES).segments
    runs = segments and _defender_time_split(segments, _middle_arrivals(cfg, segments))
    if not runs:
        return []
    ring = mrr_boundary(cfg.defender, cfg.defender_params).polygon()
    # each run meets the region ring at the vertices nearest its two ends
    ends = [[int(np.argmin(np.hypot(*(ring - run[e]).T))) for e in (0, -1)] for run in runs]
    components, used, n = [], set(), len(runs)
    # candidate loops, fewest runs first: each run closed to the next by an arc of the ring
    for k in range(1, n + 1):
        for order in itertools.permutations(range(n), k):
            if used.intersection(order):
                continue
            succ = order[1:] + order[:1]
            for flags in itertools.product((True, False), repeat=k):
                loop = np.vstack([piece for r, s, fwd in zip(order, succ, flags) for piece in
                                  (runs[r], _ring_cut(ring, ends[r][1], ends[s][0], fwd))])
                if _is_pocket(cfg, loop):
                    used.update(order)
                    components.append(R3Component(R3Condition.POCKET_BEHIND_MRR, loop))
                    break
    return components


def r3_certificates(cfg: GameConfig) -> tuple[R3Component, ...]:
    """Certified third-region components for a configuration."""
    return tuple(_cond1_components(cfg) + _cond2_components(cfg))


# ---------------------------------------------------------------------------
# point classification and region maps

def clearance_at(cfg: GameConfig, ctrl: Control, t):
    """Distance at time t (a float or an array) from the attacker's path under
    `ctrl` to the defender's reachable disc; negative where interceptable."""
    return _clearance(cfg, ctrl.u, math.cos(ctrl.theta), math.sin(ctrl.theta))(t)


def _clearance(cfg: GameConfig, u, hx, hy):
    """clearance_at under thrust u along (hx, hy) as a function of t (floats,
    or columns against a 2-D t, one run per row): path_xy's distance from
    the center of the defender's isochron_xyr, less its radius."""
    def clearance(t):
        s = damped_time(cfg.mu, t)
        x, y = path_xy(cfg.attacker, cfg.attacker_params, u, hx, hy, t, s)
        cx, cy, r = isochron_xyr(cfg.defender, cfg.defender_params, t, s)
        hypot = np.hypot if isinstance(t, np.ndarray) else math.hypot
        return hypot(x - cx, y - cy) - r
    return clearance


def straight_runs(cfg: GameConfig, points, times) -> np.ndarray:
    """Whether the attacker's saturated straight run to points[i] (x, y pairs)
    arriving at times[i] > 0 under steer_to's control is never interceptable:
    one boolean per run, False where steer_to rejects it or the defender's
    disc covers its end at arrival (steer_to may clamp a run from up to
    BOUNDARY_SLACK outside the attacker's disc, keeping f(t) just above 0: the
    conservative side).  Else its clearance f, with f(0) > 0 and |f'| <= lip =
    cap_A + cap_D (with SPEED_SLACK), must have no zero first_zero finds on
    [0, t]: one array search (zeros_found) for many open-end runs, and
    `straight_run`, this whole test on floats, for one."""
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    t = np.array(times, dtype=float)
    safe = np.zeros(len(t), dtype=bool)
    cx, cy, r = isochron_xyr(cfg.defender, cfg.defender_params, t, damped_time(cfg.mu, t))
    rows = np.flatnonzero(np.hypot(x - cx, y - cy) > r)
    if len(rows) == 1:
        i = rows[0]
        safe[i] = straight_run(cfg, float(x[i]), float(y[i]), float(t[i]))
    if len(rows) < 2:
        return safe
    u, theta, ok = steer_controls(cfg.attacker, cfg.attacker_params, x[rows], y[rows], t[rows])
    rows, u, theta, t = rows[ok], u[ok], theta[ok], t[rows][ok]
    hx, hy = np.cos(theta), np.sin(theta)
    safe[rows] = ~zeros_found(lambda i, s: _clearance(cfg, u[i], hx[i], hy[i])(s),
                              np.zeros(len(t)), t, _run_lip(cfg))
    return safe


def straight_run(cfg: GameConfig, x: float, y: float, t: float) -> bool:
    """straight_runs(cfg, [(x, y)], [t])[0] on floats, bit for bit: the same
    operations without numpy's per-call costs on one-element arrays.  The
    end test takes np.exp and np.hypot, the headings np.cos and np.sin, each
    of which rounds a float exactly as it rounds an array element, and
    steer_controls' float call is its array call's element."""
    cx, cy, r = isochron_xyr(cfg.defender, cfg.defender_params, t,
                             (1.0 - float(np.exp(-cfg.mu * t))) / cfg.mu)
    if not np.hypot(x - cx, y - cy) > r:
        return False
    u, theta, ok = steer_controls(cfg.attacker, cfg.attacker_params, x, y, t)
    return ok and first_zero(_clearance(cfg, u, float(np.cos(theta)), float(np.sin(theta))),
                             0.0, t, _run_lip(cfg)) is None


def _run_lip(cfg: GameConfig) -> float:
    """The slope bound of a run's clearance: cap_A + cap_D, with SPEED_SLACK."""
    return (cfg.attacker_params.speed_cap + cfg.defender_params.speed_cap) * (1.0 + SPEED_SLACK)


def _reach_rows(cfg: GameConfig, point: Vec2, times=None) -> np.ndarray:
    """The attacker's and the defender's reach times at `point` (`times`, if
    already solved): a (2, 3) array of expanded times padded with nan, as
    reach_times_many gives them."""
    rows = np.full((2, 3), np.nan)
    for i, (state, params) in enumerate(((cfg.attacker, cfg.attacker_params),
                                         (cfg.defender, cfg.defender_params))):
        row = times[i] if times else reach_times(point, state, params).expanded()
        rows[i, :len(row)] = row
    return rows


def _race(ea, ed):
    """The merge tolerance, and which of the expanded attacker times `ea`
    win against the expanded defender times `ed` (see race).  Each is three
    columns of floats or of arrays, padded with nan, which never wins."""
    tol = CLASSIFY_TOL * (1.0 + np.minimum(ea[0], ed[0]))
    first, gap_lo, gap_hi = ed[0] - tol, ed[1] + tol, ed[2] - tol
    return tol, [(t < first) | ((gap_lo < t) & (t < gap_hi)) for t in ea]


def _r3_timing(ea, ed, tol):
    """R_III's timing test on columns of expanded times as _race takes them:
    the defender has a third reach time, and the attacker's first lies in
    (t_D1, t_D2) by more than the merge tolerance `tol`."""
    return ~np.isnan(ed[2]) & (ed[0] + tol < ea[0]) & (ea[0] < ed[1] - tol)


def race(cfg: GameConfig, point: Vec2, times=None) -> list[float]:
    """The attacker's winning reach times at `point`.  An attacker time wins
    before the defender's first arrival or inside the defender's gap
    (t_D2, t_D3), when the defender cannot be there.  `times` are both
    players' expanded reach times at `point`, if already solved."""
    ea, ed = _reach_rows(cfg, point, times).tolist()
    _, wins = _race(ea, ed)
    return [t for t, w in zip(ea, wins) if w]


def classify_point(cfg: GameConfig, point: Vec2) -> RegionLabel:
    """Region label of a single point (see module docstring for the zoo)."""
    atk, dfd = _reach_rows(cfg, point)
    return _labels(cfg, np.array([[point.x, point.y]]), atk[None], dfd[None])[0]


def _labels(cfg: GameConfig, pts: np.ndarray, atk: np.ndarray,
            dfd: np.ndarray) -> list[RegionLabel]:
    """Region labels of the points `pts` (N, 2), given each player's (N, 3)
    expanded reach times there as reach_times_many returns them.

    Precedence: equal reach times (boundary_L), then a double reach time of
    either player (boundary_mrr), then a winning attacker time (R_I when it
    is t = 0 or a straight run at one is safe, else R_II), then R_III inside
    a certificate, else defender dominated.
    """
    ea, ed = atk.T, dfd.T
    tol, wins = _race(ea, ed)
    _, inn = tangency_windows(cfg)
    # equal reach times beyond the first full-containment time are
    # post-game geometry, not part of the capture boundary
    on_l = ((np.abs(ea[:, None] - ed[None]) <= tol)
            & (ea <= inn.first + tol)[:, None]).any(axis=(0, 1))
    # a double reach time: a tangent root, or times merged into one
    on_mrr = ((merge_times(atk)[1] >= 2).any(axis=1)
              | (merge_times(dfd)[1] >= 2).any(axis=1))
    undecided = ~(on_l | on_mrr)
    won = undecided & (wins[0] | wins[1] | wins[2])
    # an arrival at t = 0 means the attacker already stands on the point
    safe = won & np.any([w & (t <= 0.0) for t, w in zip(ea, wins)], axis=0)
    for t, w in zip(ea, wins):
        # each cell's winning times in order, as can_reach_target tries them
        rows = np.nonzero(won & ~safe & w & (t > 0.0))[0]
        safe[rows] = straight_runs(cfg, pts[rows], t[rows])
    r3 = np.zeros(len(pts), dtype=bool)
    timing = np.nonzero(undecided & ~won & _r3_timing(ea, ed, tol))[0]
    if len(timing):
        comps = r3_certificates(cfg)
        for i in timing:
            r3[i] = any(point_in_polygon(pts[i], c.polygon) for c in comps)
    # indices into _LABELS; later assignments take precedence
    codes = np.full(len(pts), _LABELS.index(RegionLabel.DEFENDER_DOMINATED))
    for mask, label in ((r3, RegionLabel.R_III), (won, RegionLabel.R_II),
                        (safe, RegionLabel.R_I), (on_mrr, RegionLabel.BOUNDARY_MRR),
                        (on_l, RegionLabel.BOUNDARY_L)):
        codes[mask] = _LABELS.index(label)
    return [_LABELS[c] for c in codes.tolist()]


def region_map(cfg: GameConfig, window: tuple[float, float, float, float],
               resolution: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, list[list[RegionLabel]]]:
    """Classify a uniform grid over `window` = (xmin, xmax, ymin, ymax).

    Returns (xs, ys, labels) with labels indexed [row][col] = [y][x].  Each
    label equals classify_point's: one batch solve, equal to the scalar ones
    bit for bit, gives both players' reach times on the whole grid, and the
    labeller makes one call, as classify_point does for a single point.
    """
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    xmin, xmax, ymin, ymax = window
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must have positive extent")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    flat = _labels(cfg, pts, *reach_times_players(pts, [
        (cfg.attacker, cfg.attacker_params), (cfg.defender, cfg.defender_params)]))
    return xs, ys, [flat[j * nx:(j + 1) * nx] for j in range(ny)]
