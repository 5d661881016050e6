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
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .dynamics import (Control, DomainError, InfeasibleTargetError,
                       PlayerParams, PlayerState, damped_time, isochron_xyr,
                       path_xy, steer_to)
from .geometry import Vec2, point_in_polygon, polygon_area
from .mrr import CLASSIFY_TOL, merge_roots, mrr_boundary
from .scribe import (RootSet, ScribeMode, ScribeProblem, find_zero,
                     reach_times, reach_times_many, scribe_times)

# default number of sweep samples along the full tangency window
SWEEP_SAMPLES = 2048
# samples used when annotating reach-time indices along L (each costs a solve)
ANNOTATE_SAMPLES = 600
# trajectory samples for the straight-run safety check behind R_I
SAFETY_SAMPLES = 200
# trajectory samples of the scan for a planned run's first interceptable point
CROSSING_SAMPLES = 800
# |clearance| that the scan evaluates again on floats, per unit of run length
CROSSING_BAND = 1e-9
# straight runs evaluated together; bounds the (runs, SAFETY_SAMPLES) arrays
RUN_CHUNK = 128


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
            if st.vel.norm() > par.speed_cap * (1.0 + 1e-9):
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

    Returns (plus, minus, valid): two (n, 2) arrays of the intersection pair
    and a boolean mask of sweep times where the circles genuinely intersect.
    """
    s = damped_time(cfg.mu, ts)
    ax, ay, ra = isochron_xyr(cfg.attacker, cfg.attacker_params, ts, s)
    dx, dy, rd = isochron_xyr(cfg.defender, cfg.defender_params, ts, s)
    ux, uy = dx - ax, dy - ay
    d = np.hypot(ux, uy)
    valid = (d > 0.0) & (d <= ra + rd) & (d >= np.abs(ra - rd))
    dd = np.where(d > 0.0, d, 1.0)
    a = (dd * dd + ra * ra - rd * rd) / (2.0 * dd)
    h = np.sqrt(np.clip(ra * ra - a * a, 0.0, None))
    ux, uy = ux / dd, uy / dd
    mx, my = ax + a * ux, ay + a * uy
    plus = np.stack([mx - h * uy, my + h * ux], axis=1)
    minus = np.stack([mx + h * uy, my - h * ux], axis=1)
    return plus, minus, valid


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
    intervals = []
    point = _l_point(cfg, 1.0)
    for a, b in zip(events[:-1], events[1:]):
        if point(0.5 * (a + b))[2]:
            intervals.append((a, b))
    return t_out, t_in, intervals


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
        plus, minus, valid = intersection_points(cfg, ts)
        # tangency collapse at interval ends: force exact single points there
        loop_pts = np.vstack([plus[valid], minus[valid][::-1]])
        loop_t = np.concatenate([ts[valid], ts[valid][::-1]])
        loop_side = np.concatenate([np.ones(valid.sum()), -np.ones(valid.sum())])
        segments.append(BoundarySegment(t_start=a, t_end=b, points=loop_pts,
                                        params=loop_t, sides=loop_side))
    return CaptureBoundary(t_out=t_out, t_in=t_in, segments=tuple(segments))


def matched_index(times: list[float], t: float, alignment: float) -> int:
    """Reach-time index (0 outside the MRR, else 1..3) matched by time t.

    `times` are a point's expanded reach times (a tangent root twice); nan
    padding is skipped.  Double roots are disambiguated by the sign of the
    arrival alignment (velocity dotted with heading): positive picks the
    sweeping-outward slot {1, 3}, negative the middle slot 2.
    """
    merged = merge_roots((r, 1) for r in times if not math.isnan(r))
    total = sum(m for _, m in merged)
    if total <= 1:
        return 0
    best = min(range(len(merged)), key=lambda i: abs(merged[i][0] - t))
    base = 1 + sum(m for _, m in merged[:best])
    mult = merged[best][1]
    if mult == 1:
        return base
    slots = list(range(base, base + mult))
    if alignment < 0.0:
        return 2 if 2 in slots else slots[0]
    odd = [s for s in slots if s != 2]
    return odd[0] if odd else slots[0]


def arrival_alignment(state: PlayerState, params: PlayerParams, point: Vec2,
                      t: float) -> float:
    """Terminal velocity component along the heading for the arrival at t."""
    ctrl = steer_to(state, params, point, t)
    if t < 0.0:
        raise DomainError(f"propagation time must be >= 0, got {t}")
    # the terminal velocity of propagate, dotted with the heading
    decay = math.exp(-params.mu * t)
    a = ctrl.u / params.mu
    hx, hy = math.cos(ctrl.theta), math.sin(ctrl.theta)
    return ((state.vel.x * decay + a * (1.0 - decay) * hx) * hx
            + (state.vel.y * decay + a * (1.0 - decay) * hy) * hy)


def _annotate_segment(cfg: GameConfig, seg: BoundarySegment) -> np.ndarray:
    """Matched (attacker, defender) reach-time indices of each vertex of L."""
    pairs = np.zeros((len(seg), 2), dtype=int)
    players = ((cfg.attacker, cfg.attacker_params),
               (cfg.defender, cfg.defender_params))
    for k, (state, params) in enumerate(players):
        rows = reach_times_many(seg.points, state, params).tolist()
        for i, r in enumerate(rows):
            p = Vec2(float(seg.points[i, 0]), float(seg.points[i, 1]))
            t = float(seg.params[i])
            try:
                align = arrival_alignment(state, params, p, t)
            except (InfeasibleTargetError, DomainError):
                align = 0.0
            pairs[i, k] = matched_index(r, t, align)
    return pairs


# ---------------------------------------------------------------------------
# minima of the payoff along L (candidate terminal points)

@dataclass(frozen=True)
class BoundaryMinimum:
    payoff: float
    t: float
    side: float
    point: Vec2


def _dip_candidates(dist: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Indices of the valid samples that are no farther than either
    neighbour (inf beyond the ends), and of valid end samples, ascending."""
    padded = np.concatenate(([np.inf], dist, [np.inf]))
    interior_min = (dist <= padded[:-2]) & (dist <= padded[2:])
    edge = np.zeros(len(dist), dtype=bool)
    edge[[0, -1]] = True
    return np.flatnonzero(valid & (interior_min | edge))


def boundary_minima(cfg: GameConfig, samples: int = 512) -> list[BoundaryMinimum]:
    """All refined local minima of distance-to-target along L, best first.

    Each sampled dip is refined to a root of the distance's slope along L
    (`find_zero`, to ROOT_TOL) between its neighbouring samples; where the
    slope does not rise through zero there, the nearer of the two is
    taken.  The tangency times that end each interval are candidates too.
    Ties within 1e-9 in payoff order by smaller sweep time, then by smaller
    polar angle of the point, which keeps the selection deterministic when
    the boundary has symmetric or near-tied dips.
    """
    tx, ty = cfg.target.x, cfg.target.y
    _, _, intervals = _active_intervals(cfg)
    found: list[BoundaryMinimum] = []
    for a, b in intervals:
        ts = np.linspace(a, b, samples)
        plus, minus, valid = intersection_points(cfg, ts)
        ts = ts.tolist()
        for side, pts in ((1.0, plus), (-1.0, minus)):
            dist = np.hypot(pts[:, 0] - tx, pts[:, 1] - ty)
            dist = np.where(valid, dist, np.inf)
            point = _l_point(cfg, side)

            def dip(t: float) -> BoundaryMinimum:
                x, y, _, _ = point(t)
                return BoundaryMinimum(math.hypot(x - tx, y - ty), t, side, Vec2(x, y))

            found += [dip(a), dip(b)]
            for i in _dip_candidates(dist, valid):
                lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
                rises = point(lo)[3] < 0.0
                t_star = find_zero(lambda t: point(t)[3], lo, hi) if rises else None
                found.append(dip(t_star) if t_star is not None else
                             min(dip(lo), dip(hi), key=lambda m: m.payoff))
    found.sort(key=lambda m: (round(m.payoff / 1e-9), m.t, m.point.angle()))
    deduped: list[BoundaryMinimum] = []
    for m in found:
        if all((m.point - d.point).norm() > 1e-7 for d in deduped):
            deduped.append(m)
    return deduped


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
    ts = np.linspace(t1, t2, 400)
    # the coasting path is the attacker's drift center
    if clearance_at(cfg, Control(0.0, 0.0), ts).min() <= 0.0:
        return []
    plus, minus, valid = intersection_points(cfg, ts)
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


def _defender_time_split(segments, pairs_per_segment):
    """Group annotated L vertices into maximal runs matched to t_D2."""
    runs = []
    for seg, pairs in zip(segments, pairs_per_segment):
        for side in (1.0, -1.0):
            mask = (seg.sides == side) & (pairs[:, 1] == 2)
            idx = np.flatnonzero(mask)
            if len(idx) == 0:
                continue
            breaks = np.flatnonzero(np.diff(idx) > 1)
            start = 0
            for stop in list(breaks) + [len(idx) - 1]:
                chunk = idx[start:stop + 1]
                start = stop + 1
                if len(chunk) >= 3:
                    runs.append(seg.points[chunk])
    return runs


def _probe_ok(cfg: GameConfig, probe: Vec2) -> bool:
    texp = reach_times(probe, cfg.defender, cfg.defender_params).expanded()
    if len(texp) < 3:
        return False
    t_a = reach_times(probe, cfg.attacker, cfg.attacker_params).first
    return texp[0] < t_a < texp[1]


def _polygon_probes(poly: np.ndarray) -> list[Vec2]:
    cx, cy = poly[:, 0].mean(), poly[:, 1].mean()
    probes = [Vec2(float(cx), float(cy))]
    for frac in (0.25, 0.5, 0.75):
        k = int(frac * len(poly))
        px = 0.7 * poly[k, 0] + 0.3 * cx
        py = 0.7 * poly[k, 1] + 0.3 * cy
        probes.append(Vec2(float(px), float(py)))
    return probes


def _cond2_components(cfg: GameConfig) -> list[R3Component]:
    if cfg.defender.vel.norm() == 0.0:
        return []
    segments = capture_boundary(cfg, ANNOTATE_SAMPLES).segments
    runs = _defender_time_split(segments, [_annotate_segment(cfg, s) for s in segments])
    if not runs:
        return []
    dmrr = mrr_boundary(cfg.defender, cfg.defender_params)
    ring = dmrr.polygon()
    # candidate loops: each run closed through an arc of the region ring
    components: list[R3Component] = []
    used = np.zeros(len(runs), dtype=bool)
    endpoints = []
    for run in runs:
        i0 = int(np.argmin(np.hypot(*(ring - run[0]).T)))
        i1 = int(np.argmin(np.hypot(*(ring - run[-1]).T)))
        endpoints.append((i0, i1))

    def try_loop(order: list[int], direction_flags: list[bool]) -> Optional[np.ndarray]:
        pieces = []
        for pos, ridx in enumerate(order):
            run = runs[ridx]
            pieces.append(run)
            exit_idx = endpoints[ridx][1]
            next_ridx = order[(pos + 1) % len(order)]
            entry_idx = endpoints[next_ridx][0]
            arc = _ring_cut(ring, exit_idx, entry_idx, direction_flags[pos])
            pieces.append(arc)
        loop = np.vstack(pieces)
        if len(loop) < 4 or abs(polygon_area(loop)) < 1e-12:
            return None
        probes = _polygon_probes(loop)
        inside = [p for p in probes if point_in_polygon((p.x, p.y), loop)]
        if not inside:
            return None
        if all(_probe_ok(cfg, p) for p in inside):
            return loop
        return None

    import itertools
    n = len(runs)
    orders = [list(perm) for k in range(1, n + 1)
              for perm in itertools.permutations(range(n), k)]
    for order in orders:
        if any(used[i] for i in order):
            continue
        found = None
        for flags in itertools.product((True, False), repeat=len(order)):
            found = try_loop(order, list(flags))
            if found is not None:
                break
        if found is not None:
            for i in order:
                used[i] = True
            components.append(R3Component(R3Condition.POCKET_BEHIND_MRR, found))
    return components


@lru_cache(maxsize=32)
def r3_certificates(cfg: GameConfig) -> tuple[R3Component, ...]:
    """Certified third-region components for a configuration (cached)."""
    return tuple(_cond1_components(cfg) + _cond2_components(cfg))


# ---------------------------------------------------------------------------
# point classification and region maps

def clearance_at(cfg: GameConfig, ctrl: Control, t):
    """Distance at time t (a float or an array) from the attacker's path under
    `ctrl` to the defender's reachable disc; negative where interceptable."""
    s = damped_time(cfg.mu, t)
    px, py = path_xy(cfg.attacker, cfg.attacker_params, ctrl, t, s)
    dx, dy, rd = isochron_xyr(cfg.defender, cfg.defender_params, t, s)
    hypot = np.hypot if isinstance(t, np.ndarray) else math.hypot
    return hypot(px - dx, py - dy) - rd


def run_times(t_end: np.ndarray) -> np.ndarray:
    """Sample times of straight runs arriving at `t_end`, one row per run:
    np.linspace(t / SAFETY_SAMPLES, t, SAFETY_SAMPLES), bit for bit."""
    start = t_end / SAFETY_SAMPLES
    step = (t_end - start) / (SAFETY_SAMPLES - 1)
    ts = np.arange(SAFETY_SAMPLES) * step[:, None] + start[:, None]
    ts[:, -1] = t_end
    return ts


def straight_runs(cfg: GameConfig, points: list[tuple[float, float]],
                  times: list[float]) -> tuple[list[Optional[Control]], np.ndarray]:
    """Controls and sampled minimum clearances of the attacker's saturated
    straight runs to points[i] arriving at times[i] > 0.

    A positive clearance means the run is never interceptable at the sampled
    resolution (see clearance_at).  A run that steer_to rejects gets None and
    a clearance of -inf.  Runs are evaluated RUN_CHUNK at a time, and each
    run's result does not depend on the others.
    """
    mu = cfg.mu
    ctrls: list[Optional[Control]] = []
    # per feasible run: index, amplitude u/mu, heading cosine and sine, time
    runs = []
    for i, ((x, y), t) in enumerate(zip(points, times)):
        try:
            c = steer_to(cfg.attacker, cfg.attacker_params, Vec2(x, y), t)
        except (InfeasibleTargetError, DomainError):
            c = None
        else:
            runs.append((i, c.u / mu, math.cos(c.theta), math.sin(c.theta), t))
        ctrls.append(c)
    clearance = np.full(len(ctrls), -np.inf)
    for lo in range(0, len(runs), RUN_CHUNK):
        chunk = np.array(runs[lo:lo + RUN_CHUNK])
        amp, hx, hy = chunk[:, 1:2], chunk[:, 2:3], chunk[:, 3:4]
        ts = run_times(chunk[:, 4])
        s = damped_time(mu, ts)
        # path_xy's position: the drift center plus the thrust displacement
        cx, cy, _ = isochron_xyr(cfg.attacker, cfg.attacker_params, ts, s)
        dx, dy, rd = isochron_xyr(cfg.defender, cfg.defender_params, ts, s)
        ramp = ts - s
        px, py = cx + amp * ramp * hx, cy + amp * ramp * hy
        clearance[chunk[:, 0].astype(int)] = \
            (np.hypot(px - dx, py - dy) - rd).min(axis=1)
    return ctrls, clearance


def safe_straight_run(cfg: GameConfig, point: Vec2,
                      times: list[float]) -> Optional[Control]:
    """Control of the first never-interceptable straight run to `point`,
    trying the positive arrival `times` in order; None when there is none."""
    for t in times:
        if t > 0.0:
            ctrls, clearance = straight_runs(cfg, [(point.x, point.y)], [t])
            if clearance[0] > 0.0:
                return ctrls[0]
    return None


def _reach_rows(cfg: GameConfig, point: Vec2) -> np.ndarray:
    """The attacker's and the defender's reach times at `point`: a (2, 3)
    array of expanded times padded with nan, as reach_times_many gives them."""
    rows = np.full((2, 3), np.nan)
    for row, state, params in ((rows[0], cfg.attacker, cfg.attacker_params),
                               (rows[1], cfg.defender, cfg.defender_params)):
        times = reach_times(point, state, params).expanded()
        row[:len(times)] = times
    return rows


def _double(times: np.ndarray) -> np.ndarray:
    """Rows of expanded times where merge_roots gives a root of multiplicity
    2 or more: a tangent root, listed twice, or a root merged into its
    predecessor."""
    t0, t1, t2 = times.T
    return (t1 - t0 <= CLASSIFY_TOL * (1.0 + t1)) | (t2 - t1 <= CLASSIFY_TOL * (1.0 + t2))


def _race(ea, ed):
    """The merge tolerance, and which of the expanded attacker times `ea`
    win against the expanded defender times `ed` (see race).  Each is three
    columns of floats or of arrays, padded with nan, which never wins."""
    tol = CLASSIFY_TOL * (1.0 + np.minimum(ea[0], ed[0]))
    first, gap_lo, gap_hi = ed[0] - tol, ed[1] + tol, ed[2] - tol
    return tol, [(t < first) | ((gap_lo < t) & (t < gap_hi)) for t in ea]


def race(cfg: GameConfig, point: Vec2) -> list[float]:
    """The attacker's winning reach times at `point`.  An attacker time wins
    before the defender's first arrival or inside the defender's gap
    (t_D2, t_D3), when the defender cannot be there."""
    ea, ed = _reach_rows(cfg, point).tolist()
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
    on_mrr = _double(atk) | _double(dfd)
    undecided = ~(on_l | on_mrr)
    won = undecided & (wins[0] | wins[1] | wins[2])
    # an arrival at t = 0 means the attacker already stands on the point
    safe = won & np.any([w & (t <= 0.0) for t, w in zip(ea, wins)], axis=0)
    for t, w in zip(ea, wins):
        # each cell's winning times in order, as safe_straight_run tries them
        rows = np.nonzero(won & ~safe & w & (t > 0.0))[0]
        if len(rows):
            _, clearance = straight_runs(cfg, pts[rows].tolist(), t[rows].tolist())
            safe[rows] = clearance > 0.0
    r3 = np.zeros(len(pts), dtype=bool)
    timing = np.nonzero(undecided & ~won & ~np.isnan(ed[2])
                        & (ed[0] + tol < ea[0]) & (ea[0] < ed[1] - tol))[0]
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
    label equals classify_point's: the reach times of the whole grid come
    from two batch solves, which equal the scalar ones bit for bit, and one
    call of the labeller that classify_point makes for a single point.
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
    flat = _labels(cfg, pts,
                   reach_times_many(pts, cfg.attacker, cfg.attacker_params),
                   reach_times_many(pts, cfg.defender, cfg.defender_params))
    return xs, ys, [flat[j * nx:(j + 1) * nx] for j in range(ny)]
