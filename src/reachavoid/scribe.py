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
holds at most one sign change, and `find_zero`, the library's bracketed root
solver, keeps a sign change in its bracket: Chandrupatla's method, an
inverse-quadratic step where it is safe and a bisection otherwise, each step
at least tol/2 inside the bracket, stopping at a bracket of width <= tol or
of two adjacent floats.

Reach times of a static point reduce to the same solver by treating the point
as a zero-thrust player parked there.

`scribe_times_batch` runs the same case split and root steps on a batch of
problems as masked numpy, one root loop per stage.  It evaluates the same gap
functions on arrays and keeps every problem's own stopping rules, so each of
its results equals the scalar `scribe_times` bit for bit, whichever problems
share the batch.  The gap uses np.exp, which rounds the same on a float and
on an array (math.exp does not), and squares as C pow() does on both.

Inside the library a set of tangency or reach times has one form: a row of
at most three ascending times, a tangent root listed twice, padded with nan.
The batch solvers return these rows and the labeller, the race rule and the
boundary annotation read them.  `RootSet` is the public scalar form, and
`RootSet.expanded()` its row without the padding.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .dynamics import DomainError, PlayerParams, PlayerState, damped_time
from .geometry import Vec2, mapped

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


def _radius_coeff(u_a: float, u_d: float, mu: float, mode: ScribeMode) -> float:
    u = u_a + u_d if mode is ScribeMode.CIRCUMSCRIBE else u_a - u_d
    return (u / mu) ** 2


def _bracket_cap(mu: float, radius_coeff: float, dx_norm, dv_norm: float):
    # beyond this time the tangency radius provably exceeds any center
    # distance the drift can produce, so the last sign change lies inside;
    # an array of dx_norm gives the float calls' caps (_sq is C pow)
    cap = CAP_FACTOR / mu
    if radius_coeff > 0.0:
        o_max = _sq(dx_norm + dv_norm / mu)
        sqrt, top = (np.sqrt, np.maximum) if isinstance(o_max, np.ndarray) \
            else (math.sqrt, max)
        cap = top(cap, 1.0 / mu + sqrt((o_max + 1.0) / radius_coeff))
    return cap


@dataclass(frozen=True)
class ScribeProblem:
    """Relative initial state and thrust bounds for one tangency family.

    The solver reads the derived coefficients (squared separation, squared
    relative velocity, their dot product, the tangency radius coefficient,
    the bracket cap and the gap scale), which are computed once here.
    """

    delta_x: Vec2
    delta_v: Vec2
    mu: float
    u_a: float
    u_d: float
    mode: ScribeMode = ScribeMode.CIRCUMSCRIBE
    dx2: float = field(init=False, repr=False, compare=False)
    dv2: float = field(init=False, repr=False, compare=False)
    dxdv: float = field(init=False, repr=False, compare=False)
    radius_coeff: float = field(init=False, repr=False, compare=False)
    cap: float = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError("damping factor must be positive")
        if self.delta_x.norm() == 0.0:
            raise ValueError("players must start at distinct positions")
        rc = _radius_coeff(self.u_a, self.u_d, self.mu, self.mode)
        dx2 = self.delta_x.norm_sq()
        derived = {"dx2": dx2, "dv2": self.delta_v.norm_sq(),
                   "dxdv": self.delta_x.dot(self.delta_v), "radius_coeff": rc,
                   "cap": _bracket_cap(self.mu, rc, self.delta_x.norm(),
                                       self.delta_v.norm()),
                   "scale": max(1.0, dx2)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ScribeBatch:
    """N tangency problems as arrays of the coefficients the solver reads.

    The attribute names are those of ScribeProblem, so `gap` and its
    derivatives evaluate a whole batch with the scalar formulas.
    """

    mu: np.ndarray
    dx2: np.ndarray
    dv2: np.ndarray
    dxdv: np.ndarray
    radius_coeff: np.ndarray
    cap: np.ndarray
    scale: np.ndarray

    @classmethod
    def of(cls, problems) -> "ScribeBatch":
        """The batch of a sequence of ScribeProblem, in order."""
        return cls(*(np.array([getattr(p, f.name) for p in problems], dtype=float)
                     for f in fields(cls)))

    def __len__(self) -> int:
        return len(self.mu)

    def take(self, idx) -> "ScribeBatch":
        return ScribeBatch(*(getattr(self, f.name)[idx] for f in fields(self)))


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
        return self.times[0] if self.times else math.inf

    def expanded(self) -> list[float]:
        """Times repeated by multiplicity, sorted ascending."""
        out: list[float] = []
        for t, m in zip(self.times, self.multiplicities):
            out.extend([t] * m)
        return out


def _sq(x):
    # x ** 2 as C pow() rounds it, also for arrays: numpy squares an array
    # as x * x, which differs in the last bit on about 0.1% of inputs
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _clock(p, t):
    """exp(-mu t) and the clock s(t) by np.exp, which rounds a float as it does
    an array element (math.exp does not); Python floats for a float t."""
    decay = np.exp(-p.mu * t)
    decay = decay if isinstance(decay, np.ndarray) else float(decay)
    return decay, (1.0 - decay) / p.mu


def gap(p, t):
    """Squared center distance minus squared tangency radius at time t.

    `p` is a ScribeProblem or a ScribeBatch; t a float or an array.
    """
    _, s = _clock(p, t)
    o = p.dx2 + p.dv2 * s * s + 2.0 * p.dxdv * s
    return o - p.radius_coeff * _sq(t - s)


def gap_d1(p, t):
    """First time derivative of the gap."""
    decay, s = _clock(p, t)
    o1 = 2.0 * decay * (p.dv2 * s + p.dxdv)
    p1 = 2.0 * p.radius_coeff * (t - s) * (1.0 - decay)
    return o1 - p1


def gap_d2(p, t):
    """Second time derivative of the gap."""
    decay, s = _clock(p, t)
    o2 = 2.0 * decay * (p.dv2 * (2.0 * decay - 1.0) - p.mu * p.dxdv)
    p2 = 2.0 * p.radius_coeff * (_sq(1.0 - decay) + p.mu * decay * (t - s))
    return o2 - p2


def find_zero(f: Callable[[float], float], lo: float,
              hi: Optional[float] = None, tol: float = ROOT_TOL,
              expand_start: float = 1.0, expand_cap: float = 1e6) -> Optional[float]:
    """Zero of f on [lo, hi], or on [lo, inf) via bracket expansion.

    Assumes at most one sign change on the interval.  With hi=None the upper
    end starts at max(expand_start, 2*lo) and doubles until the sign flips or
    `expand_cap` is exceeded.  Returns None when no sign change is found.
    Chandrupatla's method (Adv. Eng. Software 28 (1997) 145) then shrinks
    the bracket [a, b]: an inverse-quadratic step through a, b and the end
    dropped last where those points make it safe, a bisection otherwise,
    each at least tol/2 inside either end.  It returns the midpoint once
    b - a <= tol or a and b are adjacent floats, and an exact zero (at lo,
    hi or a step) at once.
    """
    flo = f(lo)
    expand = hi is None
    if expand:
        hi = max(expand_start, 2.0 * lo)
    fhi = f(hi)
    while expand and not flo * fhi <= 0.0 and hi < expand_cap:
        hi = min(2.0 * hi, expand_cap * 1.0000001)
        fhi = f(hi)
    if not flo * fhi <= 0.0:
        return None
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    # a is the newest end, b the other end, c the end dropped last; t is the
    # next step as a fraction of b - a
    a, fa, b, fb, t = lo, flo, hi, fhi, 0.5
    while abs(b - a) > tol:
        x = a + t * (b - a)
        if not (x - a) * (b - x) > 0.0:     # rounded onto an end: bisect
            x = 0.5 * (a + b)
            if not (x - a) * (b - x) > 0.0:
                break                       # a and b are adjacent floats
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) != (fa < 0.0):
            a, fa, b, fb = b, fb, a, fa
        c, fc, a, fa = a, fa, x, fx
        # fc has fa's sign and fb the other, so only fc - fa can be 0; then
        # phi is 1 and the step bisects
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) \
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        tl = 0.5 * tol / abs(b - a)
        t = min(max(t, tl), 1.0 - tl)
    return 0.5 * (a + b)


def first_zero(f: Callable[[float], float], a: float, b: float,
               lip: float) -> Optional[float]:
    """First time in [a, b] where f, with |f'| <= lip, reaches zero, or None.

    Lipschitz global search (Piyavskii 1972, Shubert 1972): an interval
    [u, v] with f(u) + f(v) > lip*(v - u) holds no zero, any other is halved
    (left half first) down to ROOT_TOL.  The result has f <= 0 and lies
    within ROOT_TOL after the first zero; a dip shallower than lip*ROOT_TOL/2
    may go unreported."""
    todo = [(a, f(a), b, f(b))]
    while todo:
        u, fu, v, fv = todo.pop()
        if fu <= 0.0:
            return u
        if fu + fv <= lip * (v - u):
            if v - u > ROOT_TOL:
                m = 0.5 * (u + v)
                fm = f(m)
                todo += ((m, fm, v, fv), (u, fu, m, fm))
            elif fv <= 0.0:
                return v
    return None


def zeros_found(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, lip: float) -> np.ndarray:
    """Whether first_zero(f_i, a[i], b[i], lip) finds a zero, per row i: its intervals
    searched breadth first, one call of f(i, t) (rows i at times t) a pass; a
    row found drops its intervals, so no row's result depends on its batch."""
    u, v = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    i, found = np.arange(len(u)), np.zeros(len(u), dtype=bool)
    fu, fv = np.split(f(np.tile(i, 2), np.concatenate([u, v])), 2)
    while True:
        found[i[fu <= 0.0]] = True
        keep, wide = (fu + fv <= lip * (v - u)) & ~found[i], v - u > ROOT_TOL
        found[i[keep & ~wide & (fv <= 0.0)]] = True
        i, u, fu, v, fv = (z[keep & wide] for z in (i, u, fu, v, fv))
        if not len(i):
            return found
        m = 0.5 * (u + v)
        fm = f(i, m)
        i, u, fu, v, fv = (np.concatenate(z) for z in ((i, i), (u, m), (fu, fm), (m, v), (fm, fv)))


def scribe_times(p: ScribeProblem) -> RootSet:
    """All positive tangency times of the two isochron families.

    One to three times, each solved to ROOT_TOL, or none where the gap is
    constant (no thrust, no drift).  Exact tangencies of the gap at an
    interior extremum are reported once with multiplicity 2.  Without thrust
    but with drift the gap never changes sign: that raises DomainError.
    """
    if p.radius_coeff == 0.0:
        if p.dv2 == 0.0:
            return RootSet((), ())
        raise DomainError("tangency times undefined for a thrustless drift: "
                          "the gap only touches zero, never crosses it")
    mu, cap, scale = p.mu, p.cap, p.scale
    g = lambda t: gap(p, t)
    g1 = lambda t: gap_d1(p, t)
    g2 = lambda t: gap_d2(p, t)
    t0 = 1e-13 / mu

    def one(lo: float = t0) -> RootSet:
        r = find_zero(g, lo, None, expand_start=1.0 / mu, expand_cap=cap)
        if r is None:
            raise RuntimeError("gap function never changed sign; "
                               "bracket cap too small for this problem")
        return RootSet((r,), (1,))

    dxdv, dv2 = p.dxdv, p.dv2
    if dv2 + mu * dxdv < 0.0:
        return one()          # drift shrinks the center gap monotonically
    if dxdv > 0.0:
        return one()          # gap rises once then falls: still a single zero

    # wiggle case: locate the single inflection of the gap, then its extrema
    t_infl = find_zero(g2, t0, None, expand_start=1.0 / mu, expand_cap=cap)
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
    t_lo = find_zero(g1, t0, t_infl) if g1(t0) < 0.0 else t0
    t_hi = find_zero(g1, t_infl, None, expand_start=2.0 * t_infl, expand_cap=cap)
    if t_lo is None or t_hi is None:
        return one()
    g_lo, g_hi = g(t_lo), g(t_hi)
    eps = TANGENCY_EPS * scale

    if abs(g_lo) < eps and abs(g_hi) < eps:
        # extrema collapse onto the axis together: inflection tangency
        return RootSet((0.5 * (t_lo + t_hi),), (2,))
    if abs(g_lo) < eps:
        third = find_zero(g, t_hi, None, expand_start=2.0 * t_hi, expand_cap=cap)
        if g_hi > 0.0 and third is not None:
            return RootSet((t_lo, third), (2, 1))
        return RootSet((t_lo,), (2,))
    if abs(g_hi) < eps:
        if g_lo < 0.0:
            first = find_zero(g, t0, t_lo)
            if first is not None:
                return RootSet((first, t_hi), (1, 2))
        return RootSet((t_hi,), (2,))
    if g_lo > 0.0:
        return one(t_hi)      # dip never reaches zero; single late crossing
    if g_hi < 0.0:
        r = find_zero(g, t0, t_lo)
        return RootSet((r,), (1,))
    r1 = find_zero(g, t0, t_lo)
    r2 = find_zero(g, t_lo, t_hi)
    r3 = find_zero(g, t_hi, None, expand_start=2.0 * t_hi, expand_cap=cap)
    roots = [r for r in (r1, r2, r3) if r is not None]
    return RootSet(tuple(roots), tuple([1] * len(roots)))


def reach_times(point: Vec2, state: PlayerState,
                params: PlayerParams) -> RootSet:
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
        back = find_zero(g_home, lo, None,
                         expand_start=1.0 / mu, expand_cap=CAP_FACTOR / mu)
        if back is None:
            return RootSet((0.0,), (1,))
        return RootSet((0.0, back), (1, 1))
    problem = ScribeProblem(delta_x=offset, delta_v=-state.vel, mu=params.mu,
                            u_a=0.0, u_d=params.u_max,
                            mode=ScribeMode.CIRCUMSCRIBE)
    return scribe_times(problem)


def _find_zero_many(f, p: ScribeBatch, lo: np.ndarray, hi: np.ndarray,
                    start: np.ndarray) -> np.ndarray:
    """find_zero(lambda t: f(p[i], t), lo[i], hi[i], expand_start=start[i],
    expand_cap=p.cap[i]) for every problem i of batch p, a nan hi[i] standing
    for None: each element keeps its own upper end or expands from its own
    start, and follows the scalar steps and stopping rules on its own, so its
    result is the scalar one; nan where find_zero returns None."""
    flo = f(p, lo)
    grow = np.isnan(hi)
    hi = np.where(grow, np.maximum(start, 2.0 * lo), hi)
    fhi = f(p, hi)
    grow &= ~(flo * fhi <= 0.0) & (hi < p.cap)
    while grow.any():
        hi = np.where(grow, np.minimum(2.0 * hi, p.cap * 1.0000001), hi)
        fhi = np.where(grow, f(p, hi), fhi)
        grow &= ~(flo * fhi <= 0.0) & (hi < p.cap)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    live = (flo * fhi <= 0.0) & np.isnan(root)
    a, fa, b, fb, t = lo, flo, hi, fhi, np.full(len(lo), 0.5)
    todo = live & (np.abs(b - a) > ROOT_TOL)
    while todo.any():
        x = a + t * (b - a)
        x = np.where((x - a) * (b - x) > 0.0, x, 0.5 * (a + b))
        todo &= (x - a) * (b - x) > 0.0     # else a and b are adjacent floats
        fx = f(p, x)
        hit = todo & (fx == 0.0)
        root = np.where(hit, x, root)
        live &= ~hit
        todo &= ~hit
        flip = todo & ((fx < 0.0) != (fa < 0.0))
        a, fa, b, fb = (np.where(flip, b, a), np.where(flip, fb, fa),
                        np.where(flip, a, b), np.where(flip, fa, fb))
        c, fc, a, fa = a, fa, np.where(todo, x, a), np.where(todo, fx, fa)
        todo &= np.abs(b - a) > ROOT_TOL
        # np.where drops the elements that divide by zero: unsafe or done
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = fa / (fb - fa) * fc / (fb - fc) \
                + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
            tl = 0.5 * ROOT_TOL / np.abs(b - a)
        safe = todo & (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
        t = np.where(todo, np.minimum(np.maximum(np.where(safe, iqi, 0.5), tl),
                                      1.0 - tl), 0.5)
    return np.where(live, 0.5 * (a + b), root)


def scribe_times_batch(batch: ScribeBatch) -> np.ndarray:
    """scribe_times of every problem of the batch, bit for bit.

    Returns (N, 3) times: row i is scribe_times(problem i).expanded(), padded
    with nan.  The case split of scribe_times runs as masks, one masked
    find_zero loop per stage: gap'' for the inflection, gap' for t_lo and
    t_hi, and gap for the first, middle, last and single crossings.
    """
    if ((batch.radius_coeff == 0.0) & (batch.dv2 > 0.0)).any():
        raise DomainError("tangency times undefined for a thrustless drift: "
                          "the gap only touches zero, never crosses it")
    n = len(batch)
    times = np.full((n, 3), np.nan)
    nan = np.full(n, np.nan)
    mu, scale = batch.mu, batch.scale
    t0 = 1e-13 / mu

    def put(sel, cols):
        # rows `sel` get the columns with a time, in order
        k = np.zeros(n, dtype=int)
        for t in cols:
            ok = sel & ~np.isnan(t)
            times[np.flatnonzero(ok), k[ok]] = t[ok]
            k[ok] += 1

    def solve(f, *jobs):
        # one masked find_zero over every job's rows (sel, lo, hi, start; a
        # nan hi expands from start): a row of times per job, nan off its rows
        rows = [np.flatnonzero(job[0]) for job in jobs]
        idx, out = np.concatenate(rows), np.full((len(jobs), n), np.nan)
        if len(idx):
            lo, hi, start = (np.concatenate([job[k][r] for job, r in zip(jobs, rows)])
                             for k in (1, 2, 3))
            out[np.repeat(np.arange(len(jobs)), [len(r) for r in rows]), idx] = \
                _find_zero_many(f, batch.take(idx), lo, hi, start)
        return out

    # rows owed scribe_times's one(lo): the single crossing after one_lo
    one_lo = nan.copy()

    def one(sel, lo):
        one_lo[sel] = lo[sel]

    wiggle = ~(batch.dv2 + mu * batch.dxdv < 0.0) & ~(batch.dxdv > 0.0)
    one(~wiggle, t0)
    t_infl, = solve(gap_d2, (wiggle, t0, nan, 1.0 / mu))
    w = wiggle & ~np.isnan(t_infl)
    one(wiggle & ~w, t0)
    g1_infl, g_infl = nan.copy(), nan.copy()
    g1_infl[w] = gap_d1(batch.take(w), t_infl[w])
    g_infl[w] = gap(batch.take(w), t_infl[w])
    cusp = w & (np.abs(g1_infl) <= CUSP_SLOPE_EPS * np.maximum(mu * scale, 1e-300)) \
        & (np.abs(g_infl) <= CUSP_GAP_EPS * scale)
    put(cusp, [t_infl, t_infl])
    w &= ~cusp
    one(w & (g1_infl <= 0.0), t0)
    w &= g1_infl > 0.0

    g1_t0 = nan.copy()
    g1_t0[w] = gap_d1(batch.take(w), t0[w])
    t_lo, t_hi = solve(gap_d1, (w & (g1_t0 < 0.0), t0, t_infl, nan),
                       (w, t_infl, nan, 2.0 * t_infl))
    t_lo = np.where(w & (g1_t0 < 0.0), t_lo, t0)
    lost = w & (np.isnan(t_lo) | np.isnan(t_hi))
    one(lost, t0)
    w &= ~lost

    g_lo, g_hi = nan.copy(), nan.copy()
    g_lo[w] = gap(batch.take(w), t_lo[w])
    g_hi[w] = gap(batch.take(w), t_hi[w])
    eps = TANGENCY_EPS * scale
    lo_flat, hi_flat = w & (np.abs(g_lo) < eps), w & (np.abs(g_hi) < eps)
    both = lo_flat & hi_flat
    put(both, [0.5 * (t_lo + t_hi)] * 2)
    lo_flat &= ~both
    hi_flat &= ~both
    w &= ~(lo_flat | hi_flat)
    one(w & (g_lo > 0.0), t_hi)
    w &= ~(g_lo > 0.0)
    falls = w & (g_hi < 0.0)        # a single early crossing
    w &= ~falls                     # three simple crossings

    first, middle, last, single = solve(
        gap, ((hi_flat & (g_lo < 0.0)) | falls | w, t0, t_lo, nan), (w, t_lo, t_hi, nan),
        ((lo_flat & (g_hi > 0.0)) | w, t_hi, nan, 2.0 * t_hi),
        (~np.isnan(one_lo), one_lo, nan, 1.0 / mu))
    put(lo_flat, [t_lo, t_lo, last])
    put(hi_flat, [first, t_hi, t_hi])
    put(falls, [first])
    put(w, [first, middle, last])
    put(~np.isnan(one_lo), [single])
    if (np.isnan(times[:, 0]) & (batch.radius_coeff > 0.0)).any():
        raise RuntimeError("gap function never changed sign; "
                           "bracket cap too small for this problem")
    return times


def reach_times_many(points, state: PlayerState, params: PlayerParams) -> np.ndarray:
    """reach_times of every point of an (N, 2) array, bit for bit, as the
    (N, 3) nan-padded expanded times of scribe_times_batch."""
    return reach_times_players(points, [(state, params)])[0]


def reach_times_players(points, players) -> np.ndarray:
    """reach_times_many of the points for each (state, params) of `players`,
    as one (len(players), N, 3) array from one scribe_times_batch call."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    far, columns = [], []
    for state, params in players:
        dx, dy = pts[:, 0] - state.pos.x, pts[:, 1] - state.pos.y
        dist = mapped(math.hypot, dx, dy)
        far.append(~(dist <= 1e-14))
        # the phantom problem of reach_times: delta_v = -vel, u_a = 0
        vx, vy, mu = -state.vel.x, -state.vel.y, params.mu
        rc = _radius_coeff(0.0, params.u_max, mu, ScribeMode.CIRCUMSCRIBE)
        dx2 = (dx * dx + dy * dy)[far[-1]]
        shared = np.ones(len(dx2))
        columns.append((mu * shared, dx2, (vx * vx + vy * vy) * shared,
                        (dx * vx + dy * vy)[far[-1]], rc * shared,
                        _bracket_cap(mu, rc, dist[far[-1]], math.hypot(vx, vy)) * shared,
                        np.maximum(1.0, dx2)))
    times = np.full((len(players), len(pts), 3), np.nan)
    far = np.array(far)
    times[far] = scribe_times_batch(ScribeBatch(*map(np.concatenate, zip(*columns))))
    for k, i in zip(*np.nonzero(~far)):
        roots = reach_times(Vec2(pts[i, 0], pts[i, 1]), *players[k]).expanded()
        times[k, i, :len(roots)] = roots
    return times
