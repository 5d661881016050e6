"""A 40-digit `decimal` oracle for tangency and reach times.

The gap of two isochron families is built from the raw positions, velocities,
thrust bounds and damping factor, not from `ScribeProblem`'s float
coefficients:

    gap(t) = |x_A - x_D + (v_A - v_D) s(t)|^2 - ((u_A +/- u_D)/mu)^2 (t - s(t))^2

with s(t) = (1 - exp(-mu t))/mu.  A reach time of a point is a tangency time
with a player parked at the point with no thrust.  The roots are bracketed
without assuming the solver's case split: a scan of gap'' and bisection give
its zeros, which cut the time axis into pieces where gap' is monotone; the
zeros of gap' then cut it into pieces where the gap is monotone, and each
piece holds at most one sign change of the gap.  Bisection runs to 1e-25.

The oracle keeps the library's two counting conventions (README "Numerical
conventions"): an extremum of the gap within TANGENCY_EPS * max(1, |dx|^2) of
zero is one tangent root, listed twice; an inflection where both the gap and
its slope are within the cusp bounds is the collapsed triple crossing, also
listed twice.

It also keeps the library's earlier merge of reach times as a reference for
the array rule `mrr.merge_times`: `merge_roots` (a Python loop over
(time, multiplicity) pairs), `matched_index` on one list of times and
`reach_kind`, `classify`'s branches on the merged pairs.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

from reachavoid import PlayerState
from reachavoid.mrr import CLASSIFY_TOL
from reachavoid.scribe import CUSP_GAP_EPS, CUSP_SLOPE_EPS, TANGENCY_EPS

DIGITS = 40
# scan points for the zeros of gap'' on (0, horizon]
SCAN = 96
BISECT_TO = Decimal("1e-25")


def _bisect(f, lo: Decimal, hi: Decimal) -> Decimal:
    """The sign change of f on [lo, hi], to BISECT_TO."""
    f_lo = f(lo)
    while hi - lo > BISECT_TO:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _zeros(f, cuts: list[Decimal]) -> list[Decimal]:
    """The sign changes of f, one at most between neighbouring cuts."""
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if (f(lo) < 0) != (f(hi) < 0):
            out.append(_bisect(f, lo, hi))
    return out


def tangency_times(attacker: PlayerState, u_a: float, defender: PlayerState,
                   u_d: float, mu: float, inscribe: bool = False) -> list[float]:
    """The positive zeros of the gap of two players, ascending, a tangent
    root twice: inscribe picks the radius u_A - u_D, else u_A + u_D."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        m = Decimal(mu)
        a, d = attacker, defender
        dx = Decimal(a.pos.x) - Decimal(d.pos.x)
        dy = Decimal(a.pos.y) - Decimal(d.pos.y)
        vx = Decimal(a.vel.x) - Decimal(d.vel.x)
        vy = Decimal(a.vel.y) - Decimal(d.vel.y)
        u = Decimal(u_a) - Decimal(u_d) if inscribe else Decimal(u_a) + Decimal(u_d)
        rc = (u / m) ** 2

        def derivatives(t: Decimal) -> tuple[Decimal, Decimal, Decimal]:
            e = (-m * t).exp()
            s = (1 - e) / m
            ox, oy = dx + vx * s, dy + vy * s
            ov = ox * vx + oy * vy
            r = t - s
            g = ox * ox + oy * oy - rc * r * r
            g1 = 2 * ov * e - 2 * rc * r * (1 - e)
            g2 = 2 * ((vx * vx + vy * vy) * e * e - m * e * ov) \
                - 2 * rc * ((1 - e) ** 2 + m * e * r)
            return g, g1, g2

        gap = lambda t: derivatives(t)[0]
        slope = lambda t: derivatives(t)[1]
        curvature = lambda t: derivatives(t)[2]
        # past the horizon the tangency radius exceeds any center distance
        reach = (dx * dx + dy * dy).sqrt() + (vx * vx + vy * vy).sqrt() / m
        horizon = 2 / m + reach / rc.sqrt()
        scale = max(Decimal(1), dx * dx + dy * dy)

        grid = [horizon * k / SCAN for k in range(SCAN + 1)]
        inflections = _zeros(curvature, grid)
        for t in inflections:
            g, g1, _ = derivatives(t)
            if abs(g1) <= Decimal(CUSP_SLOPE_EPS) * m * scale \
                    and abs(g) <= Decimal(CUSP_GAP_EPS) * scale:
                return [float(t)] * 2
        extrema = _zeros(slope, [grid[0], *inflections, grid[-1]])
        tangent = [t for t in extrema
                   if abs(gap(t)) < Decimal(TANGENCY_EPS) * scale]
        # a tangent extremum is a zero of the gap for the sign changes
        cuts = [grid[0], *extrema, grid[-1]]
        signs = [0 if t in tangent else (1 if gap(t) > 0 else -1) for t in cuts]
        roots = tangent * 2
        for k in range(len(cuts) - 1):
            if signs[k] * signs[k + 1] < 0:
                roots.append(_bisect(gap, cuts[k], cuts[k + 1]))
        return sorted(float(t) for t in roots)


def merge_roots(pairs):
    """Ascending (time, multiplicity) pairs with reach times within
    CLASSIFY_TOL*(1+t) merged."""
    merged = []
    for t, m in pairs:
        if merged and t - merged[-1][0] <= CLASSIFY_TOL * (1.0 + t):
            last_t, last_m = merged[-1]
            merged[-1] = (0.5 * (last_t + t), last_m + m)
        else:
            merged.append((t, m))
    return merged


def matched_index(times: list[float], t: float, alignment: float) -> int:
    """Reach-time index (0 outside the MRR, else 1..3) matched by time t in
    one point's expanded reach times, nan padding skipped."""
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


def reach_kind(merged) -> str:
    """The name of classify's ReachKind for merged (time, multiplicity)
    pairs."""
    double = [m >= 2 for _, m in merged]
    if len(merged) == 1:
        return "CUSP" if double[0] else "SINGLE"
    if len(merged) == 2:
        if double[0] and double[1]:
            return "CUSP"
        return "BOUNDARY_II" if double[1] and not double[0] else "BOUNDARY_I"
    return "TRIPLE"
