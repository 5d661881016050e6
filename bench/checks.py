"""Correctness checks of each operation's output.

Each check returns a list of error strings; an empty list means the output
passed.  The checks use the library only to read its result types and, for
the containment invariant, `dynamics.isochron` as acceptance 10 does.  The
region-map oracle re-derives reach order from the closed-form isochron on a
dense time grid and does not use `scribe`.
"""
from __future__ import annotations

import csv
import math
import random
from collections import Counter

import numpy as np

from reachavoid import OutcomeKind, RegionLabel, isochron

LABELS = {lab.value for lab in RegionLabel}
# positions may leave the reachable disc by rounding only (acceptance 10)
CONTAINMENT_SLACK = 1e-9
# cells of each random map compared against the reach-order oracle
ORACLE_CELLS = 128
ORACLE_SAMPLES = 8192
# an attacker crossing this many grid steps from any defender crossing is
# too close to call; so is a grazing extremum within ORACLE_GRAZE of zero
ORACLE_MARGIN_STEPS = 3
ORACLE_GRAZE = 1e-4


def paper_game(name: str, trace, ref: dict, tol: dict) -> list[str]:
    """Outcome kind, time, payoff and plan-switch times against the reference."""
    o = trace.outcome
    errs = []
    if o.kind.value != ref["kind"]:
        errs.append(f"{name}: outcome {o.kind.value}, reference {ref['kind']}")
    if abs(o.t - ref["t"]) > tol["t"]:
        errs.append(f"{name}: t={o.t!r}, reference {ref['t']!r}")
    if abs(o.payoff - ref["payoff"]) > tol["payoff"]:
        errs.append(f"{name}: payoff={o.payoff!r}, reference {ref['payoff']!r}")
    switches = [t for t, _ in trace.plan_switches]
    if len(switches) != len(ref["switch_times"]) or any(
            abs(a - b) > tol["switch_t"] for a, b in zip(switches, ref["switch_times"])):
        errs.append(f"{name}: plan switches at {switches}, "
                    f"reference {ref['switch_times']}")
    return errs


def game_invariants(trace) -> list[str]:
    """Invariants every closed-loop game must keep, whatever its inputs."""
    sc, o = trace.scenario, trace.outcome
    cfg = sc.cfg
    errs = []
    if not isinstance(o.kind, OutcomeKind):
        return [f"outcome {o.kind!r} is not a named kind"]
    if trace.rows:
        dist_ad, dist_at = trace.rows[-1].dist_ad, trace.rows[-1].dist_at
    else:
        dist_ad = (cfg.attacker.pos - cfg.defender.pos).norm()
        dist_at = (cfg.attacker.pos - cfg.target).norm()
    if o.kind is OutcomeKind.CAPTURED and dist_ad > sc.eps_capture:
        errs.append(f"captured with dist_ad={dist_ad!r} > {sc.eps_capture}")
    if o.kind is OutcomeKind.TARGET_REACHED and dist_at > sc.eps_target:
        errs.append(f"target reached with dist_at={dist_at!r} > {sc.eps_target}")
    if o.kind is OutcomeKind.TIMEOUT and o.t < sc.horizon - 1e-9:
        errs.append(f"timeout at t={o.t!r} before the horizon {sc.horizon}")
    for row in trace.rows:
        for who, start, params, now in (
                ("attacker", cfg.attacker, cfg.attacker_params, row.attacker),
                ("defender", cfg.defender, cfg.defender_params, row.defender)):
            iso = isochron(start, params, row.t)
            excess = (now.pos - iso.center).norm() - iso.radius
            if excess > CONTAINMENT_SLACK:
                errs.append(f"{who} leaves its reachable disc at t={row.t!r} "
                            f"by {excess:.3e}")
                return errs
    return errs


def read_regions(path, nx: int, ny: int) -> tuple[list[tuple[float, float, str]], list[str]]:
    """Rows of regions.csv and the errors in its shape and labels."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [(float(x), float(y), lab) for x, y, lab in reader]
    errs = []
    if header != ["x", "y", "label"]:
        errs.append(f"regions.csv header {header}")
    if len(rows) != nx * ny:
        errs.append(f"regions.csv has {len(rows)} rows, expected {nx * ny}")
    unknown = sorted({lab for _, _, lab in rows} - LABELS)
    if unknown:
        errs.append(f"regions.csv has unknown labels {unknown}")
    return rows, errs


def label_counts(rows) -> dict[str, int]:
    return dict(Counter(lab for _, _, lab in rows))


def _outside(p: tuple[float, float], state, params, ts: np.ndarray) -> np.ndarray:
    """|p - c(t)| - r(t) of the closed-form isochron: > 0 where p is not reachable."""
    mu = params.mu
    s = (1.0 - np.exp(-mu * ts)) / mu
    cx = state.pos.x + state.vel.x * s
    cy = state.pos.y + state.vel.y * s
    return np.hypot(p[0] - cx, p[1] - cy) - (params.u_max / mu) * (ts - s)


def _grazes(f: np.ndarray) -> bool:
    """A sampled extremum within ORACLE_GRAZE of zero: a tangency or a missed pair."""
    inner = f[1:-1]
    ext = ((inner <= f[:-2]) & (inner <= f[2:])) | ((inner >= f[:-2]) & (inner >= f[2:]))
    return bool(np.any(ext & (np.abs(inner) < ORACLE_GRAZE)))


def reach_order(cfg, p: tuple[float, float]) -> int:
    """+1 if the attacker wins the race to p, -1 if the defender does, 0 if unclear.

    The attacker wins when, at some time its reachable circle passes through
    p, p lies outside the defender's reachable disc.  Both are read off a
    dense scan of the closed-form isochrons up to a time after which both
    discs hold p for good (radius >= distance plus the largest drift).
    """
    mu = cfg.mu
    t_end = max(2.0 / mu + (mu / par.u_max) * (math.hypot(p[0] - st.pos.x, p[1] - st.pos.y)
                                               + st.vel.norm() / mu)
                for st, par in ((cfg.attacker, cfg.attacker_params),
                                (cfg.defender, cfg.defender_params)))
    ts = np.linspace(0.0, t_end, ORACLE_SAMPLES)
    fa = _outside(p, cfg.attacker, cfg.attacker_params, ts)
    fd = _outside(p, cfg.defender, cfg.defender_params, ts)
    if fa[0] <= 0.0 or fd[0] <= 0.0 or _grazes(fa) or _grazes(fd):
        return 0
    crossings = np.flatnonzero(np.signbit(fa[:-1]) != np.signbit(fa[1:]))
    if len(crossings) == 0:
        return 0
    k = ORACLE_MARGIN_STEPS
    attacker_wins = False
    for i in crossings:
        window = fd[max(i - k, 0):i + k + 2]
        if np.all(window > ORACLE_GRAZE):
            attacker_wins = True
        elif not np.all(window < -ORACLE_GRAZE):
            return 0
    return 1 if attacker_wins else -1


def oracle_sample(cfg, rows, rng: random.Random) -> tuple[int, list[str]]:
    """Compare a seeded sample of cells with the reach-order oracle.

    Returns the number of cells the oracle could decide and the errors.
    """
    decided, errs = 0, []
    for x, y, lab in rng.sample(rows, min(ORACLE_CELLS, len(rows))):
        order = reach_order(cfg, (x, y))
        if order == 0:
            continue
        decided += 1
        want = {"R_I", "R_II"} if order > 0 else {"defender", "R_III"}
        if lab not in want:
            who = "attacker" if order > 0 else "defender"
            errs.append(f"cell ({x!r}, {y!r}) labelled {lab}, but the {who} "
                        f"wins the race to it")
    return decided, errs
