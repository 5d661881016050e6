"""Write the golden traces that tests/test_golden.py compares `run` against.

Run from the root of a checkout, only when a change of behaviour is intended
and explained in CHANGES.md:

    PYTHONPATH=src:tests python tests/golden/record.py

Each golden holds one game's outcome (kind, t, payoff, point), its plan
switches, its exact notes, and the player states of every K-th trace row plus
the last one.  The games are the five bundled scenarios under their own
policies and six variants that reach the engine's fallback paths.

`labels.json` holds region labels, which tests/test_dominance.py compares
exactly: special1's bundled region map, `classify_point` at the vertices of
L and of the MRR polygons of special1 and case2 (the only places boundary
labels occur), region maps of two seeded moving-defender games, the sha256
of special1's defender MRR polygon and the matched (attacker, defender)
reach-time index pairs at special1's annotated L vertices.  The library
annotates L for the defender only (`_annotate_segments`); the attacker's index
comes from `vertex_indices` here, vertex by vertex with the reference merge
of tests/oracle.py, which the library's array pass does not share.  Labels are stored one character each (see LABEL_CODE),
a grid as one string per row.

`minima.json` holds `boundary_minima` (payoff, sweep time, side and point of
every candidate, best first), which tests/test_dominance.py compares exactly,
for the five bundled configurations and for the step configuration at every
MINIMA_EVERY-th trace row of case1 and special1_intercept.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import make_cfg, random_player
from oracle import matched_index
from reachavoid import (AttackerPolicy, Control, DefenderPolicy, GameConfig,
                        GameTrace, PlayerParams, PlayerState, RegionLabel,
                        Scenario, Vec2, boundary_minima, capture_boundary,
                        classify_point, mrr_boundary, reach_times_many,
                        region_map, run, scenario_io)
from reachavoid.dominance import (ANNOTATE_SAMPLES, BoundarySegment,
                                  _annotate_segments, arrival_alignment)
from reachavoid.dynamics import DomainError, InfeasibleTargetError

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parents[1] / "scenarios"
# every K-th trace row is stored (the last row always)
K = 5
A, D = AttackerPolicy, DefenderPolicy


def _bundled(name: str, attacker: AttackerPolicy | None = None,
             defender: DefenderPolicy | None = None) -> Scenario:
    sc = scenario_io.load(SCENARIOS / f"{name}.json").scenario
    return replace(sc, attacker_policy=attacker or sc.attacker_policy,
                   defender_policy=defender or sc.defender_policy)


def _constant_attacker() -> Scenario:
    # the timeout game of tests/test_engine.py: a parked attacker, far target
    cfg = GameConfig(attacker=PlayerState(Vec2(5.0, 5.0), Vec2(0.0, 0.0)),
                     attacker_params=PlayerParams(u_max=1.0, mu=1.0),
                     defender=PlayerState(Vec2(7.0, 7.0), Vec2(0.0, 0.0)),
                     defender_params=PlayerParams(u_max=2.0, mu=1.0),
                     target=Vec2(-50.0, -50.0))
    return Scenario(cfg=cfg, attacker_policy=A.CONSTANT,
                    constant_ctrl=Control(0.0, 0.0),
                    defender_policy=D.PURE_PURSUIT, t_max=0.2)


GAMES = {
    "case1": lambda: _bundled("case1"),
    "case2": lambda: _bundled("case2"),
    "case3": lambda: _bundled("case3"),
    "special1": lambda: _bundled("special1"),
    "special2": lambda: _bundled("special2"),
    # pure pursuit on either side (acceptance 2)
    "case2_attacker_pursuit": lambda: _bundled("case2", attacker=A.PURE_PURSUIT),
    "case2_defender_pursuit": lambda: _bundled("case2", defender=D.PURE_PURSUIT),
    # no certificate, then the equal-time plan fails and pursuit takes over
    "case3_mrr": lambda: _bundled("case3", attacker=A.MRR),
    # match_mrr without a locked point pursues silently; then a target run
    "case2_mrr_match": lambda: _bundled("case2", attacker=A.MRR,
                                        defender=D.MATCH_MRR),
    # interception of the straight run, with plan-failure notes
    "special1_intercept": lambda: _bundled("special1", attacker=A.STRATEGY_I,
                                           defender=D.INTERCEPT_R3),
    "constant_timeout": _constant_attacker,
}


def _state_row(row) -> list[float]:
    a, d = row.attacker, row.defender
    return [row.t, a.pos.x, a.pos.y, a.vel.x, a.vel.y,
            d.pos.x, d.pos.y, d.vel.x, d.vel.y]


def snapshot(trace: GameTrace) -> dict:
    """The compared content of one game, as a JSON-ready dict."""
    o = trace.outcome
    idx = sorted(set(range(0, len(trace.rows), K)) | {len(trace.rows) - 1})
    return {
        "outcome": {"kind": o.kind.value, "t": o.t, "payoff": o.payoff,
                    "point": None if o.point is None else [o.point.x, o.point.y]},
        "switches": [[t, p.x, p.y] for t, p in trace.plan_switches],
        "notes": list(trace.notes),
        "row_count": len(trace.rows),
        "rows": {str(i): _state_row(trace.rows[i]) for i in idx if i >= 0},
    }


LABEL_CODE = {RegionLabel.R_I: "1", RegionLabel.R_II: "2",
              RegionLabel.R_III: "3", RegionLabel.DEFENDER_DOMINATED: "d",
              RegionLabel.BOUNDARY_L: "L", RegionLabel.BOUNDARY_MRR: "M"}
# sweep samples of L and branch samples of the MRR polygons whose vertices
# are classified
L_SAMPLES = 256
MRR_SAMPLES = 64
# seeds of the moving-defender games, and their region-map resolution
SEEDED = (37, 77)
SEEDED_RESOLUTION = (32, 32)


def _seeded_game(seed: int) -> tuple[GameConfig, tuple[float, float, float, float]]:
    """A game with a fast defender (u_D = 2, at least 0.8 of its speed cap)
    near the attacker, in the CLI's default window around both players and
    the target.  The seeds are ones whose maps have R_II and R_III cells."""
    rng = np.random.default_rng(seed)
    a = random_player(rng, 1.0, 1.0, box=0.5)
    d = random_player(rng, 1.0, 2.0, box=0.5, min_speed=0.8)
    cfg = make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                   (d.pos.x, d.pos.y), (d.vel.x, d.vel.y))
    xs, ys = (a.pos.x, d.pos.x, 0.0), (a.pos.y, d.pos.y, 0.0)
    pad = 0.6 * max(max(xs) - min(xs), max(ys) - min(ys), 0.5)
    return cfg, (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)


def _grid_codes(labels) -> list[str]:
    return ["".join(LABEL_CODE[lab] for lab in row) for row in labels]


def _vertex_codes(cfg: GameConfig) -> str:
    """classify_point at the vertices of L and of each moving player's MRR
    polygon."""
    parts = [seg.points for seg in capture_boundary(cfg, samples=L_SAMPLES).segments]
    for state, params in ((cfg.attacker, cfg.attacker_params),
                          (cfg.defender, cfg.defender_params)):
        if state.vel.norm() > 0.0:
            parts.append(mrr_boundary(state, params, MRR_SAMPLES).polygon())
    return "".join(LABEL_CODE[classify_point(cfg, Vec2(x, y))]
                   for x, y in np.vstack(parts).tolist())


def vertex_indices(seg: BoundarySegment, state: PlayerState,
                   params: PlayerParams) -> list[int]:
    """One player's matched reach-time index at each vertex of `seg`, vertex
    by vertex: steer_to's arrival alignment (0 where steer_to or
    arrival_alignment rejects the vertex) picks a double root's slot."""
    rows = reach_times_many(seg.points, state, params).tolist()
    out = []
    for (x, y), t, times in zip(seg.points.tolist(), seg.params.tolist(), rows):
        try:
            align = arrival_alignment(state, params, Vec2(x, y), t)
        except (InfeasibleTargetError, DomainError):
            align = 0.0
        out.append(matched_index(times, t, align))
    return out


def label_snapshot() -> dict:
    """The compared content of labels.json, as a JSON-ready dict."""
    doc = scenario_io.load(SCENARIOS / "special1.json")
    s1 = doc.scenario.cfg
    maps = {"special1": _grid_codes(region_map(s1, doc.render.window,
                                               doc.render.resolution)[2])}
    for seed in SEEDED:
        cfg, window = _seeded_game(seed)
        maps[f"seed{seed}"] = _grid_codes(region_map(cfg, window, SEEDED_RESOLUTION)[2])
    case2 = scenario_io.load(SCENARIOS / "case2.json").scenario.cfg
    poly = mrr_boundary(s1.defender, s1.defender_params).polygon()
    segments = capture_boundary(s1, ANNOTATE_SAMPLES).segments
    return {
        "maps": maps,
        "vertices": {"special1": _vertex_codes(s1), "case2": _vertex_codes(case2)},
        "special1_defender_mrr_sha256": hashlib.sha256(poly.tobytes()).hexdigest(),
        "special1_pair_indices": [
            np.column_stack([vertex_indices(seg, s1.attacker, s1.attacker_params),
                             index]).tolist()
            for seg, index in zip(segments, _annotate_segments(s1, segments))],
    }


# every MINIMA_EVERY-th row of these games gives a step configuration
MINIMA_EVERY = 10
MINIMA_GAMES = ("case1", "special1_intercept")


def _minima(cfg: GameConfig) -> list[list[float]]:
    return [[float(m.payoff), float(m.t), float(m.side), m.point.x, m.point.y]
            for m in boundary_minima(cfg)]


def minima_configs() -> dict[str, GameConfig]:
    """The configurations of minima.json, by name."""
    cfgs = {name: GAMES[name]().cfg for name in
            ("case1", "case2", "case3", "special1", "special2")}
    for name in MINIMA_GAMES:
        sc = GAMES[name]()
        rows = run(sc).rows
        for i in range(0, len(rows), MINIMA_EVERY):
            cfgs[f"{name}@{i}"] = replace(sc.cfg, attacker=rows[i].attacker,
                                          defender=rows[i].defender)
    return cfgs


def minima_snapshot() -> dict[str, list[list[float]]]:
    """The compared content of minima.json: per configuration, rows of
    (payoff, t, side, x, y)."""
    return {name: _minima(cfg) for name, cfg in minima_configs().items()}


def _floats(doc, path: str = "") -> dict[str, float]:
    """Every float of a JSON document, keyed by its path."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return {k: v for key, sub in items
                for k, v in _floats(sub, f"{path}/{key}").items()}
    return {path: doc} if isinstance(doc, float) else {}


def _skeleton(doc):
    """A JSON document with every float replaced by None."""
    if isinstance(doc, dict):
        return {k: _skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_skeleton(v) for v in doc]
    return None if isinstance(doc, float) else doc


def _write(path: Path, doc) -> str:
    """Write `doc` to `path` as JSON and say how it differs from the file it
    replaces: the largest |change| of the floats at paths both hold, and
    whether anything else changed (an outcome kind, notes, a row count,
    labels, the set of floats)."""
    old = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(doc, indent=1) + "\n")
    new = json.loads(path.read_text())
    if old is None or old == new:
        return "new file" if old is None else "unchanged"
    fo, fn = _floats(old), _floats(new)
    worst = max((abs(fn[k] - fo[k]) for k in fo.keys() & fn.keys()), default=0.0)
    rest = ", and more" if _skeleton(old) != _skeleton(new) else ""
    return f"largest float |change| {worst:.3e}{rest}"


def main() -> None:
    for name, make in GAMES.items():
        snap = snapshot(run(make()))
        change = _write(GOLDEN / f"{name}.json", snap)
        print(f"{name}: {snap['outcome']['kind']} t={snap['outcome']['t']:.6f} "
              f"rows={snap['row_count']} notes={len(snap['notes'])} ({change})")
    labels = label_snapshot()
    change = _write(GOLDEN / "labels.json", labels)
    text = "".join("".join(m) for m in labels["maps"].values()) \
        + "".join(labels["vertices"].values())
    print("labels: " + " ".join(f"{c}={text.count(c)}" for c in LABEL_CODE.values())
          + f" ({change})")
    minima = minima_snapshot()
    change = _write(GOLDEN / "minima.json", minima)
    print(f"minima: {len(minima)} configurations, "
          f"{sum(map(len, minima.values()))} candidates ({change})")


if __name__ == "__main__":
    main()
