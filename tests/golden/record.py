"""Write the golden traces that tests/test_golden.py compares `run` against.

Run from the root of a checkout, only when a change of behaviour is intended
and explained in CHANGES.md:

    PYTHONPATH=src python tests/golden/record.py

Each golden holds one game's outcome (kind, t, payoff, point), its plan
switches, its exact notes, and the player states of every K-th trace row plus
the last one.  The games are the five bundled scenarios under their own
policies and six variants that reach the engine's fallback paths.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from reachavoid import (AttackerPolicy, Control, DefenderPolicy, GameConfig,
                        GameTrace, PlayerParams, PlayerState, Scenario, Vec2,
                        run, scenario_io)

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


def main() -> None:
    for name, make in GAMES.items():
        snap = snapshot(run(make()))
        (GOLDEN / f"{name}.json").write_text(json.dumps(snap, indent=1) + "\n")
        print(f"{name}: {snap['outcome']['kind']} t={snap['outcome']['t']:.6f} "
              f"rows={snap['row_count']} notes={len(snap['notes'])}")


if __name__ == "__main__":
    main()
