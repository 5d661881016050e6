"""Print sha256 digests of the library's outputs, one `kind name digest` line
each, to check that a change keeps every output bit for bit:

    PYTHONPATH=src:tests python tests/golden/digests.py > change.txt
    PYTHONPATH=<parent checkout>/src:tests python tests/golden/digests.py > parent.txt
    diff parent.txt change.txt

The second command runs this script against another checkout's library, so
the parent need not have the script.  The digests cover the traces of the
five bundled games under their own policies and of `random_games(seed, 256)`
of tests/test_engine.py for the seeds in RANDOM_SEEDS (`game_digest`: row
floats, notes and outcome), the region labels of special1's bundled map
and of the maps of `record._seeded_game` for MAP_SEEDS, and `strategy_one`'s
plan (`plan_digest`) for the five bundled configurations and the
configurations of those maps, which no game reaches.  It takes 20-40 s on a
2-vCPU x86 host.
"""
from __future__ import annotations

import hashlib

from golden import record
from reachavoid import (AttackerWinsError, InfeasibleTargetError, region_map,
                        run, scenario_io, strategy_one)
from test_engine import game_digest, random_games

BUNDLED = ("case1", "case2", "case3", "special1", "special2")
RANDOM_SEEDS = (1, 7, 11)
RANDOM_COUNT = 256
MAP_SEEDS = range(192)


def _label_digest(labels) -> str:
    return hashlib.sha256("\n".join(record._grid_codes(labels)).encode()).hexdigest()


def plan_digest(cfg) -> str:
    """strategy_one's point, t_f, both controls, h_zero and payoff, or the
    type and message of the exception it raises."""
    try:
        p = strategy_one(cfg)
    except (AttackerWinsError, InfeasibleTargetError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    else:
        text = repr((p.point.x, p.point.y, p.t_f, p.attacker_ctrl.u, p.attacker_ctrl.theta,
                     p.defender_ctrl.u, p.defender_ctrl.theta, p.h_zero, p.payoff))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    for name in BUNDLED:
        print("game", name, game_digest(run(record.GAMES[name]())))
    for seed in RANDOM_SEEDS:
        for i, sc in enumerate(random_games(seed, RANDOM_COUNT)):
            print("game", f"random{seed}:{i}", game_digest(run(sc)))
    doc = scenario_io.load(record.SCENARIOS / "special1.json")
    labels = region_map(doc.scenario.cfg, doc.render.window, doc.render.resolution)[2]
    print("map", "special1", _label_digest(labels))
    for seed in MAP_SEEDS:
        cfg, window = record._seeded_game(seed)
        print("map", f"seed{seed}",
              _label_digest(region_map(cfg, window, record.SEEDED_RESOLUTION)[2]))
    for name in BUNDLED:
        print("plan", name, plan_digest(record.GAMES[name]().cfg))
    for seed in MAP_SEEDS:
        print("plan", f"seed{seed}", plan_digest(record._seeded_game(seed)[0]))


if __name__ == "__main__":
    main()
