"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python (no reachavoid import), so the bytes of the
inputs depend only on the seed: the same seed gives byte-identical scenario
documents, different seeds different ones.

Why these workloads:

- paper_games: the five bundled scenarios, each under its own policies.
  These are the paper's games with exact reference outcomes; the replanning
  step (`choose_plan` -> `boundary_minima`) dominates their wall time, and
  special1 pays a cold `r3_certificates`.  The seed does not change them.
- random_games: games drawn from the fuzz distribution below.  They run the
  same `engine`/`strategies` code as the paper games on inputs nobody tuned
  for: target runs, plan failures that fall back to pure pursuit, R_II
  targets that end in 80-step timeouts, every branch of the `scribe` case
  split.  Unused seeds serve as held-out inputs for speed claims.
- region_maps: the `regions` CLI command.  special1 at its bundled window and
  64x48 resolution (the only bundled game with a certified R_III pocket),
  then seeded games with a moving defender at the auto window and 48x48.
  Whole-grid reach-time solving dominates; `boundary_minima` never runs.

Why these distribution bounds (random_games and the random maps):

- mu in [0.5, 2]: damping time constants from half to twice the bundled
  scenarios' mu = 1, so the drift horizon 1/mu varies fourfold.
- u_D/u_A in [1.2, 3] with u_A = 1: the game needs a faster defender; 1.2
  keeps the attacker competitive, 3 matches a defender that wins most races.
- initial speeds uniform in [0, 0.9) of u_max/mu: every state the schema
  accepts is below the speed cap; 0.9 keeps clear of the cap itself.
  Random maps draw the defender's speed from [0.1, 0.9) so its multiple
  reachable region, and with it the R_III certificates, is never empty.
- attacker 1 to 3 from the target, defender 0.5 to 3: the bundled games sit
  at distances 0.3 to 5; this band keeps games inside the 4 s horizon
  (t_max = 4) while the target is sometimes safe, sometimes contested and
  sometimes in R_II.
- dt = 0.05, the largest step the engine accepts (the bundled games use
  0.025): a game's cost is about one replanning per step, and games range
  from 0.05 s to 3 s, so the steps per second of a run depend on which games
  it drew.  Halving the steps per game doubles the games a 30 s run plays
  (about 55 instead of 30) and so narrows that seed-to-seed spread (from
  0.17 to 0.08 of the median over five seeds).
- headings uniform on the circle.
"""
from __future__ import annotations

import json
import math
import random

# policy pairs of random_games: equilibrium play and the three deviations
POLICY_PAIRS = (("strategy_i", "strategy_i"), ("pure_pursuit", "strategy_i"),
                ("strategy_i", "pure_pursuit"), ("strategy_i", "intercept_r3"))
PAPER_SCENARIOS = ("case1", "case2", "case3", "special1", "special2")
# games generated per run; a run cycles through them if it finishes them all
RANDOM_GAMES = 256
# random maps per cycle of region_maps (each cycle starts with special1)
MAPS_PER_CYCLE = 3
RANDOM_MAPS = 96
MAP_RESOLUTION = (48, 48)
T_MAX = 4.0
DT = 0.05


def _polar(r: float, angle: float) -> list[float]:
    return [r * math.cos(angle), r * math.sin(angle)]


def _game_doc(rng: random.Random, min_defender_speed: float) -> dict:
    u = [rng.random() for _ in range(10)]
    mu = 0.5 + 1.5 * u[0]
    u_d = 1.2 + 1.8 * u[1]
    frac_d = min_defender_speed + (0.9 - min_defender_speed) * u[8]
    return {
        "players": {
            "attacker": {"pos": _polar(1.0 + 2.0 * u[2], 2 * math.pi * u[3]),
                         "vel": _polar(0.9 * u[6] / mu, 2 * math.pi * u[7]),
                         "u_max": 1.0},
            "defender": {"pos": _polar(0.5 + 2.5 * u[4], 2 * math.pi * u[5]),
                         "vel": _polar(frac_d * u_d / mu, 2 * math.pi * u[9]),
                         "u_max": u_d},
        },
        "mu": mu,
        "target": [0.0, 0.0],
    }


def random_game_docs(seed: int) -> list[str]:
    """Scenario JSON texts of random_games; the policy pair cycles with the index."""
    rng = random.Random(f"random_games:{seed}")
    docs = []
    for i in range(RANDOM_GAMES):
        doc = _game_doc(rng, 0.0)
        atk, dfd = POLICY_PAIRS[i % len(POLICY_PAIRS)]
        doc["policies"] = {"attacker": atk, "defender": dfd}
        doc["sim"] = {"dt": DT, "t_max": T_MAX}
        docs.append(json.dumps(doc, sort_keys=True))
    return docs


def random_map_docs(seed: int) -> list[str]:
    """Scenario JSON texts of the random maps of region_maps (moving defender)."""
    rng = random.Random(f"region_maps:{seed}")
    docs = []
    for _ in range(RANDOM_MAPS):
        doc = _game_doc(rng, 0.1)
        doc["render"] = {"resolution": list(MAP_RESOLUTION)}
        docs.append(json.dumps(doc, sort_keys=True))
    return docs
