"""Write bench/reference.json: the outcomes the benchmark checks against.

Run from the root of a checkout, only when a change of behaviour is intended
and explained:

    python3 bench/record_reference.py

Records, for each bundled scenario under its own policies, the outcome kind,
time, payoff and plan-switch times of `run`, and the label counts of the
`regions` command on special1 at its bundled window and resolution.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reachavoid  # noqa: E402
import reachavoid.cli  # noqa: E402
from reachavoid import scenario_io  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

# event times are refined by bisection to 1e-6, so times and the payoff read
# at them move by up to that much times the speed; switch times are step times
TOLERANCE = {"t": 2e-6, "payoff": 1e-5, "switch_t": 1e-9}


def main() -> int:
    games = {}
    for name in inputs.PAPER_SCENARIOS:
        trace = reachavoid.run(scenario_io.load(ROOT / "scenarios" / f"{name}.json").scenario)
        games[name] = {"kind": trace.outcome.kind.value, "t": trace.outcome.t,
                       "payoff": trace.outcome.payoff,
                       "switch_times": [t for t, _ in trace.plan_switches]}
    special1 = ROOT / "scenarios" / "special1.json"
    nx, ny = scenario_io.load(special1).render.resolution
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            reachavoid.cli.main(["regions", str(special1), "--out", out])
        rows, errs = checks.read_regions(Path(out) / "regions.csv", nx, ny)
    if errs:
        print("\n".join(errs), file=sys.stderr)
        return 1
    ref = {"tolerance": TOLERANCE, "paper_games": games,
           "special1_counts": dict(sorted(checks.label_counts(rows).items()))}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
