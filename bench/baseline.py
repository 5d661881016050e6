"""Run the benchmark over several seeds and write bench/BENCH_<label>.json.

Run from the root of a checkout:

    python3 bench/baseline.py --label baseline --seeds 10

For every workload in BENCHMARK.json this runs the benchmark's command once
per seed with tracing off, one run at a time, and twice with tracing on for
the first seed.  It records each end-to-end metric's values with their median,
quartiles and spread (quartile distance over median, the figure BENCHMARK.json
bounds), the traced per-layer metrics with their share of traced wall time,
whether the traced counts repeated exactly, and the machine and code the
numbers come from.  A change that claims a speed-up commits a pair of these
files, before and after, made on the same machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(command: list[str], workload: str, seed: int, seconds: int,
        trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def design_check(workload: str, layer: dict, shares: dict) -> dict:
    """The traced facts the workloads were chosen for (see inputs.py)."""
    if workload == "paper_games":
        # the replanning step outweighs every other function span except its
        # caller, and every other layer's self time (dominance.self_s holds
        # most of boundary_minima's own time, so it is not a rival)
        others = {k: v for k, v in shares.items()
                  if k not in ("dominance.boundary_minima.s", "strategies.choose_plan.s",
                               "dominance.self_s")}
        top = max(others, key=others.get)
        share = shares["dominance.boundary_minima.s"]
        return {"claim": "dominance.boundary_minima.s is the largest share",
                "share": share, "next": [top, others[top]],
                "holds": share > others[top]}
    if workload == "region_maps":
        return {"claim": "no boundary_minima calls; scribe.self_s is the majority",
                "boundary_minima_calls": layer["dominance.boundary_minima.calls"],
                "scribe_self_share": shares["scribe.self_s"],
                "holds": layer["dominance.boundary_minima.calls"] == 0
                and shares["scribe.self_s"] > 0.5}
    return {"claim": "dominance.r3_certificates.s is 0",
            "r3_certificates_s": layer["dominance.r3_certificates.s"],
            "holds": layer["dominance.r3_certificates.s"] == 0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, lines = run(spec["command"], workload, seed, seconds, 0)
            out["env"] = {k: int(v) if v.isdigit() else v
                          for k, v in (p.split("=", 1) for p in lines[0].split()[1:])}
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines:  # printed, not gated: the median operation
                name, *rest = line.split()  # time and the uncorrected rate
                if name in ("game_s_p50", "map_s_p50") or name.endswith("_wall"):
                    values.setdefault(name, []).append(float(rest[0]))
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr)
        e2e = {name: {**spread(vals), "bound": bounds.get(name)}
               for name, vals in values.items()}
        (first, lines), (second, _) = [run(spec["command"], workload, seeds[0], seconds, 1)
                                       for _ in range(2)]
        layer = {k: m["value"] for k, m in first["metrics"].items()}
        counts = [k for k in layer
                  if k.endswith(".calls") or k in ("scribe.gap_evals", "engine.steps")]
        shares = {line.split()[1]: float(line.split()[2])
                  for line in lines if line.startswith("share ")}
        out["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": e2e,
            "per_layer": layer,
            "per_layer_shares": shares,
            "traced_attempted": first["attempted"] + second["attempted"],
            "traced_failed": first["failed"] + second["failed"],
            "traced_counts_repeat": all(
                second["metrics"][k]["value"] == layer[k] for k in counts),
            "design_check": design_check(workload, layer, shares),
        }
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for workload, w in out["workloads"].items():
        for name, e in w["end_to_end"].items():
            b = e["bound"]
            flag = "" if b is None else (" ok" if e["spread"] < b / 3 else
                                         " WITHIN BOUND" if e["spread"] <= b
                                         else " OVER BOUND")
            print(f"{workload} {name} median={e['median']:.6g} "
                  f"spread={e['spread']:.4f} bound={b}{flag}")
        print(f"{workload} failed {w['failed']}/{w['attempted']} "
              f"traced counts repeat: {w['traced_counts_repeat']} "
              f"design check holds: {w['design_check']['holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
