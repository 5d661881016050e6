"""Benchmark of the reachavoid library, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/bench.py --workload paper_games --seed 1 --seconds 30 --trace 0

One caller in one process, closed loop: each operation (one game or one
region map) starts when the previous one has returned.  Inputs come from
--seed (see inputs.py for the workloads and why each was chosen) and are made
before any timing.  Every operation's output is checked (checks.py); one that
raises or fails its check counts as failed, and the run goes on.  Library
caches are cleared before every operation, as a CLI user pays them on every
call.

--trace 0 measures for --seconds and reports the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes of `import
               reachavoid` plus making or loading the inputs
  work_per_s   closed-loop steps (printed as steps_per_s) or grid cells
               (cells_per_s) per second of operation time
  peak_rss_mb  peak resident memory of this process
Both times are wall times put on a fixed time base by a host speed probe
(hostspeed.py), as a shared CPU's speed drifts by more than any bound.
It also prints, ungated, the same rate over uncorrected wall time
(steps_per_s_wall or cells_per_s_wall), the median wall time of one operation
(game_s_p50 or map_s_p50) and the share of failed operations (fail_ratio).
--trace 1 runs a fixed list of operations twice, plain and then with timing
wrappers on every public function of every layer (tracer.py), and reports
the per-layer metrics.  Its counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit, for people.  Spans of a traced run go to .bench_work/<workload>/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracer as tracing
from hostspeed import HostProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_games", "random_games", "region_maps")
SETUP_PROBES = 7


def prepare(workload: str, seed: int, workdir: Path):
    """Import the library and make the workload's inputs (the timed set-up)."""
    import workloads
    return workloads.WORKLOADS[workload](ROOT, seed, workdir)


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    probe = HostProbe()
    probe.start()
    start = perf_counter()
    try:
        prepare(workload, seed, workdir)
    finally:
        wall = perf_counter() - start
        samples = probe.stop()
    return probe.corrected(wall, samples)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_ops(wl, caches: dict, seconds: float = 0.0, count: int = 0,
            tracer=None, tally: dict | None = None,
            probe: HostProbe | None = None) -> list[dict]:
    """Closed loop over operations 0, 1, ...

    With count > 0 runs exactly that many; otherwise runs until `seconds`
    have passed and a whole cycle of the workload is complete.  Every library
    cache is emptied before each operation; with a `tally`, each cache's hits
    and misses during the operation are added to it; with a `probe`, the host
    speed samples taken during it are kept in the record.
    """
    records = []
    start = perf_counter()
    i = 0
    while (i < count) if count else (i == 0 or i % wl.cycle
                                     or perf_counter() - start < seconds):
        for fn in caches.values():
            fn.cache_clear()
        samples = []
        if probe is not None:
            probe.start()
        t0 = perf_counter()
        try:
            try:
                if tracer is None:
                    result = wl.op(i)
                else:
                    with tracer.operation(i):
                        result = wl.op(i)
            finally:
                wall = perf_counter() - t0
                if probe is not None:
                    samples = probe.stop()
            if tally is not None:
                for name, fn in caches.items():
                    info = fn.cache_info()
                    hits, misses = tally.get(name, (0, 0))
                    tally[name] = (hits + info.hits, misses + info.misses)
            errors = wl.check(i, result)
            work = wl.work(i, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, errors, work = None, [f"{type(exc).__name__}: {exc}"], 0
        records.append({"op": i, "wall": wall, "work": work, "errors": errors,
                        "result": result, "probes": samples})
        i += 1
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "src_lines": src_lines}


def input_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    if workload == "paper_games":
        for name in inputs.PAPER_SCENARIOS:
            h.update((ROOT / "scenarios" / f"{name}.json").read_bytes())
    else:
        make = inputs.random_game_docs if workload == "random_games" else inputs.random_map_docs
        for doc in make(seed):
            h.update(doc.encode())
    return h.hexdigest()


def end_to_end(records: list[dict], setup_s: float, probe: HostProbe) -> dict:
    times = [probe.corrected(r["wall"], r["probes"]) for r in records]
    return {"setup_s": (setup_s, "s"),
            "work_per_s": (sum(r["work"] for r in records) / sum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def per_layer(records: list[dict], plain_wall: float, tracer,
              tally: dict) -> tuple[dict, float]:
    calls, seconds, raised, self_s = tracer.summary()
    wall = seconds[tracing.OP]
    games = [r["result"] for r in records if hasattr(r["result"], "outcome")]
    solves = calls["scribe.scribe_times"]
    gap_evals = sum(tracer.counts.values())
    plans = calls["strategies.choose_plan"]
    m = {
        "dominance.boundary_minima.calls": (calls["dominance.boundary_minima"], "count"),
        "dominance.boundary_minima.s": (seconds["dominance.boundary_minima"], "s"),
        "dominance.intersection_points.calls": (calls["dominance.intersection_points"], "count"),
        "strategies.choose_plan.calls": (plans, "count"),
        "strategies.choose_plan.s": (seconds["strategies.choose_plan"], "s"),
        "scribe.reach_times.calls": (calls["scribe.reach_times"], "count"),
        "scribe.scribe_times.calls": (solves, "count"),
        "scribe.gap_evals": (gap_evals, "count"),
        "scribe.gap_evals_per_solve": (gap_evals / solves if solves else 0.0, "ratio"),
        "scribe.self_s": (self_s["scribe"], "s"),
        "dominance.classify_point.calls": (calls["dominance.classify_point"], "count"),
        "dominance.classify_point.s": (seconds["dominance.classify_point"], "s"),
        "dominance.r3_certificates.s": (seconds["dominance.r3_certificates"], "s"),
        "dominance.capture_boundary.s": (seconds["dominance.capture_boundary"], "s"),
        "mrr.mrr_boundary.calls": (calls["mrr.mrr_boundary"], "count"),
        "mrr.self_s": (self_s["mrr"], "s"),
        "dynamics.propagate.calls": (calls["dynamics.propagate"], "count"),
        "dynamics.steer_to.calls": (calls["dynamics.steer_to"], "count"),
        "dynamics.self_s": (self_s["dynamics"], "s"),
        "engine.steps": (sum(len(g.rows) for g in games), "count"),
        "engine.self_s": (self_s["engine"], "s"),
        "engine.fallback_notes": (sum(len(g.notes) for g in games), "count"),
        "engine.timeout_ratio": (
            sum(g.outcome.kind.value == "timeout" for g in games) / len(games)
            if games else 0.0, "ratio"),
        "strategies.choose_plan.fail_ratio": (
            raised["strategies.choose_plan"] / plans if plans else 0.0, "ratio"),
        "strategies.first_unsafe_crossing.s": (seconds["strategies.first_unsafe_crossing"], "s"),
        "strategies.can_reach_target.s": (seconds["strategies.can_reach_target"], "s"),
        "strategies.self_s": (self_s["strategies"], "s"),
        "dominance.self_s": (self_s["dominance"], "s"),
        "io.self_s": (self_s["io"], "s"),
        "trace.overhead_ratio": (wall / plain_wall, "ratio"),
    }
    # absent, not zero, once the library no longer caches tangency windows
    hits, misses = tally.get("dominance.tangency_windows", (0, 0))
    if "dominance.tangency_windows" in tally:
        m["dominance.tangency_windows.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
    return m, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "reachavoid" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    # RA_THREADS only ever slowed region maps down and is due to be removed;
    # the benchmark runs one thread whatever the caller's environment says
    os.environ.pop("RA_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    workdir = ROOT / ".bench_work" / args.workload

    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed, workdir / "probe")))
        return 0

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s = setup_seconds(args.workload, args.seed) if args.trace == 0 else None
    wl = prepare(args.workload, args.seed, workdir)
    import reachavoid
    if not Path(reachavoid.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {reachavoid.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    caches = tracing.lru_caches()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    digest = input_digest(args.workload, args.seed)
    print(f"inputs workload={args.workload} seed={args.seed} sha256={digest}")

    if args.trace == 0:
        probe = HostProbe()
        records = run_ops(wl, caches, seconds=args.seconds, probe=probe)
        metrics = end_to_end(records, setup_s, probe)
        names = {"work_per_s": wl.rate_name}
        wall_rate = sum(r["work"] for r in records) / sum(r["wall"] for r in records)
        print(f"{wl.rate_name}_wall {wall_rate!r} 1/s")
        print(f"host_probe_mean {statistics.fmean(probe.every) * 1e6!r} us "
              f"over {len(probe.every)} probes")
        print(f"{wl.p50_name} {statistics.median(r['wall'] for r in records)!r} s")
    else:
        plain = run_ops(wl, caches, count=wl.trace_ops)
        tracer = tracing.Tracer()
        tracer.install()
        tally: dict = {}
        traced = run_ops(wl, caches, count=wl.trace_ops, tracer=tracer, tally=tally)
        records = plain + traced
        metrics, wall = per_layer(traced, sum(r["wall"] for r in plain), tracer, tally)
        names = {}
        spans = workdir / "spans.csv"
        tracer.write(spans)
        print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}; "
              f"traced wall {wall:.4f} s")
        for name, (value, unit) in metrics.items():
            if unit == "s":
                print(f"share {name} {value / wall:.4f} of traced wall time")

    failed = sum(1 for r in records if r["errors"])
    for r in records:
        for error in r["errors"]:
            print(f"FAIL op {r['op']}: {error}")
    print(f"ops {len(records)} failed {failed}")
    print(f"fail_ratio {failed / len(records):.6g} ratio")
    if getattr(wl, "oracle_cells", None) is not None:
        print(f"oracle_cells_checked {wl.oracle_cells} count")
    for name, (value, unit) in metrics.items():
        print(f"{names.get(name, name)} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
