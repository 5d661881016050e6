"""Command-line surface: scenario JSON in, CSV and SVG artifacts out.

Subcommands:

  simulate  run the closed-loop game; writes trace.csv, trajectories.svg and
            distances.svg into --out
  regions   classify a grid over the render window; writes regions.csv and a
            layered regions.svg
  scribe    print the external/internal tangency times of the two isochron
            families, with multiplicities
  mrr       print barrier and cusp times for one player and write the sampled
            region boundary
"""
from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import scenario_io, svgplot
from .dominance import capture_boundary, region_map
from .engine import run
from .mrr import mrr_boundary
from .scenario_io import SchemaError
from .scribe import ScribeMode, scribe_times


def _fail(message: str):
    """Report a bad input on stderr and exit with status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: str):
    try:
        return scenario_io.load(path)
    except FileNotFoundError:
        _fail(f"scenario file not found: {path}")
    except OSError as exc:
        _fail(f"cannot read scenario file {path}: {exc.strerror}")
    except (UnicodeDecodeError, SchemaError) as exc:
        _fail(f"{path}: {exc}")


def cmd_simulate(args) -> int:
    sc = _load(args.scenario).scenario
    if args.dt is not None:
        try:
            sc = replace(sc, dt=args.dt)
        except ValueError as exc:
            _fail(f"--dt: {exc}")
    trace = run(sc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text(scenario_io.trace_to_csv(trace))
    (out / "trajectories.svg").write_text(svgplot.trajectory_figure(trace))
    (out / "distances.svg").write_text(svgplot.distance_figure(trace))
    o = trace.outcome
    print(f"{o.kind.value} t={o.t:.6f} payoff={o.payoff:.6f}")
    for note in trace.notes:
        print(f"note: {note}")
    return 0


def _window_for(doc, args):
    if getattr(args, "window", None):
        try:
            parts = [float(v) for v in args.window.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4 or not all(map(math.isfinite, parts)) \
                or not (parts[1] > parts[0] and parts[3] > parts[2]):
            _fail("--window must be four finite numbers xmin,xmax,ymin,ymax "
                  "with positive extent")
        return tuple(parts)
    if doc.render.window is not None:
        return doc.render.window
    cfg = doc.scenario.cfg
    pts = [cfg.attacker.pos, cfg.defender.pos, cfg.target]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    pad = 0.6 * max(max(xs) - min(xs), max(ys) - min(ys), 0.5)
    return (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)


def cmd_regions(args) -> int:
    doc = _load(args.scenario)
    cfg = doc.scenario.cfg
    window = _window_for(doc, args)
    if args.resolution:
        try:
            nx, ny = (int(v) for v in args.resolution.lower().split("x"))
        except ValueError:
            nx = ny = 0
        if nx < 2 or ny < 2:
            _fail("--resolution must look like 80x80, at least 2x2")
        resolution = (nx, ny)
    else:
        resolution = doc.render.resolution
    xs, ys, labels = region_map(cfg, window, resolution)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "regions.csv").write_text(scenario_io.regions_to_csv(xs, ys, labels))
    boundary = capture_boundary(cfg)
    overlays = {"boundary_L": [seg.points for seg in boundary.segments]}
    mrr_lines = []
    for state, params in ((cfg.attacker, cfg.attacker_params),
                          (cfg.defender, cfg.defender_params)):
        if state.vel.norm() > 0.0:
            mrr_lines.append(mrr_boundary(state, params).polygon())
    if mrr_lines:
        overlays["boundary_mrr"] = mrr_lines
    (out / "regions.svg").write_text(
        svgplot.region_figure(cfg, xs, ys, labels, overlays))
    counts = Counter(lab.value for row in labels for lab in row)
    print(" ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_scribe(args) -> int:
    doc = _load(args.scenario)
    cfg = doc.scenario.cfg
    print("mode          times (multiplicity)")
    for mode in (ScribeMode.CIRCUMSCRIBE, ScribeMode.INSCRIBE):
        roots = scribe_times(cfg.scribe_problem(mode))
        cells = " ".join(f"{t:.10f} (x{m})"
                         for t, m in zip(roots.times, roots.multiplicities))
        print(f"{mode.value:<13} {cells}")
    return 0


def cmd_mrr(args) -> int:
    doc = _load(args.scenario)
    cfg = doc.scenario.cfg
    if args.player == "attacker":
        state, params = cfg.attacker, cfg.attacker_params
    else:
        state, params = cfg.defender, cfg.defender_params
    if state.vel.norm() == 0.0:
        print(f"{args.player} starts at rest: the region is empty")
        return 0
    boundary = mrr_boundary(state, params)
    print(f"barrier_time={boundary.t_s:.10f} cusp_time={boundary.t_u:.10f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    poly = boundary.polygon()
    lines = ["x,y"] + [f"{p[0]:.17g},{p[1]:.17g}" for p in poly]
    (out / "mrr.csv").write_text("\n".join(lines) + "\n")
    (out / "mrr.svg").write_text(svgplot.mrr_figure(boundary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachavoid",
        description="Reach-avoid games of damped double-integrator players")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop game")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--dt", type=float, default=None, help="override step size")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("regions", help="classify a grid and render the map")
    p.add_argument("scenario")
    p.add_argument("--out", default="out")
    p.add_argument("--resolution", default=None, help="grid size, e.g. 80x80")
    p.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("scribe", help="print isochron tangency times")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_scribe)

    p = sub.add_parser("mrr", help="multiple reachable region of one player")
    p.add_argument("scenario")
    p.add_argument("--player", choices=("attacker", "defender"),
                   default="defender")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_mrr)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
