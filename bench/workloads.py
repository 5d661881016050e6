"""The three workloads: their prepared inputs, one operation each, and its check.

An operation is one call into the library's public surface: `reachavoid.run`
on one scenario, or the `regions` command through `reachavoid.cli.main`.
Importing this module imports reachavoid, so it is part of the timed set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import reachavoid
import reachavoid.cli
from reachavoid import scenario_io

import checks
import inputs

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class PaperGames:
    """The five bundled scenarios, in a fixed cycle; the seed is unused."""

    # what work_per_s counts and what the median operation time is called
    rate_name, p50_name = "steps_per_s", "game_s_p50"
    cycle = len(inputs.PAPER_SCENARIOS)
    trace_ops = cycle

    def __init__(self, root: Path, seed: int, workdir: Path):
        ref = json.loads(REFERENCE.read_text())
        self.tol = ref["tolerance"]
        self.refs = ref["paper_games"]
        self.games = [(name, scenario_io.load(root / "scenarios" / f"{name}.json").scenario)
                      for name in inputs.PAPER_SCENARIOS]

    def op(self, i: int):
        return reachavoid.run(self.games[i % self.cycle][1])

    def work(self, i: int, trace) -> int:
        return len(trace.rows)

    def check(self, i: int, trace) -> list[str]:
        name = self.games[i % self.cycle][0]
        return checks.paper_game(name, trace, self.refs[name], self.tol)


class RandomGames:
    """Seeded games from the fuzz distribution, in generation order."""

    rate_name, p50_name = "steps_per_s", "game_s_p50"
    cycle = 1
    trace_ops = 2 * len(inputs.POLICY_PAIRS)

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.games = [scenario_io.loads(doc).scenario
                      for doc in inputs.random_game_docs(seed)]

    def op(self, i: int):
        return reachavoid.run(self.games[i % len(self.games)])

    def work(self, i: int, trace) -> int:
        return len(trace.rows)

    def check(self, i: int, trace) -> list[str]:
        return checks.game_invariants(trace)


class RegionMaps:
    """`regions` on special1, then MAPS_PER_CYCLE seeded maps, repeated."""

    rate_name, p50_name = "cells_per_s", "map_s_p50"
    cycle = 1 + inputs.MAPS_PER_CYCLE
    trace_ops = cycle

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "out"
        special1 = root / "scenarios" / "special1.json"
        self.special1 = (special1, scenario_io.load(special1).render.resolution)
        self.special1_counts = json.loads(REFERENCE.read_text())["special1_counts"]
        indir = workdir / "inputs"
        indir.mkdir(parents=True, exist_ok=True)
        self.maps = []
        for k, doc in enumerate(inputs.random_map_docs(seed)):
            path = indir / f"map{k:03d}.json"
            path.write_text(doc)
            self.maps.append((path, inputs.MAP_RESOLUTION))
        self.oracle_cells = 0

    def _job(self, i: int) -> tuple[int, tuple[Path, tuple[int, int]]]:
        """(random map index, or -1 for special1; (scenario file, resolution))."""
        c, pos = divmod(i, self.cycle)
        if pos == 0:
            return -1, self.special1
        k = (c * inputs.MAPS_PER_CYCLE + pos - 1) % len(self.maps)
        return k, self.maps[k]

    def op(self, i: int) -> None:
        _, (path, _) = self._job(i)
        with contextlib.redirect_stdout(io.StringIO()):
            code = reachavoid.cli.main(["regions", str(path), "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"regions exited with {code}")

    def work(self, i: int, result) -> int:
        nx, ny = self._job(i)[1][1]
        return nx * ny

    def check(self, i: int, result) -> list[str]:
        k, (path, (nx, ny)) = self._job(i)
        rows, errs = checks.read_regions(self.out / "regions.csv", nx, ny)
        if errs:
            return errs
        if k < 0:
            counts = checks.label_counts(rows)
            if counts != self.special1_counts:
                return [f"special1 label counts {counts}, "
                        f"reference {self.special1_counts}"]
            return []
        cfg = scenario_io.load(path).scenario.cfg
        rng = random.Random(f"oracle:{self.seed}:{k}")
        decided, errs = checks.oracle_sample(cfg, rows, rng)
        self.oracle_cells += decided
        return errs


WORKLOADS = {"paper_games": PaperGames, "random_games": RandomGames,
             "region_maps": RegionMaps}
