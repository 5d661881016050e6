"""Scenario files, trace CSV, and region CSV.

Scenarios are JSON documents with a fixed schema; unknown keys anywhere are
rejected so that typos fail loudly instead of silently running defaults.
Floats serialize with Python's shortest round-trip representation, so a
load -> dump -> load cycle reproduces the configuration bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .dynamics import PlayerParams, PlayerState
from .dominance import GameConfig
from .engine import (TRACE_COLUMNS, AttackerPolicy, DefenderPolicy, GameTrace,
                     Scenario)
from .geometry import Vec2


class SchemaError(ValueError):
    """Scenario document violates the schema; message carries the key path."""


@dataclass(frozen=True)
class RenderOptions:
    window: Optional[tuple[float, float, float, float]] = None
    resolution: tuple[int, int] = (80, 80)


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    render: RenderOptions


def _need(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise SchemaError(f"missing key '{path}{key}'")
    return mapping[key]


def _no_extras(mapping: dict, allowed: set[str], path: str) -> None:
    extras = set(mapping) - allowed
    if extras:
        raise SchemaError(f"unknown key(s) {sorted(extras)} under '{path or '.'}'")


def _vec(value: Any, path: str) -> Vec2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"'{path}' must be a pair of numbers")
    return Vec2(*(_number(v, path) for v in value))


def _number(value: Any, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise SchemaError(f"'{path}' must be a finite number")
    return float(value)


def _player(raw: Any, mu: float, path: str) -> tuple[PlayerState, PlayerParams]:
    if not isinstance(raw, dict):
        raise SchemaError(f"'{path}' must be an object")
    _no_extras(raw, {"pos", "vel", "u_max"}, path)
    pos = _vec(_need(raw, "pos", path + "."), path + ".pos")
    vel = _vec(_need(raw, "vel", path + "."), path + ".vel")
    u_max = _number(_need(raw, "u_max", path + "."), path + ".u_max")
    try:
        params = PlayerParams(u_max=u_max, mu=mu)
    except ValueError as exc:
        raise SchemaError(f"'{path}': {exc}") from exc
    return PlayerState(pos=pos, vel=vel), params


def loads(text: str) -> ScenarioDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("scenario document must be a JSON object")
    _no_extras(raw, {"players", "mu", "target", "policies", "sim", "render"}, "")

    mu = _number(_need(raw, "mu", ""), "mu")
    if mu <= 0.0:
        raise SchemaError("'mu' must be positive")
    players = _need(raw, "players", "")
    if not isinstance(players, dict):
        raise SchemaError("'players' must be an object")
    _no_extras(players, {"attacker", "defender"}, "players")
    atk_state, atk_params = _player(_need(players, "attacker", "players."),
                                    mu, "players.attacker")
    dfd_state, dfd_params = _player(_need(players, "defender", "players."),
                                    mu, "players.defender")
    target = _vec(raw.get("target", [0.0, 0.0]), "target")
    try:
        cfg = GameConfig(attacker=atk_state, attacker_params=atk_params,
                         defender=dfd_state, defender_params=dfd_params,
                         target=target)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    policies = raw.get("policies", {})
    if not isinstance(policies, dict):
        raise SchemaError("'policies' must be an object")
    _no_extras(policies, {"attacker", "defender"}, "policies")
    try:
        atk_pol = AttackerPolicy(policies.get("attacker", "strategy_i"))
    except ValueError as exc:
        raise SchemaError(f"unknown attacker policy: {exc}") from exc
    try:
        dfd_pol = DefenderPolicy(policies.get("defender", "strategy_i"))
    except ValueError as exc:
        raise SchemaError(f"unknown defender policy: {exc}") from exc

    sim = raw.get("sim", {})
    if not isinstance(sim, dict):
        raise SchemaError("'sim' must be an object")
    _no_extras(sim, {"dt", "t_max", "eps_capture", "eps_target",
                     "plan_switch_margin"}, "sim")
    kwargs = {}
    for key in ("dt", "t_max", "eps_capture", "eps_target", "plan_switch_margin"):
        if key in sim:
            kwargs[key] = _number(sim[key], f"sim.{key}")
    try:
        scenario = Scenario(cfg=cfg, attacker_policy=atk_pol,
                            defender_policy=dfd_pol, **kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    render_raw = raw.get("render", {})
    if not isinstance(render_raw, dict):
        raise SchemaError("'render' must be an object")
    _no_extras(render_raw, {"window", "resolution"}, "render")
    window = None
    if "window" in render_raw:
        win = render_raw["window"]
        if not isinstance(win, (list, tuple)) or len(win) != 4:
            raise SchemaError("'render.window' must be [xmin, xmax, ymin, ymax]")
        window = tuple(_number(v, "render.window") for v in win)
        if not (window[1] > window[0] and window[3] > window[2]):
            raise SchemaError("'render.window' must have positive extent")
    resolution = (80, 80)
    if "resolution" in render_raw:
        res = render_raw["resolution"]
        if (not isinstance(res, (list, tuple)) or len(res) != 2
                or not all(isinstance(v, int) and v >= 2 for v in res)):
            raise SchemaError("'render.resolution' must be two ints >= 2")
        resolution = (res[0], res[1])
    return ScenarioDocument(scenario=scenario,
                            render=RenderOptions(window=window, resolution=resolution))


def load(path: str | Path) -> ScenarioDocument:
    return loads(Path(path).read_text(encoding="utf-8"))


def dumps(doc: ScenarioDocument) -> str:
    sc = doc.scenario
    if sc.attacker_policy is AttackerPolicy.CONSTANT:
        raise SchemaError("the constant attacker policy is library-only: "
                          "no scenario key holds its constant_ctrl")
    cfg = sc.cfg
    payload: dict[str, Any] = {
        "players": {
            "attacker": {"pos": [cfg.attacker.pos.x, cfg.attacker.pos.y],
                         "vel": [cfg.attacker.vel.x, cfg.attacker.vel.y],
                         "u_max": cfg.attacker_params.u_max},
            "defender": {"pos": [cfg.defender.pos.x, cfg.defender.pos.y],
                         "vel": [cfg.defender.vel.x, cfg.defender.vel.y],
                         "u_max": cfg.defender_params.u_max},
        },
        "mu": cfg.mu,
        "target": [cfg.target.x, cfg.target.y],
        "policies": {"attacker": sc.attacker_policy.value,
                     "defender": sc.defender_policy.value},
        "sim": {"dt": sc.dt, "eps_capture": sc.eps_capture,
                "eps_target": sc.eps_target,
                "plan_switch_margin": sc.plan_switch_margin},
    }
    if sc.t_max is not None:
        payload["sim"]["t_max"] = sc.t_max
    render: dict[str, Any] = {"resolution": list(doc.render.resolution)}
    if doc.render.window is not None:
        render["window"] = list(doc.render.window)
    payload["render"] = render
    return json.dumps(payload, indent=2) + "\n"


def trace_to_csv(trace: GameTrace) -> str:
    """Fixed-column trace serialization at 17 significant digits."""
    lines = [",".join(TRACE_COLUMNS)]
    lines += [",".join(f"{v:.17g}" for v in row)
              for row in trace.rows.array.tolist()]
    return "\n".join(lines) + "\n"


def regions_to_csv(xs, ys, labels) -> str:
    lines = ["x,y,label"]
    cols = [f"{float(x):.17g}," for x in xs]
    # `_value_` is the member's plain attribute: ten times cheaper than `.value`
    for y_text, row in zip((f"{float(y):.17g}," for y in ys), labels):
        lines += [x_text + y_text + lab._value_ for x_text, lab in zip(cols, row)]
    return "\n".join(lines) + "\n"
