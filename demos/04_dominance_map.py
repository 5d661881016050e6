"""Mapping the attacker's dominance regions.

For players starting at rest the contested boundary collapses to an Apollonius
circle.  With a moving defender a pocket opens behind it: points the attacker
can only claim by slowing down so that its arrival falls into the defender's
unreachable window.  The script renders both maps as layered SVG.
"""
from pathlib import Path

import numpy as np

from reachavoid import (GameConfig, PlayerParams, PlayerState, Vec2,
                        apollonius_circle, r3_certificates, region_map)
from reachavoid.svgplot import region_figure

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)


def render(cfg, window, resolution, name):
    xs, ys, labels = region_map(cfg, window, resolution)
    (out / name).write_text(region_figure(cfg, xs, ys, labels))
    flat = [l.value for row in labels for l in row]
    print(f"{name}: " + ", ".join(f"{v}={flat.count(v)}"
                                  for v in sorted(set(flat))))


at_rest = GameConfig(
    attacker=PlayerState(Vec2(-0.6, 0.1), Vec2(0, 0)),
    attacker_params=PlayerParams(1.0, 1.0),
    defender=PlayerState(Vec2(-0.8, -0.2), Vec2(0, 0)),
    defender_params=PlayerParams(2.0, 1.0))
center, radius = apollonius_circle(at_rest)
print(f"at rest the boundary is a circle at ({center.x:+.4f}, {center.y:+.4f}) "
      f"with radius {radius:.4f}")
render(at_rest, (-1.0, 0.1, -0.6, 0.7), (40, 40), "regions_at_rest.svg")

moving = GameConfig(
    attacker=PlayerState(Vec2(-0.3457, 0.0517), Vec2(0.0862, 0.0338)),
    attacker_params=PlayerParams(1.0, 1.0),
    defender=PlayerState(Vec2(-0.6728, -0.0455), Vec2(1.6534, 0.0907)),
    defender_params=PlayerParams(2.0, 1.0))
comps = r3_certificates(moving)
print(f"\nmoving defender: {len(comps)} certified pocket component(s), "
      f"areas " + ", ".join(f"{c.area():.2e}" for c in comps))
render(moving, (-0.75, 0.1, -0.35, 0.35), (48, 36), "regions_moving.svg")
