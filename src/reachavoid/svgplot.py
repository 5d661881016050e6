"""Hand-rolled SVG output with byte-stable formatting.

No plotting dependency: figures are assembled from polylines, circles and
labelled layers, and every coordinate is formatted with a fixed precision so
identical inputs always produce identical bytes.  Tests grep the path data.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dominance import GameConfig, RegionLabel, capture_boundary
from .engine import GameTrace
from .mrr import MrrBoundary, mrr_boundary

_FMT = "{:.6f}"
# overlay vertices are drawn to within this many pixels of the sampled curve
OVERLAY_TOL_PX = 0.25
# samples per branch of an overlaid MRR boundary: at most 0.27 px from 2,048
MRR_SAMPLES = 64

LABEL_COLORS = {
    RegionLabel.R_I: "#f4c95d",
    RegionLabel.R_II: "#e8a13c",
    RegionLabel.R_III: "#7fb069",
    RegionLabel.DEFENDER_DOMINATED: "#d7e3f4",
    RegionLabel.BOUNDARY_L: "#222222",
    RegionLabel.BOUNDARY_MRR: "#8a4fff",
}


def _f(v: float) -> str:
    out = _FMT.format(v)
    return "0.000000" if out == "-0.000000" else out


def thin(points: np.ndarray, tol: float) -> np.ndarray:
    """Sorted indices of a subsequence of the (n, 2) polyline `points`, with both
    ends, that every vertex lies within `tol` of.  As in Douglas and Peucker (1973) a
    block within `tol` of its chord is drawn as the chord and any other splits, but
    into eighths, so that each level is one array pass."""
    n = len(points)
    if n < 3:
        return np.arange(n)
    k = 8 ** (((n - 2).bit_length() - 1) // 3)  # the first split: at most 8 blocks of k
    # x + iy, the last vertex repeated up to a whole number of blocks
    z = np.ascontiguousarray(points, dtype=float).view(complex).ravel()
    z = np.concatenate([z, z[-1:].repeat((1 - n) % k)])
    rows, ends, starts, kept = z[None, :-1], z[-1:], np.zeros(1, int), [np.array([n - 1])]
    while True:
        chord = ends - rows[:, 0]
        # each vertex in its block's chord frame: along the chord and across it
        w = (rows - rows[:, :1]) * np.exp(-1j * np.angle(chord))[:, None]
        beyond = w.real - np.clip(w.real, 0.0, np.abs(chord)[:, None])
        far = (beyond * beyond + w.imag * w.imag).max(axis=1) > tol * tol
        kept.append(starts[~far])
        if not far.any():
            return np.unique(np.minimum(np.concatenate(kept), n - 1))
        rows, starts = rows[far], starts[far, None]
        ends = np.column_stack([rows[:, k::k], ends[far]]).ravel()
        starts = (starts + np.arange(0, rows.shape[1], k)).ravel()
        rows, k = rows.reshape(-1, k), k // 8


@dataclass
class SvgCanvas:
    """Collects elements in data coordinates, then renders with a flipped y."""

    width: int = 640
    height: int = 640
    margin: float = 0.05
    elements: list[str] = field(default_factory=list)
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def _track(self, xs: Iterable[float], ys: Iterable[float]) -> None:
        self.xs.extend(xs)
        self.ys.extend(ys)

    def polyline(self, points: Sequence[Sequence[float]], color: str,
                 width: float = 1.5) -> None:
        if len(points) < 2:
            return
        xy = [None] * (2 * len(points))
        xy[0::2], xy[1::2] = [p[0] for p in points], [p[1] for p in points]
        self._track(xy[0::2], xy[1::2])
        # _f on every coordinate: one formatting pass, one -0.000000 rewrite
        data = ((" %.6f,%.6f" * len(points))[1:] % tuple(xy)).replace(
            "-0.000000", "0.000000")
        self.elements.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}" points="{data}" />')

    def marker(self, x: float, y: float, color: str, r: float = 0.012) -> None:
        self._track([x], [y])
        self.elements.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" fill="{color}" '
            f'stroke="none" />')

    def open_layer(self, name: str) -> None:
        self.elements.append(f'<g id="{name}">')

    def close_layer(self) -> None:
        self.elements.append("</g>")

    def layer(self, name: str, polylines, color: str, width: float) -> None:
        self.open_layer(name)
        for points in polylines:
            self.polyline(points, color, width)
        self.close_layer()

    def render(self) -> str:
        xmin, xmax = min(self.xs), max(self.xs)
        ymin, ymax = min(self.ys), max(self.ys)
        dx = (xmax - xmin) or 1.0
        dy = (ymax - ymin) or 1.0
        pad = self.margin * max(dx, dy)
        vb = (xmin - pad, -(ymax + pad), dx + 2 * pad, dy + 2 * pad)
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="{_f(vb[0])} {_f(vb[1])} '
            f'{_f(vb[2])} {_f(vb[3])}">\n'
            '<g transform="scale(1,-1)">\n')
        return header + "\n".join(self.elements) + "\n</g>\n</svg>\n"


def trajectory_figure(trace: GameTrace) -> str:
    cfg = trace.scenario.cfg
    cv = SvgCanvas()
    # a game decided at t = 0 has no rows: its paths are the start positions
    start = [cfg.attacker.pos.x, cfg.attacker.pos.y, cfg.defender.pos.x, cfg.defender.pos.y]
    xy = trace.rows.array[:, [1, 2, 5, 6]].tolist() or [start]  # xA, yA, xD, yD
    atk, dfd = [p[:2] for p in xy], [p[2:] for p in xy]
    cv.layer("attacker_path", [atk], "#c0392b", 2.0)
    cv.layer("defender_path", [dfd], "#2d6cdf", 2.0)
    scale = 0.015 * max(1e-9, float(np.ptp(atk + dfd, axis=0).max()))
    cv.marker(cfg.target.x, cfg.target.y, "#1d8348", r=scale)
    cv.marker(atk[0][0], atk[0][1], "#c0392b", r=scale)
    cv.marker(dfd[0][0], dfd[0][1], "#2d6cdf", r=scale)
    cv.marker(atk[-1][0], atk[-1][1], "#000000", r=scale * 0.8)
    return cv.render()


def distance_figure(trace: GameTrace) -> str:
    cv = SvgCanvas(height=400)
    ad = [(r.t, r.dist_ad) for r in trace.rows]
    at = [(r.t, r.dist_at) for r in trace.rows]
    tmax = max((r.t for r in trace.rows), default=1.0)
    dmax = max([r.dist_at for r in trace.rows] + [r.dist_ad for r in trace.rows],
               default=1.0)
    cv.layer("axes", [[(0.0, 0.0), (tmax, 0.0)], [(0.0, 0.0), (0.0, dmax)]], "#888888", 1.0)
    cv.layer("dist_attacker_defender", [ad], "#2d6cdf", 1.5)
    cv.layer("dist_attacker_target", [at], "#c0392b", 1.5)
    return cv.render()


def mrr_figure(boundary: MrrBoundary) -> str:
    cv = SvgCanvas()
    poly = boundary.polygon()
    span = max(float(np.ptp(poly[:, 0])), float(np.ptp(poly[:, 1])), 1e-9)
    ring = np.vstack([poly, poly[:1]])
    cv.layer("region_boundary", [ring[thin(ring, OVERLAY_TOL_PX * span / cv.width)].tolist()],
             "#8a4fff", 1.5)
    cv.marker(boundary.x_s.x, boundary.x_s.y, "#000000", r=0.02 * span)
    for c in boundary.cusps:
        cv.marker(c.x, c.y, "#444444", r=0.015 * span)
    return cv.render()


def region_figure(cfg: GameConfig, xs, ys, labels) -> str:
    """Layered region map: per label a layer of row-run rects, then a layer for L
    and one for the moving players' MRR boundaries, thinned to OVERLAY_TOL_PX of
    a pixel, the grid window's longer side over the figure's width."""
    cv = SvgCanvas()
    w, h = float(xs[1] - xs[0]), float(ys[1] - ys[0])
    # each cell's corner: formatted once per column and once per row
    left = [float(x) - 0.5 * w for x in xs]
    bottom = [float(y) - 0.5 * h for y in ys]
    cv._track(left + [x + w for x in left], bottom + [y + h for y in bottom])
    col, row = [_f(x) for x in left], [_f(y) for y in bottom]
    layers: dict[RegionLabel, list[str]] = {label: [] for label in RegionLabel}
    for j, labs in enumerate(labels):
        for label, cells in itertools.groupby(range(len(labs)), labs.__getitem__):
            cells = list(cells)
            layers[label].append(f'<rect x="{col[cells[0]]}" y="{row[j]}" '
                                 f'width="{_f(len(cells) * w)}" height="{_f(h)}" '
                                 f'fill="{LABEL_COLORS[label]}" stroke="none" />')
    for label, rects in layers.items():
        if rects:
            cv.open_layer(f"region_{label.value}")
            cv.elements.extend(rects)
            cv.close_layer()
    tol = OVERLAY_TOL_PX * max(xs[-1] - xs[0], ys[-1] - ys[0]) / cv.width
    mrr = [mrr_boundary(state, params, MRR_SAMPLES).polygon() for state, params in
           ((cfg.attacker, cfg.attacker_params), (cfg.defender, cfg.defender_params))
           if state.vel.norm() > 0.0]
    for label, lines in ((RegionLabel.BOUNDARY_L, [s.points for s in capture_boundary(cfg).segments]),
                         (RegionLabel.BOUNDARY_MRR, mrr)):
        cv.layer(label.value, [p[thin(p, tol)].tolist() for p in lines], LABEL_COLORS[label], 1.2)
    cv.marker(cfg.target.x, cfg.target.y, "#1d8348")
    cv.marker(cfg.attacker.pos.x, cfg.attacker.pos.y, "#c0392b")
    cv.marker(cfg.defender.pos.x, cfg.defender.pos.y, "#2d6cdf")
    return cv.render()
