"""Small planar-geometry toolkit: vectors and polygons.

Everything in the game lives in the plane, so a tiny immutable 2-vector plus a
pair of polygon routines is all the geometry the rest of the library needs.
Heavier sweeps (boundary sampling, region grids) convert to numpy arrays
internally; `Vec2` is the currency at API boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Normalize an angle (a float or an array) to [0, 2*pi)."""
    if isinstance(theta, np.ndarray):
        th = np.fmod(theta, TWO_PI)
        return np.where(th < 0.0, th + TWO_PI, th)
    th = math.fmod(theta, TWO_PI)
    return th + TWO_PI if th < 0.0 else th


def mapped(fn, *args):
    """math's `fn` on floats, or element-wise on equal 1-D arrays, for array
    kernels that must equal their float calls (numpy's exp, atan2 differ)."""
    if isinstance(args[0], np.ndarray):
        return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)
    return fn(*args)


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (self.x.__class__ is float and self.y.__class__ is float):
            object.__setattr__(self, "x", float(self.x))
            object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector components ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def unit(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    @staticmethod
    def from_polar(r: float, theta: float) -> "Vec2":
        return Vec2(r * math.cos(theta), r * math.sin(theta))


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area of a closed polygon given as an (n, 2) array."""
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def point_in_polygon(point, polygon: np.ndarray) -> bool:
    """Even-odd ray-cast membership test against an (n, 2) vertex array."""
    px, py = float(point[0]), float(point[1])
    x = polygon[:, 0]
    y = polygon[:, 1]
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    straddles = (y > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = x + (py - y) * (x2 - x) / (y2 - y)
    hits = straddles & (px < xi)
    return bool(np.count_nonzero(hits) % 2)

