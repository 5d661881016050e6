import math

import numpy as np
import pytest

from reachavoid.geometry import (Vec2, mapped, point_in_polygon,
                                 polygon_area, wrap_angle)


class TestVec2:
    def test_arithmetic(self):
        a = Vec2(1.0, 2.0)
        b = Vec2(-0.5, 0.25)
        assert a + b == Vec2(0.5, 2.25)
        assert a - b == Vec2(1.5, 1.75)
        assert 2.0 * a == Vec2(2.0, 4.0)
        assert a.dot(b) == pytest.approx(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)

    def test_polar_round_trip(self):
        v = Vec2.from_polar(2.0, 1.1)
        assert v.norm() == pytest.approx(2.0)
        assert v.angle() == pytest.approx(1.1)


class TestAngles:
    def test_wrap(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(5 * math.pi) == pytest.approx(math.pi)

    def test_wrap_array_equals_float_calls(self):
        rng = np.random.default_rng(3)
        theta = np.concatenate([rng.uniform(-20.0, 20.0, 500),
                                [-0.0, 0.0, -1e-17, 2 * math.pi, -2 * math.pi]])
        wrapped = wrap_angle(theta)
        assert [math.copysign(1.0, v) for v in wrapped.tolist()] == \
            [math.copysign(1.0, wrap_angle(v)) for v in theta.tolist()]
        assert wrapped.tolist() == [wrap_angle(v) for v in theta.tolist()]

    def test_mapped_calls_math(self):
        x = np.array([0.1, -2.5, 7.0])
        assert mapped(math.exp, x).tolist() == [math.exp(v) for v in x.tolist()]
        assert mapped(math.atan2, x, x[::-1]).tolist() == \
            [math.atan2(a, b) for a, b in zip(x.tolist(), x[::-1].tolist())]
        assert mapped(math.hypot, 3.0, 4.0) == 5.0
        assert mapped(math.cos, np.array([])).shape == (0,)


class TestPolygons:
    def test_area_and_membership(self):
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        assert polygon_area(square) == pytest.approx(4.0)
        assert point_in_polygon((1.0, 1.0), square)
        assert not point_in_polygon((3.0, 1.0), square)
