import math

import numpy as np
import pytest

from reachavoid.geometry import (Vec2, point_in_polygon, polygon_area,
                                 wrap_angle)


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


class TestPolygons:
    def test_area_and_membership(self):
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        assert polygon_area(square) == pytest.approx(4.0)
        assert point_in_polygon((1.0, 1.0), square)
        assert not point_in_polygon((3.0, 1.0), square)
