import math

import numpy as np
import pytest

from reachavoid import (Branch, Control, DomainError, PlayerParams,
                        PlayerState, ReachKind, RootSet, Vec2, barrier_time,
                        boundary_point, classify, cusp_time, mrr_boundary,
                        propagate, reach_times, steer_to)
from reachavoid import mrr
from reachavoid.dominance import matched_index
from reachavoid.geometry import point_in_polygon
from reachavoid.mrr import CLASSIFY_TOL, merge_times

import oracle
from conftest import random_player


def bisect(f, lo, hi, it=200):
    flo = f(lo)
    for _ in range(it):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def cusp_oracle(v0: float, u: float, mu: float, t_s: float) -> float:
    """Independent bisection of the vanishing-tangent equation."""

    def resid(t):
        decay = math.exp(-mu * t)
        s = (1 - decay) / mu
        return (u * u / mu) * (t - s) - (v0 * v0 * decay * decay
                                         - (u * u / mu ** 2) * (1 - decay) ** 2)

    return bisect(resid, 1e-12, t_s)


class TestBarrierTime:
    def test_rest_is_zero(self, params):
        assert barrier_time(PlayerState(Vec2(1, 1), Vec2(0, 0)), params) == 0.0

    def test_unit_case(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        assert barrier_time(st, params) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_stronger_thrust_shrinks_it(self):
        st = PlayerState(Vec2(0, 0), Vec2(0, 1))
        p2 = PlayerParams(u_max=2.0, mu=1.0)
        assert barrier_time(st, p2) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_thrustless_player_rejected(self):
        with pytest.raises(DomainError):
            barrier_time(PlayerState(Vec2(0, 0), Vec2(1, 0)),
                         PlayerParams(u_max=0.0, mu=1.0))


class TestCuspTime:
    def test_unit_case_from_oracle(self, params):
        # frozen from independent bisection: the unit case solves t = exp(-t)
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_u = cusp_time(st, params)
        assert t_u == pytest.approx(0.5671432904097838, abs=1e-10)
        assert t_u == pytest.approx(cusp_oracle(1.0, 1.0, 1.0, math.log(2.0)),
                                    abs=1e-10)

    def test_vanishing_speed_limit(self, params):
        for speed in (1e-2, 1e-4, 1e-6):
            st = PlayerState(Vec2(0, 0), Vec2(speed, 0.0))
            assert cusp_time(st, params) < 2.0 * speed
        assert cusp_time(PlayerState(Vec2(0, 0), Vec2(0, 0)), params) == 0.0

    def test_below_barrier_time_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mu = rng.uniform(0.3, 2.5)
            u = rng.uniform(0.2, 2.0)
            par = PlayerParams(u_max=u, mu=mu)
            st = random_player(rng, mu, u, min_speed=0.05)
            t_u = cusp_time(st, par)
            t_s = barrier_time(st, par)
            assert 0.0 < t_u < t_s


class TestBoundaryPoint:
    def test_barrier_point_unit_case(self, params):
        # heading is anti-parallel to the velocity at the barrier time
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_s = barrier_time(st, params)
        x_s = boundary_point(st, params, t_s, Branch.PLUS)
        assert x_s.x == pytest.approx(0.3068528194400547, abs=1e-12)
        assert x_s.y == pytest.approx(0.0, abs=1e-12)
        x_s2 = boundary_point(st, params, t_s, Branch.MINUS)
        assert (x_s - x_s2).norm() < 1e-12

    def test_mirror_symmetry(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(0.8, 0.0))
        t_s = barrier_time(st, params)
        for frac in (0.2, 0.5, 0.9):
            p_plus = boundary_point(st, params, frac * t_s, Branch.PLUS)
            p_minus = boundary_point(st, params, frac * t_s, Branch.MINUS)
            assert p_plus.x == pytest.approx(p_minus.x, abs=1e-12)
            assert p_plus.y == pytest.approx(-p_minus.y, abs=1e-12)

    def test_beyond_barrier_rejected(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        with pytest.raises(DomainError):
            boundary_point(st, params, barrier_time(st, params) + 0.05,
                           Branch.PLUS)

    def test_cusp_reach_times_coincide(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_u = cusp_time(st, params)
        for branch in (Branch.PLUS, Branch.MINUS):
            cusp = boundary_point(st, params, t_u, branch)
            exp = reach_times(cusp, st, params).expanded()
            assert max(exp) - min(exp) < 1e-6
            assert abs(exp[0] - t_u) < 1e-6


class TestClassify:
    def test_rest_player_everything_single(self, params):
        st = PlayerState(Vec2(0.5, -0.5), Vec2(0, 0))
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = Vec2(*rng.uniform(-2, 2, 2))
            if (p - st.pos).norm() < 1e-6:
                continue
            assert classify(p, st, params).kind is ReachKind.SINGLE

    def test_thrustless_rest_player_reaches_nothing_else(self):
        st = PlayerState(Vec2(0.5, -0.5), Vec2(0, 0))
        got = classify(Vec2(0.0, 0.0), st, PlayerParams(u_max=0.0, mu=1.0))
        assert (got.kind, got.times) == (ReachKind.UNREACHED, ())

    def test_barrier_point_is_second_arc(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_s = barrier_time(st, params)
        x_s = boundary_point(st, params, t_s, Branch.PLUS)
        got = classify(x_s, st, params)
        assert got.kind is ReachKind.BOUNDARY_II
        assert got.times[-1] == pytest.approx(t_s, abs=1e-6)

    def test_first_arc_and_cusp(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_u = cusp_time(st, params)
        p1 = boundary_point(st, params, 0.5 * t_u, Branch.MINUS)
        assert classify(p1, st, params).kind is ReachKind.BOUNDARY_I
        cusp = boundary_point(st, params, t_u, Branch.PLUS)
        assert classify(cusp, st, params).kind is ReachKind.CUSP

    def test_interior_is_triple_with_ordered_times(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        t_u = cusp_time(st, params)
        t_s = barrier_time(st, params)
        boundary = mrr_boundary(st, params)
        poly = boundary.polygon()
        cx, cy = poly[:, 0].mean(), poly[:, 1].mean()
        got = classify(Vec2(cx, cy), st, params)
        assert got.kind is ReachKind.TRIPLE
        t1, t2, t3 = got.times
        assert t1 < t2 < t3
        assert t1 <= t_u <= t3
        assert t2 <= t_s


class TestMrrBoundary:
    def test_empty_iff_at_rest(self, params):
        at_rest = mrr_boundary(PlayerState(Vec2(1, 2), Vec2(0, 0)), params)
        assert at_rest.empty
        moving = mrr_boundary(PlayerState(Vec2(1, 2), Vec2(0.4, 0)), params)
        assert not moving.empty

    def test_branch_endpoints(self, params):
        st = PlayerState(Vec2(0.3, -0.2), Vec2(0.6, 0.5))
        b = mrr_boundary(st, params)
        points_i = [Vec2(x, y) for x, y in b.branch_i[:, 1:].tolist()]
        points_ii = [Vec2(x, y) for x, y in b.branch_ii[:, 1:].tolist()]
        # first arc starts and ends at the cusps and passes the start position
        assert (points_i[0] - b.cusps[1]).norm() < 1e-9
        assert (points_i[-1] - b.cusps[0]).norm() < 1e-9
        mid_dists = min((p - st.pos).norm() for p in points_i)
        assert mid_dists < 1e-9
        # second arc runs cusp -> deepest point -> cusp
        assert (points_ii[0] - b.cusps[0]).norm() < 1e-9
        assert (points_ii[-1] - b.cusps[1]).norm() < 1e-9
        assert min((p - b.x_s).norm() for p in points_ii) < 1e-9
        assert all(0.0 <= t <= b.t_u + 1e-12 for t in b.branch_i[:, 0])
        assert all(b.t_u - 1e-12 <= t <= b.t_s + 1e-12 for t in b.branch_ii[:, 0])

    def test_polygon_interior_is_triple(self, params):
        rng = np.random.default_rng(33)
        st = PlayerState(Vec2(0, 0), Vec2(0.7, 0.4))
        poly = mrr_boundary(st, params).polygon()
        hits = 0
        for _ in range(200):
            p = Vec2(rng.uniform(poly[:, 0].min(), poly[:, 0].max()),
                     rng.uniform(poly[:, 1].min(), poly[:, 1].max()))
            if point_in_polygon((p.x, p.y), poly):
                hits += 1
                assert classify(p, st, params).kind is ReachKind.TRIPLE
        assert hits > 20


def segment_positions(state, params, segments, ts):
    out = []
    for t in ts:
        st = state
        left = t
        for dur, ctrl in segments:
            step = min(dur, left)
            if step <= 0:
                break
            st = propagate(st, params, ctrl, step)
            left -= step
        out.append(st.pos)
    return out


def scalar_boundary_xy(state, params, t, sign):
    """The MRR boundary point by the float formula, math functions only: the
    saturated run tangent to its own isochron at time t ends on it, at the
    run's heading (wrapped to [0, 2*pi)) from the isochron's center."""
    if t <= 0.0:
        return state.pos.x, state.pos.y
    vx, vy = state.vel.x, state.vel.y
    vnorm = math.hypot(vx, vy)
    b = (params.u_max / params.mu) * (math.exp(params.mu * t) - 1.0)
    m = math.sqrt(max(vnorm * vnorm - b * b, 0.0))
    hx, hy = vx / vnorm, vy / vnorm
    theta = math.fmod(math.atan2((-b * hy + sign * m * hx) / vnorm,
                                 (-b * hx + sign * m * -hy) / vnorm), 2 * math.pi)
    theta = theta + 2 * math.pi if theta < 0.0 else theta
    s = (1.0 - math.exp(-params.mu * t)) / params.mu
    r = (params.u_max / params.mu) * (t - s)
    return (state.pos.x + state.vel.x * s + r * math.cos(theta),
            state.pos.y + state.vel.y * s + r * math.sin(theta))


class TestBoundaryKernel:
    """The array kernel behind mrr_boundary and boundary_point equals the
    float formula bit for bit."""

    @pytest.fixture
    def players(self, special1):
        return {"special1 defender": (special1.defender, special1.defender_params),
                "low damping": (PlayerState(Vec2(0.3, -0.2), Vec2(0.3, 0.4)),
                                PlayerParams(1.0, 0.005)),
                "slow": (PlayerState(Vec2(-1.0, 0.5), Vec2(0.01, -0.02)),
                         PlayerParams(1.0, 1.0)),
                "fast": (PlayerState(Vec2(0.0, 0.0), Vec2(-1.9, 0.6)),
                         PlayerParams(2.0, 1.0))}

    def test_rows_equal_scalar_formula(self, players):
        for name, (st, par) in players.items():
            b = mrr_boundary(st, par)
            n = len(b.branch_i) // 2
            m = len(b.branch_ii) // 2
            halves = ((b.branch_i[:n], -1.0), (b.branch_i[n:], 1.0),
                      (b.branch_ii[:m], 1.0), (b.branch_ii[m:], -1.0))
            for rows, sign in halves:
                for t, x, y in rows.tolist():
                    assert (x, y) == scalar_boundary_xy(st, par, t, sign), name
            for branch in Branch:
                for t in (0.0, b.t_u, b.t_s):
                    p = boundary_point(st, par, t, branch)
                    assert (p.x, p.y) == scalar_boundary_xy(
                        st, par, t, float(branch.value)), name

    def test_domain_errors_kept(self, players):
        for st, par in players.values():
            t_s = barrier_time(st, par)
            with pytest.raises(DomainError, match="beyond the barrier"):
                boundary_point(st, par, t_s * 1.01, Branch.MINUS)
        rest = PlayerState(Vec2(0.5, 0.5), Vec2(0.0, 0.0))
        with pytest.raises(DomainError, match="at rest"):
            boundary_point(rest, PlayerParams(1.0, 1.0), 0.3, Branch.PLUS)
        assert boundary_point(rest, PlayerParams(1.0, 1.0), 0.0,
                              Branch.PLUS) == rest.pos


class TestUnreachableWindow:
    def test_no_control_hits_triple_point_in_the_gap(self, params):
        # the middle window (t2, t3) is closed to every admissible control
        rng = np.random.default_rng(34)
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        poly = mrr_boundary(st, params).polygon()
        delta = 1e-3
        tested = 0
        while tested < 12:
            p = Vec2(rng.uniform(poly[:, 0].min(), poly[:, 0].max()),
                     rng.uniform(poly[:, 1].min(), poly[:, 1].max()))
            got = classify(p, st, params)
            if got.kind is not ReachKind.TRIPLE:
                continue
            t2, t3 = got.times[1], got.times[2]
            if t3 - t2 < 3 * delta:
                continue
            tested += 1
            ts = np.linspace(t2 + delta, t3 - delta, 40)
            for _ in range(100):
                n_seg = rng.integers(1, 5)
                segs = [(rng.uniform(0.1, 1.5),
                         Control(rng.uniform(0, 1.0),
                                 rng.uniform(0, 2 * math.pi)))
                        for _ in range(n_seg)]
                segs[-1] = (1e9, segs[-1][1])  # pad the last piece
                for pos in segment_positions(st, params, segs, ts):
                    assert (pos - p).norm() > 1e-4

    def test_window_before_the_gap_is_reachable(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        poly = mrr_boundary(st, params).polygon()
        rng = np.random.default_rng(35)
        tested = 0
        while tested < 10:
            p = Vec2(rng.uniform(poly[:, 0].min(), poly[:, 0].max()),
                     rng.uniform(poly[:, 1].min(), poly[:, 1].max()))
            got = classify(p, st, params)
            if got.kind is not ReachKind.TRIPLE:
                continue
            tested += 1
            t1, t2 = got.times[0], got.times[1]
            for t in np.linspace(t1 + 1e-6, t2 - 1e-6, 7):
                ctrl = steer_to(st, params, p, float(t))
                landed = propagate(st, params, ctrl, float(t)).pos
                assert (landed - p).norm() < 1e-9


class TestMergeRule:
    """The array merge rule against the Python merge of tests/oracle.py, on
    seeded rows of expanded times whose gaps sit on the merge tolerance."""

    N = 20_000
    # gaps in units of 1 + t: a tangent root, well inside, just inside and
    # twice the tolerance; a fifth choice sets the times far apart
    GAPS = (0.0, 1e-9, 9.9e-9, 2e-8)

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(2024)
        rows, ts = np.full((self.N, 3), np.nan), np.empty(self.N)
        for i, row in enumerate(rows):
            # times on a grid of eighths, so that midpoints tie exactly
            times = [rng.integers(1, 25) / 8]
            for _ in range(rng.integers(0, 3)):
                k = rng.integers(len(self.GAPS) + 1)
                step = self.GAPS[k] * (1.0 + times[-1]) if k < len(self.GAPS) \
                    else rng.integers(1, 9) / 8
                times.append(times[-1] + step)
            row[:len(times)] = times
            merged = [t for t, _ in oracle.merge_roots((t, 1) for t in times)]
            pick = rng.integers(3)
            if pick == 0 and len(merged) > 1:
                j = rng.integers(len(merged) - 1)
                ts[i] = 0.5 * (merged[j] + merged[j + 1])  # equidistant
            elif pick == 1:
                ts[i] = rng.choice(merged) + rng.choice([0.0, -5e-9, 5e-9, 0.1])
            else:
                ts[i] = rng.uniform(0.0, 5.0)
        # x - 0 equals the tolerance CLASSIFY_TOL * (1 + x) exactly: each
        # comparison of the rule on its edge
        x = CLASSIFY_TOL
        while x != CLASSIFY_TOL * (1.0 + x):
            x = CLASSIFY_TOL * (1.0 + x)
        rows[:2] = [[0.0, x, np.nan], [0.0, 0.0, x]]
        return rows, ts, rng.choice([-1.0, 0.0, 1.0], self.N)

    def test_matched_index_equals_reference(self, cases):
        rows, ts, align = cases
        got = matched_index(rows, ts, align).tolist()
        ref = [oracle.matched_index(r, t, a)
               for r, t, a in zip(rows.tolist(), ts.tolist(), align.tolist())]
        assert got == ref
        assert set(ref) == {0, 1, 2, 3}

    def test_double_root_equals_reference(self, cases):
        rows = cases[0]
        got = (merge_times(rows)[1] >= 2).any(axis=1).tolist()
        ref = [any(m >= 2 for _, m in oracle.merge_roots(
            (t, 1) for t in r if not math.isnan(t))) for r in rows.tolist()]
        assert got == ref
        assert 0 < sum(ref) < len(ref)

    def test_classify_equals_reference(self, cases, monkeypatch):
        # classify on each row's RootSet: equal times form a tangent root
        sets = []
        for r in cases[0].tolist():
            times = [t for t in r if not math.isnan(t)]
            keys = list(dict.fromkeys(times))
            sets.append(RootSet(tuple(keys), tuple(times.count(t) for t in keys)))
        monkeypatch.setattr(mrr, "reach_times", lambda i, state, params: sets[i])
        corner = 0
        for i, roots in enumerate(sets):
            got = mrr.classify(i, None, None)
            ref = oracle.merge_roots(zip(roots.times, roots.multiplicities))
            assert got.kind.name == oracle.reach_kind(ref)
            if got.times != tuple(t for t, _ in ref):
                # a simple root merged into a later tangent root: the array
                # rule merges the tangent root's two copies one by one
                assert roots.multiplicities[:2] == (1, 2) and len(ref) == 1
                t = ref[0][0]
                assert abs(got.times[0] - t) <= CLASSIFY_TOL * (1.0 + t) / 2
                corner += 1
        assert corner > 0
