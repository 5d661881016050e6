import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from reachavoid import (Branch, Control, DomainError, PlayerParams, PlayerState,
                        RootSet, ScribeBatch, ScribeMode, ScribeProblem, Vec2,
                        boundary_point, classify, cusp_time, find_zero,
                        first_zero, gap, propagate, reach_times,
                        reach_times_many, run, scribe_times, scribe_times_batch)
from reachavoid import scribe
from reachavoid.scenario_io import load
from reachavoid.scribe import ROOT_TOL, gap_d1, gap_d2, reach_times_players, zeros_found

from conftest import random_player

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def colinear_problem(mode):
    return ScribeProblem(delta_x=Vec2(1.0, 0.0), delta_v=Vec2(0.0, 0.0),
                         mu=1.0, u_a=1.0, u_d=2.0, mode=mode)


def brute_roots(problem: ScribeProblem, dt: float = 1e-4) -> list[float]:
    """Independent oracle: dense sign scan of the gap on an independent cap.

    The scan interval ends where the tangency radius has provably outgrown any
    value the squared center distance can ever take, so no root is missed.
    """
    o_max = (problem.delta_x.norm() + problem.delta_v.norm() / problem.mu) ** 2
    coeff = problem.radius_coeff
    t_hi = math.sqrt((o_max + 1.0) / coeff) + 2.0 / problem.mu
    ts = np.arange(dt, t_hi, dt)
    vals = gap(problem, ts)
    sign = np.sign(vals)
    idx = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    roots = []
    for i in idx:
        lo, hi = float(ts[i]), float(ts[i + 1])
        f = lambda t: gap(problem, t)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return roots


def random_pairs(seed: int, count: int, min_separation: float) -> list[tuple]:
    """Seeded (dx, dv, mu, u_a, u_d) of two players below their speed caps,
    drawn as tests/test_acceptance.py draws criterion 5's problems."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        mu = rng.uniform(0.2, 3.0)
        u_a = rng.uniform(0.2, 1.5)
        u_d = u_a * rng.uniform(1.2, 2.5)
        dx = Vec2(*rng.uniform(-2, 2, 2))
        if dx.norm() < min_separation:
            continue
        sa = rng.uniform(0, 0.95) * u_a / mu
        sd = rng.uniform(0, 0.95) * u_d / mu
        aa, ad = rng.uniform(0, 2 * math.pi, 2)
        dv = Vec2(sa * math.cos(aa) - sd * math.cos(ad),
                  sa * math.sin(aa) - sd * math.sin(ad))
        pairs.append((dx, dv, mu, u_a, u_d))
    return pairs


def oracle_problems(count: int = 120) -> list[ScribeProblem]:
    """Seeded random problems, alternating inscribe and circumscribe."""
    return [ScribeProblem(*pair, ScribeMode.CIRCUMSCRIBE if i % 2 else ScribeMode.INSCRIBE)
            for i, pair in enumerate(random_pairs(23, count, 1e-3))]


class TestGap:
    def test_zero_time_equals_squared_separation(self):
        for mode in ScribeMode:
            p = ScribeProblem(Vec2(0.7, -2.1), Vec2(0.3, 0.4), 1.4, 0.9, 1.7, mode)
            assert gap(p, 0.0) == pytest.approx(0.7 ** 2 + 2.1 ** 2, abs=1e-14)

    def test_colinear_rest_value(self):
        # 1 - 9 exp(-2) at t = 1 for the external-tangency gap
        p = colinear_problem(ScribeMode.CIRCUMSCRIBE)
        assert gap(p, 1.0) == pytest.approx(1.0 - 9.0 * math.exp(-2.0), abs=1e-14)

    def test_mode_difference_is_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            kwargs = dict(delta_x=Vec2(*rng.uniform(-2, 2, 2)),
                          delta_v=Vec2(*rng.uniform(-1, 1, 2)),
                          mu=rng.uniform(0.3, 2.5),
                          u_a=rng.uniform(0.1, 1.5))
            kwargs["u_d"] = kwargs["u_a"] + rng.uniform(0.1, 1.5)
            t = rng.uniform(0, 4)
            g_in = gap(ScribeProblem(mode=ScribeMode.INSCRIBE, **kwargs), t)
            g_out = gap(ScribeProblem(mode=ScribeMode.CIRCUMSCRIBE, **kwargs), t)
            assert g_in - g_out >= -1e-12


class TestFindZero:
    def test_linear(self):
        assert find_zero(lambda t: t - 1.0, 0.0, 2.0, tol=1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_open_ended_transcendental(self):
        f = lambda t: t - 1.0 + math.exp(-t) - 1.0 / 3.0
        root = find_zero(f, 0.0, None, tol=1e-12, expand_start=1.0, expand_cap=50.0)
        assert root == pytest.approx(0.9444335213779, abs=1e-10)

    def test_no_sign_change_returns_none(self):
        assert find_zero(lambda t: 1.0 + t * t, 0.0, None,
                         expand_cap=100.0) is None

    def test_tolerance_below_the_float_spacing_ends_on_adjacent_floats(self):
        # the root near 99.4 has a float spacing of 1.4e-14 > tol
        f = lambda t: math.exp(t / 50.0) - 7.3
        root = find_zero(f, 0.0, 200.0, tol=1e-14)
        neighbours = (math.nextafter(root, -math.inf), math.nextafter(root, math.inf))
        assert any(f(root) * f(t) <= 0.0 for t in neighbours)

    def test_superlinear_on_acceptance_problems(self, monkeypatch):
        """Criterion 5's 1,000 solves take at most 12 evaluations per
        find_zero call on average; bisection took about 39."""
        calls = []

        def counted(f, *args, **kwargs):
            calls.append(0)

            def g(t):
                calls[-1] += 1
                return f(t)
            return find_zero(g, *args, **kwargs)

        monkeypatch.setattr(scribe, "find_zero", counted)
        for pair in random_pairs(105, 500, 1e-2):
            for mode in ScribeMode:
                scribe_times(ScribeProblem(*pair, mode))
        assert sum(calls) / len(calls) <= 12.0


class TestFirstZero:
    """first_zero on synthetic margins whose first zero is known."""

    def test_finds_a_dip_of_width_1e_9(self):
        # |f'| = 1; f <= 0 only on [c - 5e-10, c + 5e-10]
        c = 0.7123456789
        f = lambda t: min(1.0, abs(t - c) - 5e-10)
        tau = first_zero(f, 0.0, 2.0, 1.0)
        assert tau is not None and f(tau) <= 0.0
        assert c - 5e-10 <= tau <= c - 5e-10 + ROOT_TOL

    def test_returns_the_first_of_two_zeros(self):
        # zeros at 0.4 and 1.1; |f'| <= 2.5 on [0, 2]
        f = lambda t: (t - 0.4) * (t - 1.1)
        tau = first_zero(f, 0.0, 2.0, 2.5)
        assert f(tau) <= 0.0 and 0.4 <= tau <= 0.4 + ROOT_TOL

    def test_lands_within_root_tol_after_the_first_crossing(self):
        # cos(w t) + b first reaches zero at acos(-b) / w, and |f'| <= w
        rng = np.random.default_rng(41)
        for _ in range(50):
            w, b = rng.uniform(0.5, 40.0), rng.uniform(-0.99, 0.99)
            f = lambda t: math.cos(w * t) + b
            t_star = math.acos(-b) / w
            tau = first_zero(f, 0.0, t_star + rng.uniform(0.0, 5.0), w)
            assert f(tau) <= 0.0
            assert t_star - 1e-13 <= tau <= t_star + ROOT_TOL

    def test_a_positive_touch_is_no_zero(self):
        c = 0.3
        assert first_zero(lambda t: abs(t - c) + 1e-12, 0.0, 1.0, 1.0) is None

    def test_a_margin_clear_of_zero_costs_two_evaluations(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.0 + 0.5 * math.sin(t)

        # f(0) + f(1) > 1 * (1 - 0)
        assert first_zero(f, 0.0, 1.0, 1.0) is None
        assert calls == [0.0, 1.0]


class TestZerosFound:
    """zeros_found against first_zero row by row, and at the ends of its
    search."""

    @staticmethod
    def batch(fs, calls=None):
        """zeros_found's f(i, t) over the float functions fs, one per row;
        each call's (rows, times) go to `calls`."""
        def f(i, t):
            if calls is not None:
                calls.append((i.tolist(), t.tolist()))
            return np.array([fs[k](s) for k, s in zip(i.tolist(), t.tolist())])
        return f

    def test_equals_first_zero_on_every_row(self):
        # cos(w t) + c with |f'| <= w <= 40: no zero for c > 1, else one at
        # acos(-c) / w, inside or past b; a dip 1e-9 wide; a positive touch
        rng = np.random.default_rng(43)
        fs = [lambda t, c=0.7123456789: min(1.0, abs(t - c) - 5e-10),
              lambda t: abs(t - 0.3) + 1e-12]
        for _ in range(60):
            w, c = rng.uniform(0.5, 40.0), rng.uniform(0.5, 1.5)
            fs.append(lambda t, w=w, c=c: math.cos(w * t) + c)
        a = rng.uniform(0.0, 0.5, len(fs))
        b = a + rng.uniform(0.1, 3.0, len(fs))
        want = [first_zero(f, u, v, 40.0) is not None for f, u, v in zip(fs, a, b)]
        assert 10 < sum(want) < len(fs) - 10
        for rows in (np.arange(len(fs)), np.random.default_rng(44).permutation(len(fs))):
            found = zeros_found(self.batch([fs[k] for k in rows]), a[rows], b[rows], 40.0)
            assert found.tolist() == [want[k] for k in rows]

    def test_a_zero_at_a_is_found_without_a_pass(self):
        calls = []
        fs = [lambda t: -1.0, lambda t: t - 1.0, lambda t: 2.0 + 0.5 * math.sin(t)]
        found = zeros_found(self.batch(fs, calls), [0.0, 1.0, 0.0], [1.0, 2.0, 1.0], 1.0)
        assert found.tolist() == [True, True, False]
        # the ends decide all three rows: f(a) <= 0, or f(a) + f(b) > lip (b - a)
        assert calls == [([0, 1, 2, 0, 1, 2], [0.0, 1.0, 0.0, 1.0, 2.0, 1.0])]

    def test_a_zero_only_at_b_is_found(self):
        f = lambda t: 1.3 - t
        assert first_zero(f, 0.0, 1.3, 1.0) == 1.3
        assert zeros_found(self.batch([f, f]), [0.0, 0.0], [1.3, 1.2], 1.0).tolist() == \
            [True, False]

    def test_an_empty_batch(self):
        found = zeros_found(self.batch([]), [], [], 1.0)
        assert found.dtype == bool and found.shape == (0,)


class TestScribeTimes:
    def test_colinear_rest_circumscribe(self):
        # solves t - 1 + exp(-t) = 1/3; frozen from scan-plus-bisection oracle
        roots = scribe_times(colinear_problem(ScribeMode.CIRCUMSCRIBE))
        assert len(roots) == 1
        assert roots.first == pytest.approx(0.9444335213779, abs=1e-8)

    def test_colinear_rest_inscribe(self):
        # solves t - 1 + exp(-t) = 1
        roots = scribe_times(colinear_problem(ScribeMode.INSCRIBE))
        assert len(roots) == 1
        assert roots.first == pytest.approx(1.8414056604370, abs=1e-8)

    def test_special_case_one_counts_match_scan(self, special1):
        for mode in ScribeMode:
            p = special1.scribe_problem(mode)
            mine = scribe_times(p)
            ref = brute_roots(p)
            assert len(mine.expanded()) == len(ref)
            for a, b in zip(mine.times, ref):
                assert a == pytest.approx(b, abs=1e-3)

    def test_overtake_has_three_external_tangencies(self, overtake):
        p = overtake.scribe_problem(ScribeMode.CIRCUMSCRIBE)
        mine = scribe_times(p)
        ref = brute_roots(p, dt=1e-5)
        assert len(mine) == 3
        assert len(ref) == 3
        for a, b in zip(mine.times, ref):
            assert a == pytest.approx(b, abs=1e-3)

    def test_oracle_equivalence_randomized(self):
        for p in oracle_problems():
            mine = scribe_times(p)
            ref = brute_roots(p)
            assert 1 <= len(mine) <= 3
            assert len(mine.expanded()) >= len(ref)
            simple = [t for t, m in zip(mine.times, mine.multiplicities) if m == 1]
            assert len(simple) == len(ref)
            for a, b in zip(simple, ref):
                assert a == pytest.approx(b, abs=1e-3)

    def test_first_circumscribe_precedes_first_inscribe(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            mu = rng.uniform(0.2, 3.0)
            u_a = rng.uniform(0.2, 1.5)
            u_d = u_a * rng.uniform(1.2, 2.5)
            dx = Vec2(*rng.uniform(-2, 2, 2))
            if dx.norm() < 1e-3:
                continue
            dv = Vec2(*rng.uniform(-1, 1, 2))
            t_out = scribe_times(ScribeProblem(dx, dv, mu, u_a, u_d,
                                               ScribeMode.CIRCUMSCRIBE)).first
            t_in = scribe_times(ScribeProblem(dx, dv, mu, u_a, u_d,
                                              ScribeMode.INSCRIBE)).first
            assert t_out < t_in

    def test_sign_change_across_simple_roots(self, special1):
        p = special1.scribe_problem(ScribeMode.CIRCUMSCRIBE)
        roots = scribe_times(p)
        for t, m in zip(roots.times, roots.multiplicities):
            if m == 1:
                assert gap(p, t - 1e-6) * gap(p, t + 1e-6) < 0


class TestReachTimes:
    def test_own_position_at_rest(self, params):
        st = PlayerState(Vec2(0.4, 0.2), Vec2(0.0, 0.0))
        roots = reach_times(Vec2(0.4, 0.2), st, params)
        assert roots.times == (0.0,)

    def test_thrustless_player_at_rest_reaches_only_its_position(self):
        """No thrust and no drift: the gap is constant, so no time reaches
        another point; the batch leaves those rows nan."""
        st, par = PlayerState(Vec2(1.0, 0.5), Vec2(0.0, 0.0)), PlayerParams(0.0, 1.0)
        empty = reach_times(Vec2(0.0, 0.0), st, par)
        assert (empty.times, empty.first) == ((), math.inf)
        assert reach_times(st.pos, st, par).times == (0.0,)
        rows = reach_times_many([(0.0, 0.0), (1.0, 0.5), (-3.0, 2.0)], st, par)
        assert np.array_equal(rows, [[np.nan] * 3, [0.0, np.nan, np.nan], [np.nan] * 3],
                              equal_nan=True)

    def test_thrustless_moving_player_is_a_domain_error(self):
        """No thrust but a drift: the gap |dx + dv s|^2 touches zero at t = ln 3
        on the drift path and never changes sign, so the scalar and the batch
        path name the thrustless drift before any solve; the player's own
        position is still reached at 0."""
        st, par = PlayerState(Vec2(1.0, 0.5), Vec2(0.3, 0.0)), PlayerParams(0.0, 1.0)
        for solve in (lambda: reach_times(Vec2(1.2, 0.5), st, par),
                      lambda: reach_times_many([(1.2, 0.5)], st, par),
                      lambda: classify(Vec2(1.2, 0.5), st, par)):
            with pytest.raises(DomainError, match="thrustless drift"):
                solve()
        assert reach_times(st.pos, st, par).times == (0.0,)
        assert np.array_equal(reach_times_many([(1.0, 0.5)], st, par),
                              [[0.0, np.nan, np.nan]], equal_nan=True)

    def test_own_position_moving_player_swings_back(self, params):
        st = PlayerState(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        roots = reach_times(Vec2(0.0, 0.0), st, params)
        assert roots.times[0] == 0.0
        # revisiting time solves |v| s(t) = (u/mu)(t - s(t))
        f = lambda t: (1 - math.exp(-t)) - (t - 1 + math.exp(-t))
        lo, hi = 0.5, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert roots.times[1] == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_rest_single_time_inverse_radius(self, params):
        roots = reach_times(Vec2(math.exp(-1.0), 0.0),
                            PlayerState(Vec2(0, 0), Vec2(0, 0)), params)
        assert len(roots) == 1
        assert roots.first == pytest.approx(1.0, abs=1e-9)

    def test_barrier_point_has_coincident_pair(self, params):
        # x_s sits where the last self-overlap dies: largest two times equal
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        roots = reach_times(Vec2(0.3068528194400547, 0.0), st, params)
        exp = roots.expanded()
        assert len(exp) == 3
        assert exp[1] == pytest.approx(math.log(2.0), abs=1e-6)
        assert exp[2] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_round_trip_consistency(self, params):
        rng = np.random.default_rng(25)
        for _ in range(100):
            st = random_player(rng, 1.0, 1.0)
            theta = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0.05, 4.0)
            landed = propagate(st, params, Control(1.0, theta), t).pos
            roots = reach_times(landed, st, params)
            assert min(abs(r - t) for r in roots.expanded()) < 1e-8


def batch_roots(problems) -> np.ndarray:
    return scribe_times_batch(ScribeBatch.of(problems))


def expanded_rows(roots: list[RootSet]) -> np.ndarray:
    """Scalar root sets in the batch form: expanded times padded with nan."""
    rows = np.full((len(roots), 3), np.nan)
    for row, r in zip(rows, roots):
        row[:len(r.expanded())] = r.expanded()
    return rows


def assert_rows_equal(batch: np.ndarray, roots: list[RootSet]):
    # exact float equality, nan padding included
    assert np.array_equal(batch, expanded_rows(roots), equal_nan=True)


def phantom(point: Vec2, st: PlayerState, params: PlayerParams) -> ScribeProblem:
    """The problem reach_times solves for `point` (a parked zero-thrust player)."""
    return ScribeProblem(point - st.pos, -st.vel, params.mu, 0.0, params.u_max)


# a case is a problem and the arguments of oracle.tangency_times for it

def phantom_case(point: Vec2, st: PlayerState, params: PlayerParams) -> tuple:
    parked = PlayerState(point, Vec2(0.0, 0.0))
    return (phantom(point, st, params),
            (parked, 0.0, st, params.u_max, params.mu, False))


def pair_case(cfg, mode: ScribeMode) -> tuple:
    return (cfg.scribe_problem(mode),
            (cfg.attacker, cfg.attacker_params.u_max, cfg.defender,
             cfg.defender_params.u_max, cfg.mu, mode is ScribeMode.INSCRIBE))


def tangent_and_cusp_cases(params, special1, overtake) -> list[tuple]:
    """Problems with tangent roots, three simple roots and boundary cusps."""
    mover = PlayerState(Vec2(0, 0), Vec2(1, 0))
    cases = [phantom_case(Vec2(0.3068528194400547, 0.0), mover, params),
             pair_case(overtake, ScribeMode.CIRCUMSCRIBE)]
    cases += [pair_case(special1, mode) for mode in ScribeMode]
    for st, par in ((mover, params),
                    (special1.defender, special1.defender_params)):
        cases.append(phantom_case(
            boundary_point(st, par, cusp_time(st, par), Branch.PLUS), st, par))
        # points on both branches of the region boundary are tangent roots
        cases += [phantom_case(boundary_point(st, par, t, branch), st, par)
                  for t in (0.1, 0.3, 0.5) for branch in Branch]
    return cases


def game_state_cases() -> list[tuple]:
    """Both tangency modes and both players' reach times of the target at
    the first, middle and last states of the five bundled games."""
    cases = []
    for name in ("case1", "case2", "case3", "special1", "special2"):
        sc = load(SCENARIOS / f"{name}.json").scenario
        rows = run(sc).rows
        for i in (0, len(rows) // 2, len(rows) - 1):
            cfg = replace(sc.cfg, attacker=rows[i].attacker, defender=rows[i].defender)
            cases += [pair_case(cfg, mode) for mode in ScribeMode]
            cases += [phantom_case(cfg.target, st, par)
                      for st, par in ((cfg.attacker, cfg.attacker_params),
                                      (cfg.defender, cfg.defender_params))]
    return cases


def test_tangency_and_reach_times_match_a_40_digit_oracle(params, special1, overtake):
    """The same count, a tangent root twice, and every time within ROOT_TOL
    of tests/oracle.py."""
    cases = game_state_cases() + tangent_and_cusp_cases(params, special1, overtake)
    assert len(cases) == 78
    for problem, args in cases:
        mine = scribe_times(problem).expanded()
        want = oracle.tangency_times(*args)
        assert len(mine) == len(want), args
        assert np.abs(np.subtract(mine, want)).max() <= ROOT_TOL, args


class TestBatch:
    """The batch solver equals the scalar one bit for bit (== on floats,
    nan padding == nan padding)."""

    def test_oracle_problems_in_both_modes(self):
        problems = [ScribeProblem(p.delta_x, p.delta_v, p.mu, p.u_a, p.u_d, mode)
                    for p in oracle_problems() for mode in ScribeMode]
        assert_rows_equal(batch_roots(problems), [scribe_times(p) for p in problems])

    def test_tangent_and_cusp_problems(self, params, special1, overtake):
        problems = [p for p, _ in tangent_and_cusp_cases(params, special1, overtake)]
        ref = [scribe_times(p) for p in problems]
        kinds = {r.multiplicities for r in ref}
        assert {(1, 2), (2, 1), (2,), (1, 1, 1)} <= kinds
        assert_rows_equal(batch_roots(problems), ref)

    def test_each_stage_of_the_case_split_is_one_loop(self, params, special1, overtake,
                                                      monkeypatch):
        """A batch in which each of the case split's seven root solves (the
        inflection, t_lo, t_hi, and the first, middle, last and single
        crossings) has rows makes three masked find_zero loops: gap'' for
        the inflection, gap' for t_lo and t_hi, gap for every crossing."""
        problems = [p for p, _ in tangent_and_cusp_cases(params, special1, overtake)]
        problems += oracle_problems()
        ref = [scribe_times(p) for p in problems]
        assert {(1,), (2,), (1, 2), (2, 1), (1, 1, 1)} <= {r.multiplicities for r in ref}
        loops = []
        many = scribe._find_zero_many
        monkeypatch.setattr(scribe, "_find_zero_many",
                            lambda f, *args: loops.append(f) or many(f, *args))
        assert_rows_equal(batch_roots(problems), ref)
        assert loops == [gap_d2, gap_d1, gap]

    def test_both_players_in_one_batch(self, special1, monkeypatch):
        """reach_times_players solves both players' phantom problems in one
        batch; each player's rows equal its one-player batch's and the
        scalar reach times."""
        rng = np.random.default_rng(33)
        players = [(special1.attacker, special1.attacker_params),
                   (special1.defender, special1.defender_params)]
        pts = np.concatenate([rng.uniform(-1.5, 1.5, (150, 2)),
                              [(st.pos.x, st.pos.y) for st, _ in players]])
        sizes = []
        solve = scribe.scribe_times_batch
        monkeypatch.setattr(scribe, "scribe_times_batch",
                            lambda batch: sizes.append(len(batch)) or solve(batch))
        both = reach_times_players(pts, players)
        # each player's own position takes reach_times' t = 0 branch instead
        assert sizes == [2 * len(pts) - 2]
        for rows, (st, par) in zip(both, players):
            assert np.array_equal(rows, reach_times_many(pts, st, par), equal_nan=True)
            assert_rows_equal(rows, [reach_times(Vec2(*p), st, par) for p in pts])

    def test_result_does_not_depend_on_the_batch(self):
        problems = oracle_problems(60)
        whole = batch_roots(problems)
        assert np.array_equal(batch_roots(problems[::-1]), whole[::-1], equal_nan=True)
        assert np.array_equal(batch_roots(problems[7:8]), whole[7:8], equal_nan=True)

    def test_float_gaps_equal_a_one_element_batch(self):
        # the solver's scalar evaluations, on floats, against the batch's
        rng = np.random.default_rng(27)
        for p in oracle_problems(40):
            one = ScribeBatch.of([p])
            roots = scribe_times(p).times
            # the bracket ends t0 and cap, the solved times and their
            # neighbours, and times in between
            ts = [1e-13 / p.mu, p.cap, *roots, *np.nextafter(roots, 0.0).tolist(),
                  *rng.uniform(0.0, 2.0 * max(roots), 8).tolist()]
            for f in (gap, gap_d1, gap_d2):
                for t in ts:
                    value = f(p, t)
                    assert type(value) is float
                    assert value == f(one, np.array([t]))[0]

    def test_reach_times_many_matches_reach_times(self, params):
        rng = np.random.default_rng(26)
        for st in (PlayerState(Vec2(0.4, -0.2), Vec2(0.0, 0.0)),
                   random_player(rng, 1.0, 1.0, min_speed=0.3)):
            pts = rng.uniform(-2.5, 2.5, (300, 2))
            pts[17] = (st.pos.x, st.pos.y)        # the t = 0 branch
            times = reach_times_many(pts, st, params)
            assert times.shape == (300, 3)
            ref = [reach_times(Vec2(*p), st, params) for p in pts]
            assert ref[17].times[0] == 0.0
            assert_rows_equal(times, ref)

    def test_array_caps_equal_float_calls(self):
        rng = np.random.default_rng(29)
        dist = np.concatenate([[0.0, 1e-14, 1e3], 10.0 ** rng.uniform(-15.0, 4.0, 10000),
                               rng.uniform(0.0, 1e3, 10000)])
        # rc = 0, and rc > 0 with the square root above CAP_FACTOR / mu or not
        for mu, rc, dv_norm in ((1.0, 0.0, 0.8), (0.37, 0.0, 0.0), (1.0, 1.0, 0.0),
                                (0.37, (2.0 / 0.37) ** 2, 0.8), (2.5, 1e-4, 3.1)):
            caps = scribe._bracket_cap(mu, rc, dist, dv_norm)
            ref = [scribe._bracket_cap(mu, rc, d, dv_norm) for d in dist.tolist()]
            assert all(type(c) is float for c in ref)
            assert np.array_equal(np.broadcast_to(caps, dist.shape), ref)

    def test_reach_times_many_caps_equal_scribe_problem(self, params, monkeypatch):
        batches = []
        solve = scribe.scribe_times_batch
        monkeypatch.setattr(scribe, "scribe_times_batch",
                            lambda batch: batches.append(batch) or solve(batch))
        rng = np.random.default_rng(31)
        st = random_player(rng, 1.0, 1.0, min_speed=0.3)
        pts = np.concatenate([rng.uniform(-2.5, 2.5, (200, 2)),
                              [[st.pos.x, st.pos.y], [st.pos.x + 1e-3, st.pos.y]]])
        scribe.reach_times_many(pts, st, params)
        # the player's own position (row 200) takes the t = 0 branch instead
        ref = [ScribeProblem(delta_x=Vec2(*p) - st.pos, delta_v=-st.vel, mu=params.mu,
                             u_a=0.0, u_d=params.u_max).cap
               for i, p in enumerate(pts.tolist()) if i != 200]
        assert len(batches) == 1
        assert np.array_equal(batches[0].cap, ref)


class TestRootSetValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RootSet((1.0, 2.0), (1,))

    def test_problem_requires_separation(self):
        with pytest.raises(ValueError):
            ScribeProblem(Vec2(0, 0), Vec2(1, 0), 1.0, 1.0, 2.0)
