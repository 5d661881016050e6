import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from reachavoid import (Control, InfeasibleTargetError, PlayerParams,
                        PlayerState, R3Condition, RegionLabel, Vec2,
                        boundary_minima, capture_boundary, classify_point,
                        propagate, r3_certificates, reach_times, region_map,
                        steer_to, tangency_windows)
from reachavoid.dominance import (ANNOTATE_SAMPLES, RUN_CHUNK, SAFETY_SAMPLES,
                                  _active_intervals, _annotate_segment,
                                  _dip_candidates, _l_point,
                                  arrival_alignment,
                                  clearance_at, intersection_points,
                                  matched_index, run_times, straight_runs)
from reachavoid.geometry import point_in_polygon

from conftest import make_cfg, random_player
from golden import record


class TestIsochronIntersections:
    """The intersection pair of the two isochrones, as intersection_points
    sweeps it."""

    def test_zero_time_no_points(self, case3):
        _, _, valid = intersection_points(case3, np.array([0.0]))
        assert not valid[0]

    def test_tangency_at_first_circumscribe(self, case3):
        out, _ = tangency_windows(case3)
        plus, minus, valid = intersection_points(case3, np.array([out.first]))
        assert valid[0]
        assert np.hypot(*(plus[0] - minus[0])) < 1e-5

    def test_apollonius_ratio_along_the_window(self, case3):
        out, inn = tangency_windows(case3)
        xa, xd = case3.attacker.pos, case3.defender.pos
        ts = np.linspace(out.first * 1.001, inn.first * 0.999, 17)
        plus, minus, valid = intersection_points(case3, ts)
        assert valid.all()
        for pts in (plus, minus):
            ratio = (np.hypot(pts[:, 0] - xa.x, pts[:, 1] - xa.y)
                     / np.hypot(pts[:, 0] - xd.x, pts[:, 1] - xd.y))
            assert np.abs(ratio - 0.5).max() < 1e-9


class TestIntersectionPoint:
    """The scalar L point of the replanning step against the array sweep."""

    def test_equals_the_array_rows(self, case2, special1, overtake):
        rng = np.random.default_rng(61)
        cfgs = [case2, special1, overtake]
        for _ in range(6):
            a, d = random_player(rng, 1.0, 1.0), random_player(rng, 1.0, 2.0)
            cfgs.append(make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                                 (d.pos.x, d.pos.y), (d.vel.x, d.vel.y)))
        for cfg in cfgs:
            out, inn = tangency_windows(cfg)
            # the tangency ends, times inside and outside the window, t = 0
            ends = np.array([*out.times, *inn.times])
            ts = np.concatenate([ends, np.nextafter(ends, np.inf),
                                 np.nextafter(ends, 0.0), [0.0],
                                 rng.uniform(0.0, 1.5 * inn.first, 64)])
            plus, minus, valid = intersection_points(cfg, ts)
            assert 0 < valid.sum() < len(ts)
            for side, rows in ((1.0, plus), (-1.0, minus)):
                point = _l_point(cfg, side)
                for i, t in enumerate(ts):
                    for time in (t, float(t)):
                        x, y, ok, _ = point(time)
                        assert (x, y) == (rows[i, 0], rows[i, 1])
                        assert ok == valid[i]


    def test_slope_has_the_sign_of_the_payoffs_derivative(self, case1, special1,
                                                          overtake):
        rng = np.random.default_rng(63)
        checked = 0
        for cfg in (case1, special1, overtake):
            _, _, intervals = _active_intervals(cfg)
            for a, b in intervals:
                for side in (1.0, -1.0):
                    point = _l_point(cfg, side)

                    def payoff(t):
                        x, y, _, _ = point(t)
                        return math.hypot(x - cfg.target.x, y - cfg.target.y)
                    for t in rng.uniform(a, b, 40).tolist():
                        # a central difference, where it is far above rounding
                        diff = payoff(t + 1e-7) - payoff(t - 1e-7)
                        if abs(diff) > 1e-11:
                            assert math.copysign(1.0, point(t)[3]) == math.copysign(1.0, diff)
                            checked += 1
        assert checked > 200

    def test_dip_candidates_equal_the_sample_loop(self):
        def loop(dist, valid):
            # the per-sample rule that the masks replaced
            out = []
            for i in range(len(dist)):
                if not valid[i]:
                    continue
                left = dist[i - 1] if i > 0 else np.inf
                right = dist[i + 1] if i < len(dist) - 1 else np.inf
                interior_min = dist[i] <= left and dist[i] <= right
                if interior_min or i == 0 or i == len(dist) - 1:
                    out.append(i)
            return out

        rng = np.random.default_rng(62)
        for n in [1, 2, 3] * 20 + [8, 17, 512] * 40:
            # small integers: ties between neighbours are common
            valid = rng.random(n) < 0.8
            dist = np.where(valid, rng.integers(0, 4, n).astype(float), np.inf)
            assert _dip_candidates(dist, valid).tolist() == loop(dist, valid)


class TestCaptureBoundary:
    def test_at_rest_closes_into_apollonius_circle(self, case3):
        # center and radius from the closed-form at-rest construction
        cb = capture_boundary(case3)
        assert len(cb.segments) == 1
        pts = cb.segments[0].points
        cx = (-0.6 - 0.25 * -0.8) / 0.75
        cy = (0.1 - 0.25 * -0.2) / 0.75
        r = 0.5 / 0.75 * math.hypot(0.2, 0.3)
        assert cx == pytest.approx(-0.5333333333333333)
        assert r == pytest.approx(0.24037008503093268)
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        assert np.abs(d - r).max() < 1e-9

    def test_mirror_symmetric_inputs_give_mirrored_boundary(self):
        cfg = make_cfg((0.9, 0.3), (0.0, 0.4), (1.3, -0.2), (-0.6, 0.5))
        mir = make_cfg((0.9, -0.3), (0.0, -0.4), (1.3, 0.2), (-0.6, -0.5))
        a = capture_boundary(cfg, samples=256)
        b = capture_boundary(mir, samples=256)
        pa = np.vstack([s.points for s in a.segments])
        pb = np.vstack([s.points for s in b.segments])
        pa_sorted = pa[np.lexsort((pa[:, 1], pa[:, 0]))]
        pb_flip = pb * np.array([1.0, -1.0])
        pb_sorted = pb_flip[np.lexsort((pb_flip[:, 1], pb_flip[:, 0]))]
        assert np.abs(pa_sorted - pb_sorted).max() < 1e-9

    def test_overtake_instance_has_disjoint_segments(self, overtake):
        cb = capture_boundary(overtake)
        assert len(cb.segments) == 2
        out, _ = tangency_windows(overtake)
        assert len(out) == 3

    def test_every_vertex_is_a_simultaneous_reach_point(self, case2):
        cb = capture_boundary(case2, samples=64)
        seg = cb.segments[0]
        step = max(1, len(seg) // 12)
        for i in range(1, len(seg) - 1, step):
            p = Vec2(float(seg.points[i, 0]), float(seg.points[i, 1]))
            t = float(seg.params[i])
            ta = reach_times(p, case2.attacker, case2.attacker_params)
            td = reach_times(p, case2.defender, case2.defender_params)
            assert min(abs(r - t) for r in ta.expanded()) < 1e-7
            assert min(abs(r - t) for r in td.expanded()) < 1e-7


class TestOrderFlip:
    def test_reach_time_order_differs_across_the_boundary(self, case2):
        # matched reach times swap order between the two sides of L
        seg = capture_boundary(case2, ANNOTATE_SAMPLES).segments[0]
        pairs = _annotate_segment(case2, seg)
        eps = 1e-4
        checked = 0
        for i in range(2, len(seg) - 2, max(1, len(seg) // 25)):
            t = float(seg.params[i])
            if min(t - seg.t_start, seg.t_end - t) < 1e-3:
                continue  # tangent vector degenerates at the segment tips
            p = seg.points[i]
            tang = seg.points[i + 1] - seg.points[i - 1]
            nrm = np.array([-tang[1], tang[0]])
            nn = np.hypot(*nrm)
            if nn < 1e-12:
                continue
            nrm = nrm / nn

            def side_diff(q) -> float:
                qv = Vec2(float(q[0]), float(q[1]))
                ta = reach_times(qv, case2.attacker, case2.attacker_params)
                td = reach_times(qv, case2.defender, case2.defender_params)
                t_a = min(ta.expanded(), key=lambda r: abs(r - t))
                t_d = min(td.expanded(), key=lambda r: abs(r - t))
                return t_a - t_d

            d_plus = side_diff(p + eps * nrm)
            d_minus = side_diff(p - eps * nrm)
            assert d_plus * d_minus < 0.0
            checked += 1
        assert checked >= 10


class TestMatchedIndex:
    def test_indices_along_annotated_boundary(self, special1):
        cb = capture_boundary(special1, ANNOTATE_SAMPLES)
        pairs = [_annotate_segment(special1, seg) for seg in cb.segments]
        ks = np.concatenate([p[:, 1] for p in pairs])
        js = np.concatenate([p[:, 0] for p in pairs])
        # the defender's middle-time piece exists in this geometry
        assert (ks == 2).sum() > 50
        assert set(np.unique(js)).issubset({0, 1, 2, 3})

    def test_alignment_disambiguates_double_roots(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        x_s = Vec2(0.3068528194400547, 0.0)
        times = reach_times(x_s, st, params).expanded()
        t_pair = math.log(2.0)
        s = arrival_alignment(st, params, x_s, t_pair)
        idx = matched_index(times, t_pair, s)
        assert idx in (2, 3)


class TestClassifyPoint:
    def test_attacker_start_is_first_region(self, case3):
        assert classify_point(case3, case3.attacker.pos) is RegionLabel.R_I

    def test_defender_start_is_defender_dominated(self, case3):
        assert classify_point(case3, case3.defender.pos) \
            is RegionLabel.DEFENDER_DOMINATED

    def test_just_outside_circle_toward_target(self, case3):
        cx, cy, r = -0.5333333333333333, 0.2, 0.24037008503093268
        n = math.hypot(cx, cy)
        p = Vec2(cx - (r + 0.01) * cx / n, cy - (r + 0.01) * cy / n)
        assert classify_point(case3, p) is RegionLabel.DEFENDER_DOMINATED

    def test_inside_circle_is_attacker_dominated(self, case3):
        cx, cy = -0.5333333333333333, 0.2
        lab = classify_point(case3, Vec2(cx, cy))
        assert lab in (RegionLabel.R_I, RegionLabel.R_II)


class TestR3Certificates:
    def test_fully_at_rest_game_has_none(self, case3):
        assert r3_certificates(case3) == ()

    def test_pocket_behind_defender_region(self, special1):
        comps = r3_certificates(special1)
        assert len(comps) >= 1
        assert any(c.condition is R3Condition.POCKET_BEHIND_MRR for c in comps)

    def test_overtake_produces_tangency_loop(self, overtake):
        comps = r3_certificates(overtake)
        assert any(c.condition is R3Condition.LOOP_BETWEEN_TANGENCIES
                   for c in comps)

    def test_components_shrink_with_weaker_attacker(self, special1):
        weaker = make_cfg((-0.3457, 0.0517), (0.0862, 0.0338),
                          (-0.6728, -0.0455), (1.6534, 0.0907), u_a=0.9)
        area = sum(c.area() for c in r3_certificates(special1))
        area_weak = sum(c.area() for c in r3_certificates(weaker))
        assert 0.0 < area_weak < area

    def test_interior_points_classify_r3(self, special1):
        comps = r3_certificates(special1)
        poly = comps[0].polygon
        cx, cy = poly[:, 0].mean(), poly[:, 1].mean()
        rng = np.random.default_rng(41)
        hits = 0
        for _ in range(60):
            q = np.array([cx, cy]) + rng.uniform(-0.05, 0.05, 2)
            if not point_in_polygon(q, poly):
                continue
            lab = classify_point(special1, Vec2(float(q[0]), float(q[1])))
            if lab is RegionLabel.R_III:
                hits += 1
            else:
                assert lab in (RegionLabel.BOUNDARY_MRR, RegionLabel.BOUNDARY_L,
                               RegionLabel.R_III)
        assert hits > 10


class TestRegionMap:
    def test_far_window_is_defender_dominated(self, case2):
        xs, ys, labels = region_map(case2, (30.0, 31.0, 30.0, 31.0), (4, 4))
        assert all(l is RegionLabel.DEFENDER_DOMINATED
                   for row in labels for l in row)

    def test_apollonius_disc_matches_membership(self, case3):
        cx, cy, r = -0.5333333333333333, 0.2, 0.24037008503093268
        xs, ys, labels = region_map(
            case3, (cx - 1.6 * r, cx + 1.6 * r, cy - 1.6 * r, cy + 1.6 * r),
            (21, 21))
        cell = (xs[1] - xs[0]) * math.sqrt(2.0)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                dist = math.hypot(x - cx, y - cy)
                if abs(dist - r) < cell:
                    continue  # within one cell of the circle either way
                adr = labels[j][i] in (RegionLabel.R_I, RegionLabel.R_II)
                assert adr == (dist < r)

    def test_coarse_grid_subsamples_fine_grid(self, case3):
        window = (-1.0, 0.1, -0.6, 0.7)
        xs1, ys1, lab1 = region_map(case3, window, (7, 7))
        xs2, ys2, lab2 = region_map(case3, window, (13, 13))
        for j in range(7):
            for i in range(7):
                assert lab1[j][i] is lab2[2 * j][2 * i]

    def test_labels_equal_per_point_classification(self, special1):
        # region_map labels from batch reach times; classify_point from
        # scalar ones.  The seeded game's window has the attacker's own
        # position as a corner node, which takes the t = 0 reach branch.
        rng = np.random.default_rng(34)
        a = random_player(rng, 1.0, 1.0, box=1.0)
        d = random_player(rng, 1.0, 1.5, box=1.0, min_speed=0.3)
        mover = make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                         (d.pos.x, d.pos.y), (d.vel.x, d.vel.y), u_d=1.5)

        def toward(start: float, end: float) -> tuple[float, float]:
            return (start, start + 2.0) if end >= start else (start - 2.0, start)

        grids = ((special1, (-0.75, 0.1, -0.35, 0.35)),
                 (mover, (*toward(a.pos.x, d.pos.x), *toward(a.pos.y, d.pos.y))))
        for cfg, window in grids:
            xs, ys, labels = region_map(cfg, window, (20, 20))
            assert labels == [[classify_point(cfg, Vec2(float(x), float(y)))
                               for x in xs] for y in ys]
            assert len({lab for row in labels for lab in row}) >= 2
        assert labels[0 if d.pos.y >= a.pos.y else -1][
            0 if d.pos.x >= a.pos.x else -1] is RegionLabel.R_I

    def test_r_one_soundness(self, case2):
        # independent finer-grained clearance check of sampled R_I labels
        from reachavoid.dominance import clearance_at
        from reachavoid import steer_to
        xs, ys, labels = region_map(case2, (0.2, 1.4, -1.0, 0.4), (12, 12))
        found = 0
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                if labels[j][i] is not RegionLabel.R_I:
                    continue
                p = Vec2(float(x), float(y))
                roots = reach_times(p, case2.attacker, case2.attacker_params)
                ok = False
                for t_a in roots.expanded():
                    if t_a <= 0.0:
                        ok = True
                        break
                    ctrl = steer_to(case2.attacker, case2.attacker_params, p, t_a)
                    ts = np.linspace(t_a / 500, t_a, 500)
                    if clearance_at(case2, ctrl, ts).min() > 0.0:
                        ok = True
                        break
                assert ok
                found += 1
        assert found > 0


class TestStraightRuns:
    @staticmethod
    def runs(cfg, rng, n):
        """n seeded (point, time) runs: mostly reachable points of the
        attacker, and every tenth one out of its reach."""
        points, times = [], []
        for i in range(n):
            t = float(rng.uniform(0.02, 2.5))
            ctrl = Control(float(rng.uniform(0.0, 1.0)) * cfg.attacker_params.u_max,
                           float(rng.uniform(0.0, 2.0 * math.pi)))
            p = propagate(cfg.attacker, cfg.attacker_params, ctrl, t).pos
            if i % 10 == 9:
                p = p + Vec2(5.0, 0.0)
            points.append((p.x, p.y))
            times.append(t)
        return points, times

    def test_equal_one_run_calls_and_dense_reference(self, special1, case2):
        rng = np.random.default_rng(52)
        for cfg in (special1, case2):
            points, times = self.runs(cfg, rng, 2 * RUN_CHUNK + 60)
            ctrls, clearance = straight_runs(cfg, points, times)
            safe = clearance > 0.0
            assert 0 < safe.sum() < len(safe)
            for i, ((x, y), t) in enumerate(zip(points, times)):
                one_ctrl, one = straight_runs(cfg, [(x, y)], [t])
                assert one_ctrl[0] == ctrls[i]
                assert one[0] == clearance[i]
                if ctrls[i] is None:
                    assert clearance[i] == -np.inf
                    with pytest.raises(InfeasibleTargetError):
                        steer_to(cfg.attacker, cfg.attacker_params, Vec2(x, y), t)
                    continue
                assert ctrls[i] == steer_to(cfg.attacker, cfg.attacker_params,
                                            Vec2(x, y), t)
                ts = np.linspace(t / SAFETY_SAMPLES, t, SAFETY_SAMPLES)
                reference = float(clearance_at(cfg, ctrls[i], ts).min())
                assert clearance[i] == reference
                assert safe[i] == (reference > 0.0)

    def test_time_grid_is_linspace(self):
        rng = np.random.default_rng(53)
        t_end = np.concatenate([rng.uniform(1e-6, 10.0, 300), [1e-300, 1.0, 3.7]])
        grid = run_times(t_end)
        for t, row in zip(t_end, grid):
            assert np.array_equal(row, np.linspace(t / SAFETY_SAMPLES, t,
                                                   SAFETY_SAMPLES))


class TestGoldenLabels:
    """Labels recorded with the scalar per-cell rule that the array labeller
    replaced (tests/golden/record.py), compared exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((record.GOLDEN / "labels.json").read_text())

    @pytest.fixture(scope="class")
    def current(self):
        return record.label_snapshot()

    @pytest.mark.parametrize("key", ["maps", "vertices",
                                     "special1_defender_mrr_sha256",
                                     "special1_pair_indices"])
    def test_matches_golden(self, golden, current, key):
        assert current[key] == golden[key]

    def test_every_label_occurs(self, golden):
        text = "".join("".join(rows) for rows in golden["maps"].values())
        text += "".join(golden["vertices"].values())
        assert set(text) == set(record.LABEL_CODE.values())


def test_boundary_minima_match_golden():
    """Recorded by tests/golden/record.py, compared exactly."""
    golden = json.loads((record.GOLDEN / "minima.json").read_text())
    assert record.minima_snapshot() == golden


# digits of the dip oracle, its window around each reported dip, and the
# dips it checks on the configurations of minima.json
ORACLE_DIGITS = 40
ORACLE_WINDOW = Decimal("1e-4")
ORACLE_DIPS = 26


def _oracle_l_point(cfg, side: float, t: Decimal) -> tuple[Decimal, Decimal]:
    """Distance to the target of the L point at time t, and the squared
    offset h^2 of the intersection pair (positive where the isochrones
    cross), in Decimal from the raw positions, velocities, u_max and mu."""
    mu = Decimal(cfg.mu)
    e = (-mu * t).exp()
    s = (1 - e) / mu
    (ax, ay, ra), (dx, dy, rd) = [
        (Decimal(st.pos.x) + Decimal(st.vel.x) * s,
         Decimal(st.pos.y) + Decimal(st.vel.y) * s,
         Decimal(par.u_max) / mu * (t - s))
        for st, par in ((cfg.attacker, cfg.attacker_params),
                        (cfg.defender, cfg.defender_params))]
    ux, uy = dx - ax, dy - ay
    d = (ux * ux + uy * uy).sqrt()
    a = (d * d + ra * ra - rd * rd) / (2 * d)
    h2 = ra * ra - a * a
    h = Decimal(side) * max(h2, Decimal(0)).sqrt()
    x, y = ax + (a * ux - h * uy) / d, ay + (a * uy + h * ux) / d
    tx, ty = Decimal(cfg.target.x), Decimal(cfg.target.y)
    return ((x - tx) ** 2 + (y - ty) ** 2).sqrt(), h2


def _oracle_dip(f, lo: Decimal, hi: Decimal) -> Decimal:
    """Golden-section minimum of f on [lo, hi], to 1e-30."""
    inv = (Decimal(5).sqrt() - 1) / 2
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > Decimal("1e-30"):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2


def test_boundary_minima_match_a_40_digit_oracle():
    """Each reported dip whose +-1e-4 window lies on L (h^2 > 0 at both ends)
    and holds a minimum of the payoff inside it (the window's ends are
    farther than the dip) is the oracle's minimum there: within 1e-9 in time
    and 1e-12 in payoff.  The other candidates are tangency ends and sample
    cells where the payoff does not turn."""
    checked = 0
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        for name, cfg in record.minima_configs().items():
            for m in boundary_minima(cfg):
                def f(t):
                    return _oracle_l_point(cfg, m.side, t)[0]
                t = Decimal(m.t)
                ends = [_oracle_l_point(cfg, m.side, t + k * ORACLE_WINDOW)
                        for k in (-1, 1)]
                if not all(h2 > 0 and dist > f(t) for dist, h2 in ends):
                    continue
                t_star = _oracle_dip(f, t - ORACLE_WINDOW, t + ORACLE_WINDOW)
                assert abs(float(t_star) - m.t) <= 1e-9, name
                assert abs(float(f(t_star)) - m.payoff) <= 1e-12, name
                checked += 1
    assert checked == ORACLE_DIPS
