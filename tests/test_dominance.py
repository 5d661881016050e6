import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from reachavoid import (Control, DomainError, InfeasibleTargetError,
                        PlayerParams, PlayerState, R3Condition, RegionLabel, Vec2,
                        boundary_minima, can_reach_target, capture_boundary,
                        classify_point, first_zero,
                        isochron, mrr_boundary, propagate, r3_certificates,
                        reach_times, reach_times_many, region_map, scenario_io,
                        steer_to, tangency_windows)
from reachavoid import dominance, scribe
from reachavoid.dominance import (ANNOTATE_SAMPLES, SPEED_SLACK, BoundarySegment,
                                  _active_intervals, _alignment,
                                  _annotate_segments,
                                  _dip_candidates, _l_point,
                                  arrival_alignment,
                                  clearance_at, intersection_points,
                                  matched_index, race,
                                  straight_runs)
from reachavoid.scribe import zeros_found
from reachavoid.dynamics import steer_controls
from reachavoid.geometry import point_in_polygon

from conftest import make_cfg, random_player
from golden import record


class TestIsochronIntersections:
    """The intersection pair of the two isochrones, as intersection_points
    sweeps it."""

    def test_zero_time_no_points(self, case3):
        _, valid = intersection_points(case3, np.array([0.0]))
        assert not valid[0]

    def test_tangency_at_first_circumscribe(self, case3):
        out, _ = tangency_windows(case3)
        (plus, minus), valid = intersection_points(case3, np.array([out.first]))
        assert valid[0]
        assert np.hypot(*(plus[0] - minus[0])) < 1e-5

    def test_apollonius_ratio_along_the_window(self, case3):
        out, inn = tangency_windows(case3)
        xa, xd = case3.attacker.pos, case3.defender.pos
        ts = np.linspace(out.first * 1.001, inn.first * 0.999, 17)
        (plus, minus), valid = intersection_points(case3, ts)
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
            # the tangency ends, times inside and outside the window, t = 0,
            # and boundary_minima's sample times
            ends = np.array([*out.times, *inn.times])
            ts = np.concatenate([ends, np.nextafter(ends, np.inf),
                                 np.nextafter(ends, 0.0), [0.0],
                                 rng.uniform(0.0, 1.5 * inn.first, 64),
                                 *(np.linspace(a, b, 512) for a, b in _active_intervals(cfg)[2])])
            (plus, minus), valid = intersection_points(cfg, ts)
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
            dists = np.where(valid, rng.integers(0, 4, (2, n)).astype(float), np.inf)
            # each row of a stacked pair as on its own
            for dist, keep in zip(dists, _dip_candidates(dists, valid)):
                assert np.flatnonzero(keep).tolist() == loop(dist, valid)
                assert np.array_equal(_dip_candidates(dist, valid), keep)


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
        ks = np.concatenate(_annotate_segments(special1, cb.segments))
        # the defender's middle-time piece exists in this geometry
        assert (ks == 2).sum() > 50
        assert set(np.unique(ks)).issubset({0, 1, 2, 3})

    def test_array_alignment_equals_float_calls(self, special1):
        # the defender's arrival alignment at L vertices and at random
        # targets and times, some of which steer_to rejects
        rng = np.random.default_rng(41)
        st, par = special1.defender, special1.defender_params
        seg = capture_boundary(special1, ANNOTATE_SAMPLES).segments[0]
        x, y = np.concatenate([seg.points, rng.uniform(-1.5, 1.5, (500, 2))]).T
        t = np.concatenate([seg.params, rng.uniform(1e-3, 3.0, 500)])
        u, theta, _ = steer_controls(st, par, x, y, t)
        align = _alignment(st, par, u, theta, t)
        # propagate's terminal velocity along the heading, on floats
        ref = []
        for xi, yi, ti in zip(x.tolist(), y.tolist(), t.tolist()):
            try:
                ctrl = steer_to(st, par, Vec2(xi, yi), ti)
            except InfeasibleTargetError:
                ref.append(None)
                continue
            ref.append(propagate(st, par, ctrl, ti).vel.dot(ctrl.heading()))
            assert arrival_alignment(st, par, Vec2(xi, yi), ti) == ref[-1]
        ok = np.array([a is not None for a in ref])
        assert len(seg) < ok.sum() < len(ok)
        assert align[ok].tolist() == [a for a in ref if a is not None]

    @pytest.mark.parametrize("game", ["special1", "case2", "seed37", "seed77"])
    def test_array_annotation_equals_per_vertex_rule(self, game, request):
        cfg = (record._seeded_game(int(game[4:]))[0] if game.startswith("seed")
               else request.getfixturevalue(game))
        st, par = cfg.defender, cfg.defender_params
        segments = list(capture_boundary(cfg, ANNOTATE_SAMPLES).segments)
        # extra vertices that steer_to rejects: a far point, and points of the
        # defender's MRR boundary 30% of the way from their first reach time
        # to their last, where the alignment picks a double root's slot
        ring = mrr_boundary(st, par).polygon()[::16]
        rows = reach_times_many(ring, st, par)[:, [0, 2]]
        three = ~np.isnan(rows[:, 1])
        pts = np.vstack([ring[three], [[40.0, -30.0]]])
        ts = np.append(rows[three] @ [0.7, 0.3], 1.0)
        segments.append(BoundarySegment(0.0, 0.0, pts, ts, np.ones(len(ts))))
        rejected = 0
        for (x, y), t in zip(pts.tolist(), ts.tolist()):
            try:
                steer_to(st, par, Vec2(x, y), t)
            except InfeasibleTargetError:
                rejected += 1
        assert rejected >= 2
        # all segments in one batch, the extra one included
        for seg, index in zip(segments, _annotate_segments(cfg, segments)):
            assert index.shape == (len(seg),)
            assert index.tolist() == record.vertex_indices(seg, st, par)

    def test_alignment_disambiguates_double_roots(self, params):
        st = PlayerState(Vec2(0, 0), Vec2(1, 0))
        x_s = Vec2(0.3068528194400547, 0.0)
        rows = reach_times_many(np.array([[x_s.x, x_s.y]]), st, params)
        t_pair = math.log(2.0)
        s = arrival_alignment(st, params, x_s, t_pair)
        idx = matched_index(rows, np.array([t_pair]), np.array([s]))
        assert idx.tolist() in ([2], [3])

    def test_negative_time_is_a_domain_error(self, special1):
        # steer_to reaches the start at any t <= 0 and rejects other points
        st, par = special1.defender, special1.defender_params
        for point in (st.pos, st.pos + Vec2(0.5, 0.0)):
            with pytest.raises(DomainError):
                arrival_alignment(st, par, point, -0.1)


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

    def test_one_batch_solve_and_three_loops_per_map(self, case2, monkeypatch):
        """Both players' reach times of the grid come from one batch solve,
        which makes one masked find_zero loop per stage of its case split."""
        sizes, loops = [], []
        solve, many = scribe.scribe_times_batch, scribe._find_zero_many
        monkeypatch.setattr(scribe, "scribe_times_batch",
                            lambda batch: sizes.append(len(batch)) or solve(batch))
        monkeypatch.setattr(scribe, "_find_zero_many",
                            lambda f, *args: loops.append(f) or many(f, *args))
        region_map(case2, (-2.0, 2.0, -1.5, 1.5), (20, 15))
        assert sizes == [2 * 20 * 15]
        assert len(loops) == 3

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
        attacker, every tenth one out of its reach, and every fifth one
        (i % 5 == 2) at the defender's isochron center at t, an end the
        defender's disc covers at arrival."""
        points, times = [], []
        for i in range(n):
            t = float(rng.uniform(0.02, 2.5))
            ctrl = Control(float(rng.uniform(0.0, 1.0)) * cfg.attacker_params.u_max,
                           float(rng.uniform(0.0, 2.0 * math.pi)))
            p = propagate(cfg.attacker, cfg.attacker_params, ctrl, t).pos
            if i % 10 == 9:
                p = p + Vec2(5.0, 0.0)
            elif i % 5 == 2:
                p = isochron(cfg.defender, cfg.defender_params, t).center
            points.append((p.x, p.y))
            times.append(t)
        return points, times

    def test_equal_one_run_calls_and_dense_reference(self, special1, case2):
        rng = np.random.default_rng(52)
        for cfg in (special1, case2):
            points, times = self.runs(cfg, rng, 188)
            safe = straight_runs(cfg, points, times)
            assert safe.dtype == bool and 0 < safe.sum() < len(safe)
            assert not safe[2::5].any()
            for i, ((x, y), t) in enumerate(zip(points, times)):
                assert straight_runs(cfg, [(x, y)], [t])[0] == safe[i]
                try:
                    ctrl = steer_to(cfg.attacker, cfg.attacker_params,
                                    Vec2(x, y), t)
                except InfeasibleTargetError:
                    assert not safe[i]
                    assert can_reach_target(replace(cfg, target=Vec2(x, y)), [t]) is None
                    continue
                dense = clearance_at(cfg, ctrl, np.linspace(0.0, t, 4001))
                assert safe[i] == (dense.min() > 0.0)
                assert can_reach_target(replace(cfg, target=Vec2(x, y)), [t]) == \
                    (ctrl if safe[i] else None)

    def test_a_covered_end_is_unsafe_without_a_pass(self, steer_controls_calls, special1):
        ts = [0.3, 1.0, 2.0]
        centers = [isochron(special1.defender, special1.defender_params, t).center
                   for t in ts]
        assert not straight_runs(special1, [(c.x, c.y) for c in centers], ts).any()
        assert not steer_controls_calls
        # a coasting run with an open end reaches the array pass
        c = isochron(special1.attacker, special1.attacker_params, 0.05).center
        assert straight_runs(special1, [(c.x, c.y)], [0.05])[0]
        assert len(steer_controls_calls) == 1

    def test_clearance_moves_no_faster_than_the_speed_bound(self):
        """The slope bound of straight_runs: on seeded states with |v_0|
        below and at the speed caps, a finite-difference scan of a run's
        clearance at step 1e-4 never exceeds (|v_A0| + |v_D0|) e^(-mu t) +
        (cap_A + cap_D) (1 - e^(-mu t)) at the larger end of the step, with
        SPEED_SLACK, which is at most cap_A + cap_D since |v_0| <= cap;
        head-on players at their caps attain cap_A + cap_D."""
        rng = np.random.default_rng(63)

        def player(cap, frac):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            return rng.uniform(-2.0, 2.0, 2), (frac * cap * math.cos(ang),
                                               frac * cap * math.sin(ang))

        cases = []
        for i in range(40):
            mu, u_a = rng.uniform(0.4, 2.5), rng.uniform(0.2, 1.0)
            u_d = u_a * rng.uniform(1.1, 2.5)
            frac = 1.0 if i % 2 else rng.uniform(0.0, 1.0)
            cfg = make_cfg(*player(u_a / mu, frac), *player(u_d / mu, frac),
                           u_a=u_a, u_d=u_d, mu=mu)
            ctrl = Control(u_a * (1.0 if i % 3 else rng.uniform()),
                           rng.uniform(0.0, 2.0 * math.pi))
            cases.append((cfg, ctrl, rng.uniform(0.5, 3.0)))
        # head on at the caps: the clearance falls at exactly cap_A + cap_D
        cases.append((make_cfg((-2.0, 0.0), (1.0, 0.0), (2.0, 0.0), (-2.0, 0.0)),
                      Control(1.0, 0.0), 0.5))
        worst = 0.0
        for cfg, ctrl, t in cases:
            ts = np.arange(0.0, t, 1e-4)
            slope = np.abs(np.diff(clearance_at(cfg, ctrl, ts))) / np.diff(ts)
            v0 = cfg.attacker.vel.norm() + cfg.defender.vel.norm()
            cap = cfg.attacker_params.speed_cap + cfg.defender_params.speed_cap
            decay = np.exp(-cfg.mu * ts)
            bound = (v0 * decay + cap * (1.0 - decay)) * (1.0 + SPEED_SLACK)
            ratio = slope / np.maximum(bound[:-1], bound[1:])
            assert ratio.max() <= 1.0
            worst = max(worst, ratio.max())
        assert worst > 0.999

    def test_float_clearance_equals_the_propagated_distance(self, case1, special1):
        # clearance_at on floats against propagate's position and isochron's disc (==)
        rng = np.random.default_rng(72)
        cfgs = [case1, special1]
        for _ in range(20):
            mu, u_d = rng.uniform(0.5, 2.0), rng.uniform(1.2, 3.0)
            a, d = random_player(rng, mu, 1.0), random_player(rng, mu, u_d)
            cfgs.append(make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                                 (d.pos.x, d.pos.y), (d.vel.x, d.vel.y), u_d=u_d, mu=mu))
        for cfg in cfgs:
            pa = cfg.attacker_params
            ctrl = Control(pa.u_max * rng.choice([0.0, rng.random(), 1.0]),
                           rng.uniform(0.0, 2.0 * math.pi))
            for t in [0.0, *rng.uniform(0.0, 3.0, 8).tolist()]:
                disc = isochron(cfg.defender, cfg.defender_params, t)
                pos = propagate(cfg.attacker, pa, ctrl, t).pos
                assert clearance_at(cfg, ctrl, t) == (pos - disc.center).norm() - disc.radius

    @pytest.fixture(scope="class")
    def special1_runs(self):
        """special1's configuration and the points and times of the runs its
        bundled map's labeller sends to straight_runs."""
        doc = scenario_io.load(record.SCENARIOS / "special1.json")
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dominance, "straight_runs",
                       lambda *args: calls.append(args[1:]) or straight_runs(*args))
            region_map(doc.scenario.cfg, doc.render.window, doc.render.resolution)
        return (doc.scenario.cfg, np.concatenate([p for p, _ in calls]),
                np.concatenate([t for _, t in calls]))

    def test_special1_map_takes_one_array_search(self, monkeypatch):
        """special1's bundled map decides its 1,882 runs in one zeros_found
        call of 18 passes and 41,104 clearance evaluations (README), and
        calls float first_zero nowhere."""
        floats, passes = [], []

        def counted(f, a, b, lip):
            passes.append([])
            return zeros_found(lambda i, t: passes[-1].append(len(t)) or f(i, t), a, b, lip)

        monkeypatch.setattr(dominance, "first_zero",
                            lambda *args: floats.append(args) or first_zero(*args))
        monkeypatch.setattr(dominance, "zeros_found", counted)
        doc = scenario_io.load(record.SCENARIOS / "special1.json")
        region_map(doc.scenario.cfg, doc.render.window, doc.render.resolution)
        assert not floats
        # the first pass evaluates both ends of each row
        assert [(p[0] // 2, len(p), sum(p)) for p in passes] == [(1882, 18, 41104)]

    def test_a_run_does_not_depend_on_its_batch(self, special1_runs):
        cfg, points, times = special1_runs
        safe = straight_runs(cfg, points, times)
        assert 0 < (~safe).sum() < len(safe)
        rng = np.random.default_rng(31)
        batches = [np.flatnonzero(~safe), rng.permutation(len(times))]
        batches += [rng.choice(len(times), k, replace=False) for k in (2, 3, 17, 600)]
        for rows in batches:
            assert (straight_runs(cfg, points[rows], times[rows]) == safe[rows]).all()

    def test_the_dip_run_is_found_among_special1s_runs(self, monkeypatch, special1_runs):
        """One zeros_found call over the DIP run and special1's runs, at
        special1's slope bound (3, above DIP's 1.81), finds the dip and
        keeps every other row's result."""
        cfg, points, times = special1_runs
        searches = []

        def recorded(*args):
            searches.append((args, zeros_found(*args)))
            return searches[-1][1]

        monkeypatch.setattr(dominance, "zeros_found", recorded)
        straight_runs(cfg, points, times)
        [((f, a, b, lip), found)] = searches
        dip, t = self.dip_cfg(), self.DIP["t"]
        ctrl = steer_to(dip.attacker, dip.attacker_params, dip.target, t)
        both = lambda i, s: np.where(i == 0, clearance_at(dip, ctrl, s),
                                     f(np.maximum(i - 1, 0), s))
        together = zeros_found(both, np.append(0.0, a), np.append(t, b), lip)
        assert together[0] and (together[1:] == found).all()

    # a step of a bench random game: the target run's clearance is positive
    # at the 200 samples t k / 200 (k = 1..200) but below zero for about
    # 6.7 ms around tau = 0.081, between two of them
    DIP = dict(a=((-0.23864803086220285, -1.4692519970963527),
                  (0.06682784590672214, 0.6401324248918498)),
               d=((-0.21454979856528927, -1.338034106919793),
                  (-0.24167423765287818, -1.027324896592106)),
               u_d=1.6423121942795893, mu=1.4615820748171648, t=2.215966016770028)

    def dip_cfg(self):
        k = self.DIP
        return make_cfg(*k["a"], *k["d"], u_d=k["u_d"], mu=k["mu"])

    def test_a_dip_between_samples_is_unsafe(self):
        cfg, t = self.dip_cfg(), self.DIP["t"]
        ctrl = steer_to(cfg.attacker, cfg.attacker_params, cfg.target, t)
        assert (clearance_at(cfg, ctrl, np.linspace(t / 200, t, 200)) > 0.0).all()
        assert clearance_at(cfg, ctrl, 0.081) < 0.0
        assert not straight_runs(cfg, [(0.0, 0.0)], [t])[0]
        assert not straight_runs(cfg, [(0.0, 0.0), (0.0, 0.0)], [t, t]).any()
        assert can_reach_target(cfg, [t]) is None

    def test_target_of_the_dip_state_is_r2(self):
        """The only winning run to the target dips into the defender's disc,
        so the target is R_II, as the game's target run finds it."""
        cfg = self.dip_cfg()
        assert race(cfg, cfg.target) == [self.DIP["t"]]
        assert classify_point(cfg, cfg.target) is RegionLabel.R_II


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

    def test_r1_cells_have_a_certified_run(self, current):
        """A won cell (R_I or R_II) of the maps is R_I exactly when it is the
        attacker's start or can_reach_target, with the cell as the target,
        accepts one of its winning arrival times: the labeller and the game's
        target run share one rule."""
        doc = scenario_io.load(record.SCENARIOS / "special1.json")
        games = {"special1": (doc.scenario.cfg, doc.render.window,
                              doc.render.resolution)}
        for seed in record.SEEDED:
            games[f"seed{seed}"] = (*record._seeded_game(seed), record.SEEDED_RESOLUTION)
        won = (record.LABEL_CODE[RegionLabel.R_I], record.LABEL_CODE[RegionLabel.R_II])
        for name, (cfg, (xmin, xmax, ymin, ymax), (nx, ny)) in games.items():
            xs, ys = np.linspace(xmin, xmax, nx), np.linspace(ymin, ymax, ny)
            cells = [(Vec2(float(xs[i]), float(ys[j])), code == won[0])
                     for j, row in enumerate(current["maps"][name])
                     for i, code in enumerate(row) if code in won]
            assert {r1 for _, r1 in cells} == {True, False}, name
            for p, r1 in cells:
                wins = race(cfg, p)
                assert r1 == (min(wins) <= 0.0
                              or can_reach_target(replace(cfg, target=p), wins)
                              is not None), (name, p)

    def test_every_label_occurs(self, golden):
        text = "".join("".join(rows) for rows in golden["maps"].values())
        text += "".join(golden["vertices"].values())
        assert set(text) == set(record.LABEL_CODE.values())


def test_boundary_minima_match_golden():
    """Recorded by tests/golden/record.py, compared exactly."""
    golden = json.loads((record.GOLDEN / "minima.json").read_text())
    assert record.minima_snapshot() == golden


def test_boundary_minima_order_mirror_ties_by_polar_angle():
    # players, velocities and target on the x axis: L is symmetric about it,
    # so a dip off the axis has a mirror image at the same sweep time and
    # payoff, and the one at the smaller polar angle comes first
    cfg = make_cfg((-1.0, 0.0), (0.5, 0.0), (-2.5, 0.0), (0.0, 0.0))
    minima = boundary_minima(cfg)
    pairs = [(m, n) for m, n in zip(minima, minima[1:])
             if (m.t, m.payoff) == (n.t, n.payoff)]
    assert len(pairs) >= 2
    for m, n in pairs:
        assert (m.point.x, -m.point.y) == (n.point.x, n.point.y) and m.point.y < 0.0
        assert m.point.angle() < n.point.angle()


# digits of the dip oracle, its window around each reported dip, and the
# dips it checks on the configurations of minima.json
ORACLE_DIGITS = 40
ORACLE_WINDOW = Decimal("1e-4")
ORACLE_DIPS = 23


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


def test_boundary_minima_are_tangency_ends_or_local_minima():
    """Every candidate that is not the tangency time ending its interval is
    a local minimum of the payoff at 40 digits: on its +-1e-4 window, cut to
    the interval, both ends are farther than the candidate.  An end sample
    whose cell has no rising slope adds no candidate of its own."""
    checked = 0
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        for name, cfg in record.minima_configs().items():
            intervals = _active_intervals(cfg)[2]
            for m in boundary_minima(cfg):
                a, b = next((a, b) for a, b in intervals if a <= m.t <= b)
                if m.t in (a, b):
                    continue
                t = Decimal(m.t)
                ends = (max(t - ORACLE_WINDOW, Decimal(a)),
                        min(t + ORACLE_WINDOW, Decimal(b)))
                payoff = _oracle_l_point(cfg, m.side, t)[0]
                for end in ends:
                    assert _oracle_l_point(cfg, m.side, end)[0] > payoff, (name, m.t)
                checked += 1
    assert checked == ORACLE_DIPS
