import gc
import math
import tracemalloc

import numpy as np
import pytest

from reachavoid import (AttackerPolicy, Control, DefenderPolicy, OutcomeKind,
                        Scenario, Vec2, propagate, r3_certificates, run,
                        strategy_one, tangency_windows)
from reachavoid.engine import DETECT_SUBSTEPS, _dists
from reachavoid.scenario_io import TRACE_COLUMNS, trace_to_csv

from conftest import make_cfg, random_player


class TestRun:
    def test_equilibrium_capture_case2(self, case2):
        trace = run(Scenario(cfg=case2))
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.outcome.t == pytest.approx(0.85, abs=0.02)
        assert trace.outcome.payoff == pytest.approx(0.789, abs=0.02)

    def test_rows_monotone_and_consistent(self, case2):
        trace = run(Scenario(cfg=case2))
        ts = [r.t for r in trace.rows]
        assert all(b > a for a, b in zip(ts[:-1], ts[1:]))
        for r in trace.rows:
            assert r.dist_ad == pytest.approx(
                (r.attacker.pos - r.defender.pos).norm(), abs=1e-12)
            assert r.dist_at == pytest.approx(
                (r.attacker.pos - case2.target).norm(), abs=1e-12)

    def test_determinism_bit_identical(self, case2):
        a = run(Scenario(cfg=case2))
        b = run(Scenario(cfg=case2))
        assert a.outcome == b.outcome
        assert a.rows == b.rows

    def test_step_size_only_moves_payoff_slightly(self, case1, case2, case3):
        for cfg in (case1, case2, case3):
            coarse = run(Scenario(cfg=cfg, dt=0.025))
            fine = run(Scenario(cfg=cfg, dt=0.0125))
            assert abs(coarse.outcome.payoff - fine.outcome.payoff) < 0.01

    def test_capture_matches_the_plan(self, case2):
        plan = strategy_one(case2)
        trace = run(Scenario(cfg=case2))
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.rows[-1].dist_ad < trace.scenario.eps_capture + 1e-9
        assert abs(trace.outcome.payoff - plan.payoff) < 0.02

    def test_timeout_when_nothing_happens(self):
        from conftest import make_cfg
        cfg = make_cfg((5.0, 5.0), (0, 0), (7.0, 7.0), (0, 0),
                       target=(-50.0, -50.0))
        trace = run(Scenario(cfg=cfg,
                             attacker_policy=AttackerPolicy.CONSTANT,
                             constant_ctrl=Control(0.0, 0.0),
                             defender_policy=DefenderPolicy.PURE_PURSUIT,
                             t_max=0.2))
        assert trace.outcome.kind is OutcomeKind.CAPTURED \
            or trace.outcome.kind is OutcomeKind.TIMEOUT

    def test_target_reached_refined_to_epsilon(self, case2):
        trace = run(Scenario(cfg=case2,
                             defender_policy=DefenderPolicy.PURE_PURSUIT))
        assert trace.outcome.kind is OutcomeKind.TARGET_REACHED
        assert trace.rows[-1].dist_at == pytest.approx(
            trace.scenario.eps_target, abs=1e-4)


class TestNashOrdering:
    @pytest.mark.parametrize("case_name", ["case1", "case2", "case3"])
    def test_deviations_are_punished(self, case_name, request):
        cfg = request.getfixturevalue(case_name)
        both = run(Scenario(cfg=cfg)).outcome
        att_dev = run(Scenario(cfg=cfg,
                               attacker_policy=AttackerPolicy.PURE_PURSUIT)).outcome
        def_dev = run(Scenario(cfg=cfg,
                               defender_policy=DefenderPolicy.PURE_PURSUIT)).outcome
        assert both.kind is OutcomeKind.CAPTURED
        assert att_dev.payoff > both.payoff + 0.01
        assert both.payoff > def_dev.payoff + 0.01


class TestEventMargins:
    def test_distances_equal_the_propagated_states(self, case1, special1):
        # the event scan's distances against those of propagate's states (==)
        rng = np.random.default_rng(71)
        cfgs = [case1, special1]
        for _ in range(20):
            mu, u_d = rng.uniform(0.5, 2.0), rng.uniform(1.2, 3.0)
            a, d = random_player(rng, mu, 1.0), random_player(rng, mu, u_d)
            cfgs.append(make_cfg((a.pos.x, a.pos.y), (a.vel.x, a.vel.y),
                                 (d.pos.x, d.pos.y), (d.vel.x, d.vel.y),
                                 u_d=u_d, mu=mu,
                                 target=tuple(rng.uniform(-1.0, 1.0, 2))))
        for cfg in cfgs:
            pa, pd = cfg.attacker_params, cfg.defender_params
            ca = Control(pa.u_max * rng.choice([0.0, rng.random(), 1.0]),
                         rng.uniform(0.0, 2.0 * math.pi))
            cd = Control(pd.u_max * rng.choice([0.0, rng.random(), 1.0]),
                         rng.uniform(0.0, 2.0 * math.pi))
            dt = float(rng.choice([0.025, 0.05]))
            # the substep ends of a step and times between them
            hs = [dt * k / DETECT_SUBSTEPS for k in range(DETECT_SUBSTEPS + 1)]
            for h in hs + rng.uniform(0.0, dt, 8).tolist():
                a = propagate(cfg.attacker, pa, ca, h).pos
                d = propagate(cfg.defender, pd, cd, h).pos
                assert _dists(cfg, cfg.attacker, cfg.defender, ca, cd, h) \
                    == ((a - d).norm(), (a - cfg.target).norm())


class TestScenarioValidation:
    def test_step_bound(self, case3):
        with pytest.raises(ValueError):
            Scenario(cfg=case3, dt=0.2)

    def test_epsilons_positive(self, case3):
        with pytest.raises(ValueError):
            Scenario(cfg=case3, eps_capture=0.0)

    def test_constant_policy_needs_control(self, case3):
        with pytest.raises(ValueError):
            Scenario(cfg=case3, attacker_policy=AttackerPolicy.CONSTANT)

    def test_match_mrr_needs_mrr_attacker(self, case3):
        with pytest.raises(ValueError):
            Scenario(cfg=case3, defender_policy=DefenderPolicy.MATCH_MRR)


class TestTraceCsv:
    def test_fixed_columns_and_precision(self, case3):
        trace = run(Scenario(cfg=case3))
        csv = trace_to_csv(trace)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(trace.rows) + 1
        cell = lines[1].split(",")[1]
        assert float(cell) == trace.rows[0].attacker.pos.x


class TestTraceRows:
    """GameTrace.rows keeps the behaviour of the tuple of rows it replaced."""

    def test_acts_as_a_tuple_of_rows(self, case2):
        trace = run(Scenario(cfg=case2))
        rows = trace.rows
        listed = list(rows)
        assert rows and len(rows) == len(listed) == 36
        assert rows[-1] == listed[-1] == rows[len(rows) - 1]
        assert rows[0] == listed[0]
        assert rows[-1].t == trace.outcome.t
        assert rows[-1].dist_at == trace.outcome.payoff
        with pytest.raises(IndexError):
            rows[len(rows)]
        assert [r.t for r in rows[1:4]] == [r.t for r in listed[1:4]]
        again = run(Scenario(cfg=case2))
        assert rows == again.rows and hash(rows) == hash(again.rows)
        assert rows != run(Scenario(cfg=case2, dt=0.0125)).rows

    def test_fields_are_the_csv_floats(self, case3):
        trace = run(Scenario(cfg=case3))
        cells = trace_to_csv(trace).split("\n")[1].split(",")
        r = trace.rows[0]
        vals = (r.t, r.attacker.pos.x, r.attacker.pos.y, r.attacker.vel.x,
                r.attacker.vel.y, r.defender.pos.x, r.defender.pos.y,
                r.defender.vel.x, r.defender.vel.y, r.attacker_ctrl.u,
                r.attacker_ctrl.theta, r.defender_ctrl.u, r.defender_ctrl.theta,
                r.dist_ad, r.dist_at)
        assert all(type(v) is float for v in vals)
        assert [float(c) for c in cells] == list(vals)

    def test_controls_as_applied(self):
        # a heading of -1e-17 wraps to exactly 2*pi; wrapping it again gives 0
        ctrl = Control(0.5, -1e-17)
        cfg = make_cfg((5.0, 5.0), (0, 0), (7.0, 7.0), (0, 0),
                       target=(-50.0, -50.0))
        trace = run(Scenario(cfg=cfg, attacker_policy=AttackerPolicy.CONSTANT,
                             constant_ctrl=ctrl,
                             defender_policy=DefenderPolicy.PURE_PURSUIT,
                             t_max=0.1))
        assert ctrl.theta == 2.0 * math.pi
        assert all(r.attacker_ctrl == ctrl for r in trace.rows)

    def test_empty_at_a_t0_event(self):
        cfg = make_cfg((0.005, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0))
        trace = run(Scenario(cfg=cfg))
        assert trace.outcome.kind is OutcomeKind.TARGET_REACHED
        assert trace.outcome.t == 0.0
        assert not trace.rows and len(trace.rows) == 0
        assert list(trace.rows) == []
        with pytest.raises(IndexError):
            trace.rows[-1]
        assert trace_to_csv(trace) == ",".join(TRACE_COLUMNS) + "\n"

    def test_retained_bytes_per_row(self, case1):
        """The bytes that dropping a finished trace frees, per row: about
        1,220 while each row held its own state, control and Vec2 objects."""
        sc = Scenario(cfg=case1)
        tracemalloc.start()
        try:
            trace = run(sc)
            tangency_windows.cache_clear()
            r3_certificates.cache_clear()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            rows = len(trace.rows)
            del trace
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows == 93
        assert freed / rows <= 400
