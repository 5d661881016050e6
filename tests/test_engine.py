import gc
import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from reachavoid import (AttackerPolicy, Control, DefenderPolicy,
                        InfeasibleTargetError, OutcomeKind, Scenario, Vec2,
                        best_r3_point, first_zero, isochron, propagate, pure_pursuit,
                        run, steer_to, strategy_one, tangency_windows)
import reachavoid.engine
from reachavoid import dominance, strategies
from reachavoid.dominance import straight_runs
from reachavoid.engine import _dists
from reachavoid.scenario_io import TRACE_COLUMNS, loads, trace_to_csv

from conftest import make_cfg, random_player
from golden import record


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


class TestStationarity:
    """The paper's closed-loop stationarity: replanning from later states
    returns the same terminal point, so the headings barely change."""

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_median_heading_change(self, name):
        rows = run(record.GAMES[name]()).rows.array
        for column in ("thetaA", "thetaD"):
            step = np.diff(rows[:, TRACE_COLUMNS.index(column)])
            # the change wrapped into [-pi, pi]
            step = np.angle(np.exp(1j * step))
            assert np.median(np.abs(step)) <= 1e-9, column


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
            # the first_zero bisection points of a step and times between them
            hs = [dt * k / 8 for k in range(9)]
            for h in hs + rng.uniform(0.0, dt, 8).tolist():
                a = propagate(cfg.attacker, pa, ca, h).pos
                d = propagate(cfg.defender, pd, cd, h).pos
                assert _dists(cfg, ca, cd)(h) \
                    == ((a - d).norm(), (a - cfg.target).norm())


class TestTerminalEvents:
    """Terminal events that an 8-substep scan of each step stepped over."""

    # seed-11 game 52 of the bench's random games: the attacker-defender
    # distance stays inside the capture ball for 5.5 ms from t = 1.0066 (its
    # minimum, 1.8e-7, is near 1.0094), between the substeps 1.00625 and
    # 1.0125, and the game went on to reach the target at 3.375
    SEED11_GAME52 = (
        '{"mu": 0.9541645170453951, "players": {"attacker": {"pos": '
        '[2.223705962439924, -0.3488823526635176], "u_max": 1.0, "vel": '
        '[0.03506791856605987, 0.09880613155472386]}, "defender": {"pos": '
        '[1.9651364141810281, 1.0495169198530605], "u_max": 2.4547236170247015, '
        '"vel": [0.17334402727026074, -0.7541974300979611]}}, "policies": '
        '{"attacker": "strategy_i", "defender": "strategy_i"}, "sim": '
        '{"dt": 0.05, "t_max": 4.0}, "target": [0.0, 0.0]}')

    def test_special1_intercept_is_captured(self):
        # the attacker-defender distance falls to 6.3e-8 at t ~ 0.8108, in
        # the step from t = 0.8; the game used to reach the target at 1.711
        trace = run(record.GAMES["special1_intercept"]())
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.outcome.t == pytest.approx(0.8107, abs=1e-4)
        assert trace.rows[-1].dist_ad <= trace.scenario.eps_capture

    def test_seed11_game52_is_captured(self):
        trace = run(loads(self.SEED11_GAME52).scenario)
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.outcome.t == pytest.approx(1.0066, abs=1e-4)
        assert trace.rows[-1].dist_ad <= trace.scenario.eps_capture

    def test_a_parked_zero_thrust_attacker_is_captured(self):
        # cap_A = 0: the target margin cannot change, and is not divided by it
        cfg = make_cfg((1.0, 0.5), (0.0, 0.0), (-0.5, 0.5), (0.0, 0.0), u_a=0.0)
        trace = run(Scenario(cfg=cfg, attacker_policy=AttackerPolicy.CONSTANT,
                             constant_ctrl=Control(0.0, 0.0),
                             defender_policy=DefenderPolicy.PURE_PURSUIT))
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.outcome.t == pytest.approx(1.53123, abs=1e-5)

    def test_a_thrustless_attacker_under_strategy_i_is_captured(self):
        # the attacker reaches no point but its own: no race, no target run
        # and no boundary, so both plans fail every step and pursuit captures
        cfg = make_cfg((1.0, 0.5), (0.0, 0.0), (-0.5, 0.0), (0.0, 0.0),
                       u_a=0.0, u_d=1.0)
        trace = run(Scenario(cfg=cfg))
        assert trace.outcome.kind is OutcomeKind.CAPTURED
        assert trace.outcome.t == pytest.approx(2.49352, abs=1e-5)
        assert all("plan failed" in note for note in trace.notes)
        assert best_r3_point(cfg) is None

    def test_one_search_per_step(self, monkeypatch, case2):
        calls = []

        def counted(*args):
            calls.append(args)
            return first_zero(*args)

        monkeypatch.setattr(reachavoid.engine, "first_zero", counted)
        trace = run(Scenario(cfg=case2))
        assert len(calls) == len(trace.rows) - 1


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


# random_games' policy pairs: equilibrium play and the three deviations
POLICY_PAIRS = ((AttackerPolicy.STRATEGY_I, DefenderPolicy.STRATEGY_I),
                (AttackerPolicy.PURE_PURSUIT, DefenderPolicy.STRATEGY_I),
                (AttackerPolicy.STRATEGY_I, DefenderPolicy.PURE_PURSUIT),
                (AttackerPolicy.STRATEGY_I, DefenderPolicy.INTERCEPT_R3))


def random_games(seed: int, count: int) -> list[Scenario]:
    """Games of the fuzz distribution: mu in [0.5, 2], u_D/u_A in [1.2, 3],
    attacker 1 to 3 and defender 0.5 to 3 from the target, speeds below 0.9
    of the cap, headings uniform; dt 0.05 to t = 4.  The policy pair cycles
    through POLICY_PAIRS with the index."""
    rng = random.Random(seed)

    def polar(r: float, angle: float) -> tuple[float, float]:
        return r * math.cos(angle), r * math.sin(angle)

    games = []
    for i in range(count):
        u = [rng.random() for _ in range(10)]
        mu, u_d = 0.5 + 1.5 * u[0], 1.2 + 1.8 * u[1]
        cfg = make_cfg(polar(1.0 + 2.0 * u[2], 2 * math.pi * u[3]),
                       polar(0.9 * u[6] / mu, 2 * math.pi * u[7]),
                       polar(0.5 + 2.5 * u[4], 2 * math.pi * u[5]),
                       polar(0.9 * u[8] * u_d / mu, 2 * math.pi * u[9]),
                       u_d=u_d, mu=mu)
        atk, dfd = POLICY_PAIRS[i % len(POLICY_PAIRS)]
        games.append(Scenario(cfg=cfg, attacker_policy=atk, defender_policy=dfd,
                              dt=0.05, t_max=4.0))
    return games


def game_digest(trace) -> str:
    """sha256 of a trace's row floats, notes and outcome."""
    h = hashlib.sha256(trace.rows.array.tobytes())
    h.update(repr((trace.notes, trace.outcome)).encode())
    return h.hexdigest()


class TestRandomGameDigests:
    """Seed-1 random games pinned bit for bit; no golden holds a random game.

    A change that keeps the engine's behaviour keeps these digests.  An
    intended change of behaviour that moves the golden traces (the
    containment-time cut in the race and the certified terminal-event
    detection, ROADMAP items 1 and 12) records them again along with the
    goldens, and CHANGES.md says so.
    """

    GAMES = random_games(1, 21)
    # (outcome, digest); games 0-15 cover all four policy pairs, target runs
    # and plan-failed notes, game 18 times out, and game 20 is captured at
    # t = 1.913 (it timed out as an R_II stalemate while a scan of 8
    # substeps per step stepped over that capture)
    DIGESTS = {
        0: ("target_reached",
            "4240138b9e760dd30b3130a27f82db0550a065400dbd22c5e821619a2e1ff7d5"),
        1: ("captured",
            "5a6d7f4505850633a8ce6b98f9e4d14eaa992e566de61b03cbb2753006a56234"),
        2: ("target_reached",
            "0db31f538880e36466e7a575d6be6ecb5aab2e1a7a70a37faea63ad2c136298b"),
        3: ("captured",
            "917c2b688379d43331ee77de536c4886460217c72c25fc6151ea1e445af671ae"),
        4: ("target_reached",
            "e925c81a55bcf2a7ffb2ce5ebec496682216f64e0d6b7fdc084bd396b2bb344d"),
        5: ("captured",
            "75b561618d8fc0456430cce991b9e854c1d43caff1af432ddd7b2a581f81c269"),
        6: ("target_reached",
            "ae0a4b634c49c12508c22dc820a85a0b1a77e24a8d611188629af5ca6ef4116d"),
        7: ("target_reached",
            "8c3297a18a3a2fc4f41063c2ce9f963b161f597ef510a0b4cf1b5c7c5e4ba8c3"),
        8: ("captured",
            "d6bb659899d3be4f30ddbd4532c8aed46e1daf44d594e2f3b4c416960d49a50b"),
        9: ("captured",
            "a94b8b1a15285f097a17950c634c6ed4af3d3560911c79fb8209f154d8b52d2b"),
        10: ("target_reached",
            "3902917557f60cdf431829cf752a96a5688ab985958f08fd5ab303c103dca24e"),
        11: ("captured",
            "9d0f6138d4e1f679618f07f043f62633bd238fc10e23167f52efd5f11fb945c1"),
        12: ("captured",
            "7c665c5edaa0e5650a6543455219fa45de96ee4915c860691e49afb1c5cad9de"),
        13: ("captured",
            "156606829514800b243858d1af8581a631e4a3ca7078139be5cb78cfa15cdd7d"),
        14: ("target_reached",
            "145814a674d72921d8184d74c58e18d90484096806cb76aeade2df66646350f3"),
        15: ("captured",
            "aaaf1cda0455952128f0366da6ee436c0f85a1ffebdc61e45fd68876f800579a"),
        18: ("timeout",
            "1c8443a79be23f45234522b1b332a43e7d463ee9655e3c4325703eb60eb602e2"),
        20: ("captured",
            "3c9d2cc286e3111dfa3e71ee209c0526575072ec2e28d14e6f0d67305f946dcb"),
    }

    @pytest.mark.parametrize("i", sorted(DIGESTS))
    def test_game_is_bit_identical(self, i):
        trace = run(self.GAMES[i])
        assert (trace.outcome.kind.value, game_digest(trace)) == self.DIGESTS[i]


class TestOneStepOneSolve:
    """A step solves each player's reach times at the target at most once,
    and plans at most once: a plan that fails for the attacker fails for the
    defender without a second solve."""

    def counted_run(self, monkeypatch, sc):
        """The game's trace, with per step (keyed by the step's players) the
        reach-time solves at the target, per player, and the plan calls."""
        import reachavoid.scribe
        import reachavoid.strategies
        solves, plans = Counter(), Counter()
        originals = (reachavoid.scribe.reach_times,
                     reachavoid.strategies.choose_plan)

        def reach_times(point, state, params):
            if point == sc.cfg.target:
                solves[state, params] += 1
            return originals[0](point, state, params)

        def choose_plan(cfg, *args, **kwargs):
            plans[cfg.attacker, cfg.defender] += 1
            return originals[1](cfg, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("reachavoid"):
                for attr, val in list(vars(mod).items()):
                    for orig, wrapper in zip(originals, (reach_times, choose_plan)):
                        if val is orig:
                            monkeypatch.setattr(mod, attr, wrapper)
        return run(sc), solves, plans

    def test_case3_plan_fails_once_per_step(self, monkeypatch, case3):
        trace, solves, plans = self.counted_run(monkeypatch, Scenario(cfg=case3))
        failed = [n for n in trace.notes if "plan failed" in n]
        # both players fall back from t = 0.8, one note each per step
        assert len(failed) >= 4 and failed[0].startswith("t=0.800000 attacker")
        assert len(plans) == len(trace.rows) - 1
        assert set(plans.values()) == {1}
        assert solves and set(solves.values()) == {1}

    def test_intercept_game_solves_once_per_step(self, monkeypatch):
        sc = random_games(1, 4)[3]
        assert sc.defender_policy is DefenderPolicy.INTERCEPT_R3
        trace, solves, plans = self.counted_run(monkeypatch, sc)
        assert any("plan failed" in n for n in trace.notes)
        assert len(plans) == len(trace.rows) - 1
        assert set(plans.values()) == {1}
        assert solves and set(solves.values()) == {1}


class TestOneFallback:
    """A point that `steer_to` rejects, or a locked arrival time already past,
    falls back in `_act` alone: that step's control is pure pursuit, with one
    note for that player."""

    def assert_pursued(self, trace, sc, who, state, reason):
        """The step that starts at `who`'s `state` pursues, with one note."""
        (i,) = [i for i, row in enumerate(trace.rows) if getattr(row, who) == state]
        row, applied = trace.rows[i], trace.rows[i + 1]
        step_cfg = replace(sc.cfg, attacker=row.attacker, defender=row.defender)
        assert getattr(applied, f"{who}_ctrl") == pure_pursuit(step_cfg, who)
        prefix = f"t={row.t:.6f} {who} "
        assert [n for n in trace.notes if n.startswith(prefix)] == \
            [f"{prefix}plan failed ({reason}); pure pursuit"]

    @pytest.mark.parametrize("game, who", [
        ("special1", "attacker"), ("special1", "defender"),
        ("special1_intercept", "defender")])
    def test_rejected_point(self, monkeypatch, game, who):
        """The mrr attacker's and the match_mrr defender's locked point, and
        the intercept_r3 defender's crossing: `who`'s first steer is rejected."""
        sc = record.GAMES[game]()
        params, steer_to, rejected = getattr(sc.cfg, f"{who}_params"), \
            reachavoid.engine.steer_to, []

        def rejecting(state, p, target, t_f):
            if p == params and not rejected:
                rejected.append(state)
                raise InfeasibleTargetError("rejected")
            return steer_to(state, p, target, t_f)
        monkeypatch.setattr(reachavoid.engine, "steer_to", rejecting)
        trace = run(sc)
        assert rejected
        self.assert_pursued(trace, sc, who, rejected[0], "rejected")

    def test_match_past_arrival(self, monkeypatch):
        """A region point locked for arrival at half a step: at the second
        step the match_mrr defender is past it."""
        sc = record.GAMES["special1"]()
        picked = best_r3_point(sc.cfg)
        monkeypatch.setattr(reachavoid.engine, "best_r3_point",
                            lambda cfg: (picked[0], sc.dt / 2, picked[2]))
        trace = run(sc)
        second = trace.rows[1]
        t_f = sc.dt / 2 - second.t
        self.assert_pursued(trace, sc, "defender", second.defender,
                            f"cannot reach {picked[0]} in non-positive time {t_f}")


class TestTargetRunPasses:
    """A target run whose end the defender's disc covers at arrival is
    decided without sampling: `straight_runs` and its float twin
    `straight_run`, which the target checks call, call `steer_controls`
    only for runs with an open end.  Pinned per bundled game are the calls
    of `dominance.steer_controls`; special1's one call is
    `_annotate_segments`, for the region strategy's certificate, and each
    of case3's is a target run's float call, searched with float
    `first_zero`."""

    @pytest.mark.parametrize("game, calls", [
        ("case1", 0), ("case2", 0), ("case3", 3), ("special1", 1), ("special2", 0)])
    def test_array_passes_per_bundled_game(self, steer_controls_calls, game, calls):
        run(record.GAMES[game]())
        assert len(steer_controls_calls) == calls

    @staticmethod
    def target_checks(monkeypatch, searches) -> list[tuple]:
        """(cfg, x, y, t, result, searches made) of every straight_run that
        can_reach_target makes over the first 16 seed-1 random games; each
        `first_zero` call of `dominance` appends its [a, b] to `searches`."""
        tries = []

        def tried(cfg, x, y, t):
            n = len(searches)
            out = dominance.straight_run(cfg, x, y, t)
            tries.append((cfg, x, y, t, out, searches[n:]))
            return out

        monkeypatch.setattr(strategies, "straight_run", tried)
        monkeypatch.setattr(dominance, "first_zero",
                            lambda *args: searches.append(args[1:3]) or first_zero(*args))
        for sc in random_games(1, 16):
            run(sc)
        monkeypatch.undo()
        return tries

    def test_a_target_check_is_one_float_search(self, monkeypatch):
        """can_reach_target tests each arrival time it tries with
        straight_run, `straight_runs`' rule on floats, which takes float
        first_zero over [0, t].  Over the first 16 seed-1 random games, a
        try makes that one call exactly when its end is open and steer_to
        accepts it, and no game searches on arrays."""
        monkeypatch.setattr(dominance, "zeros_found",
                            lambda *args: pytest.fail("an array search in a game"))
        tries = self.target_checks(monkeypatch, [])
        for cfg, x, y, t, _, made in tries:
            disc = isochron(cfg.defender, cfg.defender_params, t)
            try:
                steer_to(cfg.attacker, cfg.attacker_params, Vec2(x, y), t)
            except InfeasibleTargetError:
                assert not made
                continue
            assert made == ([(0.0, t)] if (Vec2(x, y) - disc.center).norm() > disc.radius else [])
        assert 0 < sum(bool(made) for *_, made in tries) < len(tries)

    def test_a_float_check_equals_the_array_rule(self, monkeypatch):
        """Every target check of the first 16 seed-1 random games gives the
        boolean of `straight_runs` on the same run alone, whose open end it
        hands to straight_run after its array end test, and batched with a
        second copy, which an open end sends to the array search."""
        searches = []
        tries = self.target_checks(monkeypatch, searches)
        assert sum(bool(made) for *_, made in tries) > 100
        for cfg, x, y, t, out, _ in tries:
            assert type(out) is bool
            assert straight_runs(cfg, [(x, y)], [t]).tolist() == [out]
            assert straight_runs(cfg, [(x, y)] * 2, [t, t]).tolist() == [out, out]
        assert 0 < sum(out for *_, out, _ in tries) < len(tries)
