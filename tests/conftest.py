import numpy as np
import pytest

from reachavoid import (GameConfig, PlayerParams, PlayerState, Vec2)

# one line per acceptance criterion, echoed after the run (see test_acceptance)
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

MU = 1.0
U_ATTACKER = 1.0
U_DEFENDER = 2.0


def make_cfg(xa, va, xd, vd, u_a=U_ATTACKER, u_d=U_DEFENDER, mu=MU,
             target=(0.0, 0.0)) -> GameConfig:
    return GameConfig(
        attacker=PlayerState(Vec2(*xa), Vec2(*va)),
        attacker_params=PlayerParams(u_max=u_a, mu=mu),
        defender=PlayerState(Vec2(*xd), Vec2(*vd)),
        defender_params=PlayerParams(u_max=u_d, mu=mu),
        target=Vec2(*target),
    )


@pytest.fixture
def steer_controls_calls(monkeypatch) -> list:
    """The argument tuples of every `steer_controls` call that `dominance`
    makes (its straight runs' and L annotation's array passes, not
    `steer_to`'s float calls) while the test runs."""
    import reachavoid.dominance
    calls = []
    original = reachavoid.dominance.steer_controls

    def steer_controls(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reachavoid.dominance, "steer_controls", steer_controls)
    return calls


@pytest.fixture
def params():
    return PlayerParams(u_max=1.0, mu=1.0)


@pytest.fixture
def case1():
    return make_cfg((-2.0, 3.0), (-1.0, 0.0), (-3.0, -2.0), (0.0, 2.0))


@pytest.fixture
def case2():
    return make_cfg((1.0, -0.1), (0.0, 0.0), (1.2, 0.1), (-0.5, -1.0))


@pytest.fixture
def case3():
    return make_cfg((-0.6, 0.1), (0.0, 0.0), (-0.8, -0.2), (0.0, 0.0))


@pytest.fixture
def special1():
    return make_cfg((-0.3457, 0.0517), (0.0862, 0.0338),
                    (-0.6728, -0.0455), (1.6534, 0.0907))


@pytest.fixture
def special2():
    return make_cfg((0.0, -5.0), (0.0, 0.0), (-0.5, -4.9), (2.0, 0.0))


@pytest.fixture
def overtake():
    # tuned so the isochrones touch, separate, and touch twice more:
    # three external tangency times
    return make_cfg((0.62, 0.002), (-0.85, 0.0), (0.5, 0.0), (1.9, 0.0))


def random_player(rng: np.random.Generator, mu: float, u_max: float,
                  box: float = 2.0, min_speed: float = 0.0) -> PlayerState:
    pos = Vec2(*(rng.uniform(-box, box, 2)))
    speed = rng.uniform(min_speed, 0.95) * u_max / mu
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return PlayerState(pos, Vec2(speed * np.cos(ang), speed * np.sin(ang)))
