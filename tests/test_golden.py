"""Golden traces: `run` must reproduce the recorded games within the contract.

Positions, velocities and the payoff agree to 1e-8, event times to 1e-6,
plan-switch times to 1e-9 (they are step times) and notes exactly.  Regenerate with tests/golden/record.py only for an
intended change of behaviour, and say why in CHANGES.md.
"""
import json

import pytest

from golden.record import GAMES, GOLDEN, snapshot
from reachavoid import run

STATE_TOL = 1e-8
EVENT_T_TOL = 1e-6
SWITCH_T_TOL = 1e-9


@pytest.mark.parametrize("name", sorted(GAMES))
def test_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = snapshot(run(GAMES[name]()))

    wo, go = want["outcome"], got["outcome"]
    assert go["kind"] == wo["kind"]
    assert go["t"] == pytest.approx(wo["t"], abs=EVENT_T_TOL)
    assert go["payoff"] == pytest.approx(wo["payoff"], abs=STATE_TOL)
    assert (go["point"] is None) == (wo["point"] is None)
    if wo["point"] is not None:
        assert go["point"] == pytest.approx(wo["point"], abs=STATE_TOL)

    assert got["notes"] == want["notes"]

    assert len(got["switches"]) == len(want["switches"])
    for (gt, *gp), (wt, *wp) in zip(got["switches"], want["switches"]):
        assert gt == pytest.approx(wt, abs=SWITCH_T_TOL)
        assert gp == pytest.approx(wp, abs=STATE_TOL)

    assert got["row_count"] == want["row_count"]
    assert got["rows"].keys() == want["rows"].keys()
    for i, (wt, *wstate) in want["rows"].items():
        gt, *gstate = got["rows"][i]
        assert gt == pytest.approx(wt, abs=EVENT_T_TOL), f"row {i}"
        assert gstate == pytest.approx(wstate, abs=STATE_TOL), f"row {i}"
