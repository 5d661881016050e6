import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from reachavoid import (AttackerPolicy, Control, RegionLabel, barrier_time, cusp_time,
                        r3_certificates, run, tangency_windows)
from reachavoid.cli import main
from reachavoid.scenario_io import (SchemaError, dumps, load, loads,
                                    regions_to_csv, trace_to_csv)
from reachavoid.svgplot import SvgCanvas, _f

from golden import record

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_doc(**overrides):
    doc = {
        "players": {
            "attacker": {"pos": [1.0, 0.0], "vel": [0.0, 0.0], "u_max": 1.0},
            "defender": {"pos": [2.0, 0.5], "vel": [0.0, 0.0], "u_max": 2.0},
        },
        "mu": 1.0,
        "target": [0.0, 0.0],
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_round_trip_identity(self):
        doc = load(SCENARIOS / "case2.json")
        again = loads(dumps(doc))
        assert again.scenario == doc.scenario
        assert again.render == doc.render

    def test_unknown_top_level_key_rejected(self):
        raw = minimal_doc()
        raw["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            loads(json.dumps(raw))

    def test_unknown_nested_key_rejected(self):
        raw = minimal_doc()
        raw["players"]["attacker"]["mass"] = 3
        with pytest.raises(SchemaError, match="mass"):
            loads(json.dumps(raw))

    def test_missing_player_rejected(self):
        raw = minimal_doc()
        del raw["players"]["defender"]
        with pytest.raises(SchemaError, match="defender"):
            loads(json.dumps(raw))

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(SchemaError, match="mu"):
            loads(json.dumps(minimal_doc(mu=-1.0)))

    def test_attacker_faster_rejected(self):
        raw = minimal_doc()
        raw["players"]["attacker"]["u_max"] = 3.0
        with pytest.raises(SchemaError):
            loads(json.dumps(raw))

    def test_bad_policy_rejected(self):
        with pytest.raises(SchemaError, match="policy"):
            loads(json.dumps(minimal_doc(policies={"attacker": "zigzag"})))

    def test_constant_attacker_rejected(self):
        # constant_ctrl has no scenario key, so the policy is library-only
        with pytest.raises(SchemaError, match="constant_ctrl"):
            loads(json.dumps(minimal_doc(policies={"attacker": "constant"})))

    def test_constant_attacker_not_dumped(self):
        doc = load(SCENARIOS / "case2.json")
        sc = replace(doc.scenario, attacker_policy=AttackerPolicy.CONSTANT,
                     constant_ctrl=Control(0.5, 1.0))
        with pytest.raises(SchemaError, match="library-only"):
            dumps(replace(doc, scenario=sc))

    def test_speed_cap_enforced(self):
        raw = minimal_doc()
        raw["players"]["attacker"]["vel"] = [5.0, 0.0]
        with pytest.raises(SchemaError, match="speed"):
            loads(json.dumps(raw))

    @pytest.mark.parametrize("key, value, message", [
        (None, "{", "not valid JSON"),
        (None, "[]", "must be a JSON object"),
        ("players.attacker.pos", [1.0], "'players.attacker.pos' must be a pair"),
        ("players.attacker", 3, "'players.attacker' must be an object"),
        ("players", [], "'players' must be an object"),
        ("players.defender.u_max", -1.0, "'players.defender': acceleration bound"),
        ("policies", [], "'policies' must be an object"),
        ("sim", [], "'sim' must be an object"),
        ("render", [], "'render' must be an object"),
        ("policies.defender", "zigzag", "unknown defender policy"),
        ("render.window", [0.0, 1.0, 0.0], "'render.window' must be .xmin"),
        ("render.window", [0.0, 0.0, 0.0, 1.0], "'render.window' must have positive extent"),
        ("render.resolution", [1, 80], "'render.resolution' must be two ints"),
    ])
    def test_each_check_names_its_key(self, key, value, message):
        """One document per check of `loads`; a None key gives the text as is."""
        text = value
        if key is not None:
            raw = minimal_doc()
            *parents, leaf = key.split(".")
            node = raw
            for name in parents:
                node = node.setdefault(name, {})
            node[leaf] = value
            text = json.dumps(raw)
        with pytest.raises(SchemaError, match=message):
            loads(text)


class TestCsv:
    def test_regions_csv_shape(self):
        import numpy as np
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 1.0])
        labels = [[RegionLabel.R_I, RegionLabel.R_II],
                  [RegionLabel.R_III, RegionLabel.DEFENDER_DOMINATED]]
        text = regions_to_csv(xs, ys, labels)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,label"
        assert len(lines) == 5
        assert lines[1].endswith("R_I")

    def test_regions_csv_equals_per_cell_format(self):
        import numpy as np
        rng = np.random.default_rng(4)
        xs = np.linspace(-1.3, 2.7, 7)
        ys = np.array([-0.0, 1e-17, 0.1, 2.0 / 3.0])
        kinds = list(RegionLabel)
        labels = [[kinds[k] for k in rng.integers(len(kinds), size=len(xs))]
                  for _ in ys]
        reference = ["x,y,label"] + [
            f"{float(x):.17g},{float(y):.17g},{labels[j][i].value}"
            for j, y in enumerate(ys) for i, x in enumerate(xs)]
        assert regions_to_csv(xs, ys, labels) == "\n".join(reference) + "\n"


class TestSvg:
    def test_polyline_equals_per_vertex_format(self):
        import numpy as np
        values = [-0.0, -4e-7, 4e-7, -1234.5678905, 1e6, -5e-7, 5e-7, 0.1, 3]
        pairs = list(zip(values, values[::-1]))
        reference = " ".join(f"{_f(x)},{_f(y)}" for x, y in pairs)
        for points in (pairs, np.array(pairs), np.array(pairs).tolist()):
            cv = SvgCanvas()
            cv.polyline(points, "#123456", 1.2)
            assert cv.elements == [
                f'<polyline fill="none" stroke="#123456" stroke-width="1.200000" '
                f'points="{reference}" />']
            assert "-0.000000" not in cv.elements[0]
            assert cv.xs == values and cv.ys == values[::-1]


class TestCliSimulate:
    def test_case1_artifacts_and_consistency(self, tmp_path, capsys):
        rc = main(["simulate", str(SCENARIOS / "case1.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("trace.csv", "trajectories.svg", "distances.svg"):
            assert (tmp_path / name).exists()
        doc = load(SCENARIOS / "case1.json")
        trace = run(doc.scenario)
        assert (tmp_path / "trace.csv").read_text() == trace_to_csv(trace)
        out = capsys.readouterr().out
        assert "captured" in out

    def test_case3_final_distance_matches_reference(self, tmp_path, capsys):
        rc = main(["simulate", str(SCENARIOS / "case3.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        last = (tmp_path / "trace.csv").read_text().strip().split("\n")[-1]
        dist_at = float(last.split(",")[-1])
        assert dist_at == pytest.approx(0.330, abs=0.01)

    def test_svg_bytes_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", str(SCENARIOS / "case3.json"),
                         "--out", str(out)]) == 0
        for name in ("trajectories.svg", "distances.svg", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("sim.t_max", -1.0), ("sim.t_max", 0.0), ("sim.t_max", math.nan),
        ("sim.eps_capture", math.nan), ("sim.plan_switch_margin", -1.0),
        ("sim.plan_switch_margin", math.nan),
        ("players.defender.u_max", math.inf),
        ("players.attacker.pos", [math.inf, 0.0]),
        ("render.window", [0.0, math.inf, 0.0, 1.0]),
    ])
    def test_impossible_sim_rejected(self, tmp_path, capsys, key, value):
        # json writes the non-finite values as NaN and Infinity
        raw = json.loads((SCENARIOS / "case1.json").read_text())
        *parents, leaf = key.split(".")
        node = raw
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
        with pytest.raises(SchemaError, match=leaf):
            loads(json.dumps(raw))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make, message", [
        (lambda path: path.mkdir(), "cannot read scenario file"),
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "codec can't decode"),
    ])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, make, message):
        """A directory and a file that is not UTF-8: exit 2 with an error line."""
        bad = tmp_path / "bad.json"
        make(bad)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(mu=-2.0)))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(bad), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "mu" in capsys.readouterr().err


class TestCliRegions:
    def test_case3_map_is_an_apollonius_disc(self, tmp_path, capsys):
        rc = main(["regions", str(SCENARIOS / "case3.json"),
                   "--out", str(tmp_path), "--resolution", "19x19"])
        assert rc == 0
        rows = (tmp_path / "regions.csv").read_text().strip().split("\n")[1:]
        cx, cy, r = -0.5333333333333333, 0.2, 0.24037008503093268
        cell = (0.1 - -1.0) / 18 * math.sqrt(2.0)
        for row in rows:
            x, y, label = row.split(",")
            dist = math.hypot(float(x) - cx, float(y) - cy)
            if abs(dist - r) < cell:
                continue
            assert (label in ("R_I", "R_II")) == (dist < r)
        svg = (tmp_path / "regions.svg").read_text()
        assert 'id="region_R_I"' in svg
        assert 'id="boundary_L"' in svg

    def test_special1_has_third_region_layer(self, tmp_path, capsys):
        rc = main(["regions", str(SCENARIOS / "special1.json"),
                   "--out", str(tmp_path), "--resolution", "40x30",
                   "--window=-0.4,-0.05,-0.12,0.2"])
        assert rc == 0
        text = (tmp_path / "regions.csv").read_text()
        assert ",R_III" in text
        assert 'id="region_R_III"' in (tmp_path / "regions.svg").read_text()

    def test_empty_window_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regions", str(SCENARIOS / "case3.json"),
                  "--out", str(tmp_path), "--window", "1,1,0,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, scenario, override", [
        ("regions", "special1.json", ["--window", "0,1,x,2"]),
        ("regions", "special1.json", ["--window", "0,inf,0,1"]),
        ("regions", "special1.json", ["--resolution", "1x5"]),
        ("simulate", "case1.json", ["--dt", "0.5"]),
    ])
    def test_invalid_override_rejected(self, tmp_path, capsys, command,
                                       scenario, override):
        with pytest.raises(SystemExit) as exc:
            main([command, str(SCENARIOS / scenario), "--out", str(tmp_path),
                  *override])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCliScribe:
    def test_colinear_rest_table(self, tmp_path, capsys):
        doc = {
            "players": {
                "attacker": {"pos": [1.0, 0.0], "vel": [0.0, 0.0], "u_max": 1.0},
                "defender": {"pos": [0.0, 0.0], "vel": [0.0, 0.0], "u_max": 2.0},
            },
            "mu": 1.0,
        }
        path = tmp_path / "colinear.json"
        path.write_text(json.dumps(doc))
        assert main(["scribe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.9444335214" in out
        assert "1.8414056604" in out

    def test_separated_players_ordering(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["players"]["defender"]["pos"] = [30.0, 0.0]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["scribe", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        t_out = float(lines[1].split()[1])
        t_in = float(lines[2].split()[1])
        assert 1.0 < t_out < t_in

    def test_special1_count_matches_scan(self, capsys):
        assert main(["scribe", str(SCENARIOS / "special1.json")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # one external and one internal tangency for these initial conditions
        assert lines[1].count("(x1)") == 1
        assert lines[2].count("(x1)") == 1


class TestCliMrr:
    def test_defender_region_artifacts(self, tmp_path, capsys):
        rc = main(["mrr", str(SCENARIOS / "special1.json"),
                   "--player", "defender", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        cfg = load(SCENARIOS / "special1.json").scenario.cfg
        t_s = barrier_time(cfg.defender, cfg.defender_params)
        t_u = cusp_time(cfg.defender, cfg.defender_params)
        assert out.splitlines()[0] == f"barrier_time={t_s:.10f} cusp_time={t_u:.10f}"
        assert (tmp_path / "mrr.csv").exists()
        assert (tmp_path / "mrr.svg").exists()

    def test_at_rest_player_reports_empty(self, tmp_path, capsys):
        rc = main(["mrr", str(SCENARIOS / "case3.json"),
                   "--player", "attacker", "--out", str(tmp_path)])
        assert rc == 0
        assert "at rest" in capsys.readouterr().out


class TestLowDamping:
    """With mu = 0.005 the defender's cusp time is 66.3, where the float
    spacing (1.4e-14) exceeds cusp_time's tolerance of 1e-14; the root solve
    ends on two adjacent floats."""

    @pytest.mark.parametrize("command, extra", [
        ("regions", ["--resolution", "16x16"]),
        ("mrr", ["--player", "defender"]),
    ])
    def test_command_finishes(self, tmp_path, capsys, command, extra):
        doc = minimal_doc(mu=0.005)
        doc["players"] = {
            "attacker": {"pos": [1.0, -0.1], "vel": [0.0, 0.0], "u_max": 1.0},
            "defender": {"pos": [1.2, 0.1], "vel": [-200.0, 0.0], "u_max": 2.0},
        }
        path = tmp_path / "low_damping.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--out", str(tmp_path), *extra]) == 0


class TestThrustlessAttacker:
    """An attacker with u_max = 0 at rest reaches no point but its own."""

    @pytest.fixture
    def path(self, tmp_path):
        doc = minimal_doc()
        doc["players"] = {
            "attacker": {"pos": [1.0, 0.5], "vel": [0.0, 0.0], "u_max": 0.0},
            "defender": {"pos": [-0.5, 0.0], "vel": [0.0, 0.0], "u_max": 1.0},
        }
        path = tmp_path / "thrustless.json"
        path.write_text(json.dumps(doc))
        return path

    def test_simulate_ends_captured(self, path, tmp_path, capsys):
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.startswith("captured t=2.493520")

    def test_regions_are_all_defender(self, path, tmp_path, capsys):
        assert main(["regions", str(path), "--out", str(tmp_path / "o"),
                     "--resolution", "16x16"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "defender=256"


class TestSilence:
    """Callers read the library's output streams: `run` prints nothing, and
    neither a game nor a region map writes to stderr or warns."""

    def test_run_and_regions_write_nothing_unasked(self, tmp_path, capfd):
        tangency_windows.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("case1", "case2", "case3", "special1", "special2"):
                run(load(SCENARIOS / f"{name}.json").scenario)
            out, err = capfd.readouterr()
            assert (out, err) == ("", "")
            rc = main(["regions", str(SCENARIOS / "special1.json"),
                       "--out", str(tmp_path)])
        assert rc == 0
        assert capfd.readouterr().err == ""


class TestPinnedDigests:
    """sha256 digests recorded with the per-vertex annotation of L and the
    per-point bracket caps, which the array passes replaced bit for bit."""

    @pytest.mark.parametrize("game, digest", [
        ("special1", "a70e9de92f5760c959fc662e6c242c7626ab45de44fb8037cfb65a7c01a0c4c6"),
        ("seed37", "6128801713cf25d28414a09c2c7bbd0b1665876831bf843f8d78473b6aaeb448"),
        ("seed77", "8c508c49b30f87c0072348521b8092164f13c8d7c1c3739159d2bbde171e94b5"),
        # seed140 (two runs, one pocket) was recorded after the array passes
        ("seed140", "79efdd9a921691112d29b634e5d892ee562328f03fbbe87201c66c0bcb60c05f"),
    ])
    def test_r3_certificate_polygons(self, game, digest):
        cfg = (record._seeded_game(int(game[4:]))[0] if game.startswith("seed")
               else load(SCENARIOS / f"{game}.json").scenario.cfg)
        h = hashlib.sha256()
        for comp in r3_certificates(cfg):
            h.update(comp.condition.value.encode())
            h.update(comp.polygon.tobytes())
        assert h.hexdigest() == digest

    def test_special1_regions_files(self, tmp_path, capsys):
        assert main(["regions", str(SCENARIOS / "special1.json"),
                     "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("regions.csv", "regions.svg")}
        assert digests == {
            "regions.csv": "1ad1502f7057aef6cff04ef3462d56374b4f7c9091655012f72c4799a8a2182d",
            "regions.svg": "cc0c8d5aee80cdf764f00288cfd4bf32e6d1cad8f9fcf936f1fa519ced9c3199"}
