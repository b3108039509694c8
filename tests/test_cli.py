import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from passivebc import cli
from passivebc.errors import ScenarioError
from passivebc.scenario import build_node, build_system, load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def base_scenario(**overrides):
    doc = {
        "schema_version": 1,
        "formulation": "position-momentum",
        "N": 8,
        "length": 1.0,
        "coefficients": {"rho": 1.0, "T": 1.0, "a": 1.0, "b": 0.0},
        "P": 1.0,
        "flavor": "impedance",
        "beta": 1.0,
        "input": {"kind": "zero"},
        "initial": {"kind": "standing_wave", "k": 1},
        "t_final": 0.05,
        "dt": 0.005,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    return header, data


class TestScenarioLoading:
    def test_bundled_scenarios_load(self):
        for name in ("standing_wave.json", "damped_sine.json",
                     "gauss_scattering.json"):
            sc = load_scenario(SCENARIOS / name)
            build_node(sc, build_system(sc))

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(typo=1))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(schema_version=2))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        doc = base_scenario()
        del doc["coefficients"]
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    def test_coefficient_arrays_accepted(self, tmp_path):
        doc = base_scenario()
        doc["coefficients"] = {"rho": [1.0] * 9, "T": [2.0] * 8,
                               "a": [1.0] * 9, "b": [0.0] * 9}
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.T[0] == 2.0

    def test_matrix_parameter_accepted(self, tmp_path):
        doc = base_scenario(P=[[0.1, 0.2], [0.0, 0.3]])
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.P.shape == (2, 2)

    def test_bad_input_kind_rejected(self, tmp_path):
        doc = base_scenario(input={"kind": "square"})
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))


class TestExitCodes:
    def test_simulate_ok(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        out = str(tmp_path / "run.csv")
        assert cli.main(["simulate", "--scenario", scn, "--out", out]) == 0
        header, data = read_csv(out)
        assert header == list(cli.CSV_COLUMNS)
        assert data.shape == (11, 10)

    def test_schema_error_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario(mystery=True))
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_numeric_gate_exits_3(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario(P=1.5))
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 3
        assert "NotAContraction" in capsys.readouterr().err

    def test_invalid_coefficients_exit_3(self, tmp_path, capsys):
        doc = base_scenario()
        doc["coefficients"]["a"] = [0.0] + [1.0] * 8
        scn = write_scenario(tmp_path, doc)
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 3
        assert "InvalidCoefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["green", "extension", "cayley",
                                       "jet", "all"])
    def test_verify_pass_exits_0(self, tmp_path, suite):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["verify", "--scenario", scn,
                         "--suite", suite]) == 0

    def test_corrupted_trace_fails_named(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario())
        code = cli.main(["verify", "--scenario", scn, "--suite", "green",
                         "--corrupt-gamma1"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "verification failed: green_identity" in captured

    def test_no_output_path_is_schema_error(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["simulate", "--scenario", scn]) == 2


class TestCsvContract:
    def test_deterministic_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario(
            input={"kind": "sine", "amplitude": 0.2, "frequency": 1.0,
                   "channel_weights": [1.0, 0.0]}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_match_per_float_formatting(self, tmp_path):
        rows = [[-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3],
                [1.7976931348623157e300, -9.99e299, 1.0 / 3.0, -2.5],
                [float("inf"), float("-inf"), 1e-5, 123456789.0]]
        out = tmp_path / "rows.csv"
        cli._write_csv_atomic(str(out), ("a", "b", "c", "d"),
                              np.array(rows))
        expected = "a,b,c,d\n" + "".join(
            ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert out.read_bytes() == expected.encode()

    def test_seventeen_digit_round_trip(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        out = tmp_path / "run.csv"
        cli.main(["simulate", "--scenario", scn, "--out", str(out)])
        _, data = read_csv(out)
        # recompute the exact H values and compare bit for bit
        sc = load_scenario(scn)
        from passivebc.scenario import (build_initial_state,
                                        build_signal)
        from passivebc.sim import simulate
        sys_ = build_system(sc)
        node = build_node(sc, sys_)
        traj = simulate(node, build_initial_state(sc, sys_),
                        build_signal(sc), sc.t_final, sc.dt)
        assert (data[:, 1] == traj.ledger.H).all()

    def test_no_partial_file_on_failure(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario(P=2.0))
        out = tmp_path / "nope.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 3
        assert not out.exists()

    def test_conserved_standing_wave_column(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert cli.main(["simulate", "--scenario",
                         str(SCENARIOS / "standing_wave.json"),
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        h = data[:, 1]
        assert np.abs(np.diff(h)).max() <= 1e-10   # constant step to step
        assert np.abs(h - h[0]).max() <= 1e-9 * h[0]
        assert np.abs(data[:, 4:6]).max() == 0.0  # u stays zero

    def test_damped_energy_nonincreasing(self, tmp_path):
        doc = base_scenario(
            N=16, t_final=0.5, dt=0.002,
            coefficients={"rho": 1.0, "T": 1.0, "a": 1.0, "b": 0.5},
            initial={"kind": "gauss", "center": 0.5, "width": 0.1})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "damped.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert (np.diff(data[:, 1]) <= 1e-12).all()


class TestJetCompare:
    def test_zero_scenario_identically_zero(self, tmp_path):
        doc = base_scenario(initial={"kind": "zero"})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "jet.csv"
        assert cli.main(["jet-compare", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert not data[:, 1:].any()

    def test_standing_wave_deviation_small(self, tmp_path):
        doc = base_scenario(N=16, t_final=0.2, dt=0.002)
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "jet.csv"
        assert cli.main(["jet-compare", "--scenario", scn,
                         "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "state_deviation", "ran_a_defect"]
        assert data[:, 1].max() <= 1e-9
        assert data[:, 2].max() <= 1e-9


class TestCayleyCommand:
    def test_report_runs(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["cayley", "--scenario", scn]) == 0
        out = capsys.readouterr().out
        assert "impedance -> scattering" in out
        assert "involution residual" in out

    def test_strain_momentum_formulation_runs(self, tmp_path):
        doc = base_scenario(formulation="strain-momentum", N=12,
                            t_final=0.1, dt=0.002)
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "strain.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.isfinite(data).all()


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "passivebc.cli", "--help"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: passivebc" in proc.stdout
